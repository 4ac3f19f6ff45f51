"""Maximum likelihood fitting of parametric intensity models.

A ParametricFamily maps a natural-scale parameter vector to a model.
Positive parameters are searched on the log scale (declared via
transforms), which keeps the optimizer unconstrained.

Each record is laid out once into the corner terms of likelihood's
expansion, and every term is evaluated on one plan shared across the whole
dataset: a point of weight 1 for a term with no free coordinate, else fixed
quadrature panels nested one level per free coordinate, each level pinning
its coordinate at its nodes. Panels are cut at the family's fixed
rate-change points, at pinned jump times (earlier levels' nodes among
them) and at the later levels' range bounds, so kinks lie on panel edges.
Node positions depend only on the data, those rate-change points and the
model's structure (its gates cut the ranges), and so does the density's
geometry (where each component is at risk, where its gates close and where
its modifiers switch on): both are built once, and built again only for a
theta whose model has another structure. An evaluation is one vectorized
pass over the geometry that evaluates baselines, modifier effects and
offsets. A record whose embedded lower-order rules miss the tolerance, or
whose nodes would pass max_evals, is computed by loglik_atom.

Since nodes and weights do not depend on theta, a record's score is exact
and comes from the pass that gives its value: its likelihood is
sum_r w_r f_r over its nodes, and its score sum_r w_r f_r g_r / sum_r w_r f_r,
g_r the derivatives of log f_r. The family's map from theta to the model's
values (baseline parameters, modifier eta and gamma, offsets) is
differenced over the models at theta +- h_k e_k, exact up to rounding for a
value affine in theta, as every config family's is. The same kernel walk
that gives f_r then gives d log f_r in only the values that map reaches,
from log rates and cums: no rate or cum is built twice and nothing
divided. A record on the fallback gets central differences of loglik_atom.

Parameter points may be stacked: total_and_score takes B points at once.
The models at all of them and at their stencils are one build, each value
a (B, 1) stack (see models), for a family whose builder declares it takes
stacks (builds_stacks, as config families do); another builder is called
once per point and its models' values are stacked. The points of one
structure are then one kernel pass, whose (B, N) arrays give each row the
bits of that point's own pass, in blocks of rows of at most _STACK_NODES
row-nodes (8 192; one row where the plan is larger). A point whose
fallback runs out of budget, or whose value is not finite, is -inf alone.
A single point is a stack of one.

fit_mle runs BFGS on that score, one point an evaluation. Its search
variables are scaled by the BHHH matrix sum_i s_i s_i^T of the start's
per-record scores, so its first step is the BHHH step, on the scale of the
data's information about theta. Standard errors come from the Hessian by
central differences of the score at a converged estimate, its 2k points
one stacked evaluation, mapped back to the natural scale by the delta
method. n_evaluations counts value-and-score evaluations by their points:
the start's, BFGS's, and the Hessian's 2k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidStartError, ToleranceError
from .likelihood import _density_at, _density_geometry, _layout_codes, _quad_opts, loglik_atom
from .models import IntensityModel
from .observation import PseudoAtomRecord, StatusCodes
from .quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_EVALS,
    DEFAULT_REL_TOL,
    G_INDEX,
    G_WEIGHTS,
    K_NODES,
    K_WEIGHTS,
)

_MAX_PANEL = 1.0  # fixed panels never span more than this
_STEP = 1e-5      # relative step of the score's central differences
# a stack of parameter points is evaluated in blocks of rows, each block's
# rows times the plan's nodes at most this (or one row), so that a (B, N)
# float array stays within 64 KiB: past that the C allocator hands each
# temporary freshly mapped pages, and a row costs more in a stack than alone
_STACK_NODES = 8192
# the embedded Gauss-7 rule as weights on the 15 Kronrod nodes
_G7_ON_K15 = np.bincount(G_INDEX, G_WEIGHTS, minlength=K_WEIGHTS.size)


@dataclass(frozen=True)
class ParametricFamily:
    """Named parameters, their search transforms, and a model builder.

    builds_stacks declares that the builder also takes a stack of B points,
    theta as a (k, B, 1) array, and returns one model whose values are
    (B, 1) stacks, as a config family's builder does. Another builder is
    called once per point, and the evaluator stacks its models' values.
    """

    param_names: tuple[str, ...]
    transforms: tuple[str, ...]
    builder: Callable[[np.ndarray], IntensityModel]
    fixed_breakpoints: tuple[float, ...] = ()
    builds_stacks: bool = False

    def __post_init__(self):
        if len(self.param_names) != len(self.transforms):
            raise InvalidInputError("one transform per parameter required")
        for tr in self.transforms:
            if tr not in ("log", "identity"):
                raise InvalidInputError(f"unknown transform {tr!r}")

    @property
    def k(self) -> int:
        return len(self.param_names)

    @property
    def is_log(self) -> np.ndarray:
        """Which parameters are searched on the log scale."""
        return np.array([tr == "log" for tr in self.transforms], dtype=bool)

    def build(self, theta) -> IntensityModel:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.k,):
            raise InvalidInputError(f"expected {self.k} parameters, got shape {theta.shape}")
        return self.builder(theta)

    def to_search(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        u = theta.copy()
        for i, tr in enumerate(self.transforms):
            if tr == "log":
                if theta[i] <= 0:
                    raise InvalidInputError(
                        f"{self.param_names[i]} must be positive, got {theta[i]}"
                    )
                u[i] = np.log(theta[i])
        return u

    def from_search(self, u) -> np.ndarray:
        """Natural-scale theta of a search point (k,), or of each row of (B, k)."""
        u = np.asarray(u, dtype=float)
        theta, is_log = u.copy(), self.is_log
        theta[..., is_log] = np.exp(u[..., is_log])
        return theta


@dataclass
class FitResult:
    theta: dict[str, float]
    loglik: float
    std_errors: dict[str, float] | None
    n_evaluations: int
    converged: bool
    grad_norm: float
    message: str
    n_tolerance_failures: int = 0


def dataset_loglik(model: IntensityModel,
                   records: Sequence[PseudoAtomRecord] | StatusCodes,
                   C: float, **quad_opts) -> float:
    """Total log-likelihood of independent records under a fixed model."""
    return float(per_subject_loglik(model, records, C, **quad_opts).sum())


def per_subject_loglik(model: IntensityModel,
                       records: Sequence[PseudoAtomRecord] | StatusCodes,
                       C: float, **quad_opts) -> np.ndarray:
    """Log-likelihood of each record (record objects or their StatusCodes)
    under a fixed model.

    Runs on the dataset plan of DatasetEvaluator, over a family with no
    free parameters. `quad_opts` (rel_tol, abs_tol, max_evals) mean what
    they mean for loglik_atom, which computes the records whose panel error
    misses the tolerance or whose nodes would pass max_evals.
    """
    codes = StatusCodes.from_records(records)
    if not len(codes.kind):
        _quad_opts(**quad_opts)
        return np.empty(0)
    fixed = ParametricFamily((), (), lambda _: model,
                             fixed_breakpoints=tuple(model.breakpoints))
    return DatasetEvaluator(fixed, codes, C, **quad_opts).per_subject(())


def _difference(upper, centre, lower, h):
    """(upper - lower) / 2h; a side that is None leaves the one-sided
    difference with the centre, and nan where both are."""
    width = h * ((upper is not None) + (lower is not None))
    if not width:
        return np.nan
    return ((centre if upper is None else upper) - (centre if lower is None else lower)) / width


class DatasetEvaluator:
    """Batched log-likelihood of one dataset as a function of theta.

    The dataset is a sequence of records or their StatusCodes; a record
    object is built only for a record that takes the fallback. The
    quadrature options are those of loglik_atom: they set the panels' error
    check and go to the fallback. A record leaves the plan when its nodes,
    one integrand evaluation each, would pass max_evals.
    """

    def __init__(self, family: ParametricFamily,
                 records: Sequence[PseudoAtomRecord] | StatusCodes,
                 C: float, rel_tol: float = DEFAULT_REL_TOL,
                 abs_tol: float = DEFAULT_ABS_TOL, max_evals: int = DEFAULT_MAX_EVALS):
        self.family = family
        self.codes = StatusCodes.from_records(records)
        self.n = len(self.codes.kind)
        self.C = float(C)
        self.quad_opts = _quad_opts(rel_tol, abs_tol, max_evals)
        self._last = None   # (theta, total_and_score's result) of the last point
        self.n_evaluations = 0
        # evaluations, and stencil points of a fallback record's score, whose
        # quadrature budget ran out (scored -inf)
        self.n_tolerance_failures = 0
        if not self.n:
            raise InvalidInputError("empty dataset")
        self._build_plan(family.build(family.from_search(np.zeros(family.k))))

    def _build_plan(self, probe):
        n = self.n
        # every term: its record, pinned coordinates and flags as C-ordered
        # (p, N) arrays (the kernel reads one coordinate row at a time), and
        # R[k, row], the row's k-th free range (j, lo, hi), outermost first
        rec, S, F, R = _layout_codes(probe, self.codes, self.C)
        # W[0] is a row's K15 weight, W[1 + k] its weight with level k on G7
        W = np.ones((1 + R.shape[0], rec.size))
        bps = np.asarray(self.family.fixed_breakpoints, dtype=float)
        over = np.zeros(n, dtype=bool)
        for level in range(R.shape[0]):
            line = np.flatnonzero(R[0, :, 0] >= 0)
            keep = np.flatnonzero(R[0, :, 0] < 0)
            # a line of panels spans the row's range, split at the family's
            # breakpoints, the row's pinned jump times (earlier levels' nodes
            # among them; a free coordinate holds C, never inside a range) and
            # the later levels' range bounds; each row of cuts is sorted,
            # repeats and values outside the range set to inf
            lo, hi = R[0, line, 1:2], R[0, line, 2:3]
            cuts = np.concatenate([np.where(F[:, line], S[:, line], np.nan).T,
                                   np.broadcast_to(bps, (line.size, bps.size)),
                                   *R[1:, line, 1:]], axis=1)
            cuts[~((lo < cuts) & (cuts < hi))] = np.inf
            cuts.sort(axis=1)
            cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.inf
            cuts.sort(axis=1)
            left = np.concatenate([lo, cuts], axis=1)
            right = np.concatenate([cuts, hi], axis=1)
            seg_line, col = np.nonzero(np.isfinite(left))
            a = left[seg_line, col]
            b = np.where(np.isfinite(right), right, hi)[seg_line, col]
            parts = np.maximum(1, np.ceil((b - a) / _MAX_PANEL).astype(int))

            # a record whose nodes would pass max_evals leaves the plan
            seg_rec = rec[line[seg_line]]
            over |= np.bincount(rec[keep], minlength=n) + K_NODES.size * np.bincount(
                seg_rec, parts, minlength=n) > self.quad_opts["max_evals"]
            parts[over[seg_rec]] = 0
            keep = keep[~over[rec[keep]]]

            # subdivide so no panel exceeds _MAX_PANEL; the sub-panel edges are
            # those of np.linspace(a, b, parts + 1), k * step + a with the last
            # one set to b, so the nodes do not depend on how they are built
            seg = np.repeat(np.arange(a.size), parts)
            k = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
            step = (b - a)[seg] / parts[seg]
            lo = k * step + a[seg]
            hi = np.where(k + 1 == parts[seg], b[seg], (k + 1) * step + a[seg])
            half = (0.5 * (hi - lo))[:, None]
            node_t = ((0.5 * (lo + hi))[:, None] + half * K_NODES).ravel()

            # pin the coordinate at the nodes; new rows go before the kept
            # ones, so a record sums its nodes before its points
            parent = line[np.repeat(seg_line[seg], K_NODES.size)]
            w = np.take(W, parent, axis=1) * (half * K_WEIGHTS).ravel()
            w[1 + level] = W[0, parent] * (half * _G7_ON_K15).ravel()
            W = np.concatenate([w, np.take(W, keep, axis=1)], axis=1)
            idx = np.concatenate([parent, keep])
            rec, S, F = rec[idx], np.take(S, idx, axis=1), np.take(F, idx, axis=1)
            S[R[0, parent, 0].astype(int), np.arange(parent.size)] = node_t
            R = R[1:, idx]
        self._rec, self._s, self._f, self._w, self._over_budget = rec, S, F, W, over
        # the bin of each row's nodes in _by_record, by number of rows
        self._ids = {1: rec}
        # the density's theta-free arrays on the plan; the plan and they hold
        # for every model of the probe's structure
        self._structure = probe.structure
        self._geometry = _density_geometry(probe, S, F, self.C)

    def _plan_for(self, model) -> int:
        """The plan's number of nodes, the plan built again first for a
        model of another structure: a builder may change the structure with
        theta, and with its gates the cuts of the plan."""
        if model.structure != self._structure:
            self._build_plan(model)
        return self._rec.size

    def _by_record(self, x):
        """Each row of x (R, N) summed over each record's nodes, as (R, n):
        one np.bincount, each row in the order of one over the plan alone."""
        R = len(x)
        if R not in self._ids:
            self._ids[R] = (self._rec + self.n * np.arange(R)[:, None]).ravel()
        return np.bincount(self._ids[R], weights=x.ravel(), minlength=R * self.n).reshape(R, self.n)

    def _on_plan(self, model, need=None):
        """One kernel pass on the plan, for a model or a stack of B points
        (B = 1 for a model of numbers): each record's log-likelihood on the
        plan (B, n), the density at the nodes (B, N), the derivatives of its
        log in the model values `need` flags (None without), each record's
        K15 sum (B, n), and which records the fallback must compute (B, n)."""
        self._plan_for(model)
        f, grads = _density_at(model, self._geometry, need)
        f = np.atleast_2d(f)
        # the K15 sums; the error adds each level's |K15 - G7|
        total, *low = (self._by_record(w * f) for w in self._w)
        err = sum(np.abs(total - x) for x in low)
        with np.errstate(divide="ignore"):
            out = np.log(np.maximum(total, 0.0))
        rel_tol, abs_tol = self.quad_opts["rel_tol"], self.quad_opts["abs_tol"]
        redo = self._over_budget | (err > np.maximum(rel_tol * np.abs(total), 100 * abs_tol))
        return out, f, grads, total, redo

    def _fallback(self, model, out, redo):
        """out with the records redo flags computed by loglik_atom."""
        for i in np.flatnonzero(redo):
            out[i] = loglik_atom(model, self.codes.record(i), self.C, **self.quad_opts)
        return out

    def per_subject(self, theta) -> np.ndarray:
        """Per-record log-likelihood at natural-scale theta."""
        model = self.family.build(theta)
        out, _, _, _, redo = self._on_plan(model)
        return self._fallback(model, out[0], redo[0])

    def _build(self, thetas):
        """The family's models at the rows of thetas (P, k), in groups of one
        structure: (model, rows) pairs, the model holding the values of its
        rows, in their order, as (B, 1) stacks."""
        family = self.family
        if family.builds_stacks:
            return [(family.builder(thetas.T[:, :, None]), np.arange(len(thetas)))]
        models = [family.build(theta) for theta in thetas]
        rows: dict = {}
        for p, model in enumerate(models):
            rows.setdefault(model.structure, []).append(p)
        return [(models[r[0]].with_values(np.stack([models[p].values for p in r], axis=1)),
                 np.array(r)) for r in rows.values()]

    def total_and_score(self, theta):
        """The total log-likelihood at natural-scale theta and each record's
        score, its derivatives in theta as an (n, k) array; -inf (scores
        nan) where a record is impossible or the quadrature budget ran out.
        theta may be a stack of points (B, k), which gives (B,) totals and
        (B, n, k) scores, each row those of its point alone.

        A record on the plan gets its score from the same pass as its value:
        sum_r w_r f_r g_r / sum_r w_r f_r, g_r the derivatives of log f_r.
        A record on the fallback gets central differences of loglik_atom.
        Counted in n_evaluations, one per point; the last single point is
        remembered.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 2:
            self.n_evaluations += len(theta)
            totals, scores = zip(*self._total_and_score(theta))
            return np.array(totals), np.array(scores)
        key = tuple(theta)
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self.n_evaluations += 1
        result = self._total_and_score(theta[None])[0]
        self._last = (key, result)
        return result

    def _total_and_score(self, thetas):
        """total_and_score at each row of thetas (B, k), as B pairs.

        The family's models at the rows and at their stencil points
        theta +- h_j e_j are one build. The derivatives of the model values
        in theta are central differences over the stencil (exact up to
        rounding where a value is affine in theta); a side of another
        structure is left out. The rows of each structure are then one
        kernel pass per block of rows."""
        B, k = thetas.shape
        h = _STEP * np.where(self.family.is_log, np.abs(thetas), np.maximum(np.abs(thetas), 1.0))
        steps = h[:, :, None] * np.eye(k)
        points = np.concatenate([thetas, (thetas[:, None] + steps).reshape(-1, k),
                                 (thetas[:, None] - steps).reshape(-1, k)])
        groups = self._build(points)
        group_of, pos_of = np.empty(len(points), dtype=int), np.empty(len(points), dtype=int)
        for g, (_, rows) in enumerate(groups):
            group_of[rows], pos_of[rows] = g, np.arange(rows.size)
        values = [model.values for model, _ in groups]
        plus = B + np.arange(B * k).reshape(B, k)
        minus = plus + B * k

        def point_model(p):
            """The model at one point, of numbers."""
            return groups[group_of[p]][0].with_values(values[group_of[p]][:, pos_of[p]])

        results = [None] * B
        for g in dict.fromkeys(group_of[:B].tolist()):
            rows = np.flatnonzero(group_of[:B] == g)
            V, centre = values[g], pos_of[rows]
            # J[v, b, j]: d value v / d theta_j at row b; the centre stands in
            # for a side of another structure, and with none left J is nan
            up_ok, lo_ok = group_of[plus[rows]] == g, group_of[minus[rows]] == g
            up = V[:, np.where(up_ok, pos_of[plus[rows]], centre[:, None])]
            lo = V[:, np.where(lo_ok, pos_of[minus[rows]], centre[:, None])]
            width = h[rows] * (up_ok.astype(int) + lo_ok)
            J = (up - lo) / np.where(width > 0, width, np.nan)
            size = max(1, _STACK_NODES // max(1, self._plan_for(groups[g][0])))
            for start in range(0, rows.size, size):
                block = slice(start, start + size)
                Vb = V[:, centre[block]]
                # a block of one row is a model of numbers
                model = groups[g][0].with_values(Vb if Vb.shape[1] > 1 else Vb[:, 0])
                for b, result in zip(rows[block], self._score_block(
                        model, Vb, J[:, block], h[rows[block]],
                        plus[rows[block]], minus[rows[block]], point_model)):
                    results[b] = result
        return results

    def _score_block(self, model, V, J, h, plus, minus, point_model):
        """Totals and scores of a block of rows of one structure: one kernel
        pass for the model of their values V (V, B), with J (V, B, k) the
        derivatives of the values in theta, h (B, k) the steps and plus and
        minus (B, k) the rows' stencil points, as point_model takes them.
        A point's own spent budget or non-finite value sinks it alone."""
        B, k = h.shape
        out, f, grads, total, redo = self._on_plan(model, J.any(axis=(1, 2)).tolist())
        wf = self._w[0] * f
        score = np.empty((B, self.n, k))
        reaches, every_row = J.any(axis=1), (J != 0.0).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # one pass over the block per theta_j keeps every array (B, N)
            for j in range(k):
                # sum_v J[v, :, j] grads[v] over the v that reach theta_j, in
                # their order; a row whose J[v, b, j] is 0 adds nothing
                g = 0
                for v in np.flatnonzero(reaches[:, j]):
                    Jvj = J[v, :, j, None]
                    term = Jvj * grads[v]
                    g = g + (term if every_row[v, j] else np.where(Jvj != 0.0, term, 0.0))
                # where the density is 0 its log's derivatives are not finite
                wfg = np.where(wf != 0.0, wf * g, 0.0)
                score[:, :, j] = self._by_record(wfg) / total
        results = []
        for b in range(B):
            try:
                if redo[b].any():
                    self._fallback(model.with_values(V[:, b]), out[b], redo[b])
            except ToleranceError:
                self.n_tolerance_failures += 1
                out[b] = -np.inf
            else:
                for i in np.flatnonzero(redo[b]):
                    rec = self.codes.record(i)
                    for j in range(k):
                        score[b, i, j] = _difference(
                            self._stencil_point(point_model(plus[b, j]), rec), out[b, i],
                            self._stencil_point(point_model(minus[b, j]), rec), h[b, j])
            finite = np.all(np.isfinite(out[b])) and np.all(np.isfinite(score[b]))
            results.append((float(out[b].sum()), score[b]) if finite
                           else (-np.inf, np.full((self.n, k), np.nan)))
        return results

    def _stencil_point(self, model, record) -> float | None:
        """loglik_atom at a stencil point of a fallback record's score; None
        where it is not finite, a spent budget counted as -inf."""
        try:
            value = loglik_atom(model, record, self.C, **self.quad_opts)
        except ToleranceError:
            self.n_tolerance_failures += 1
            value = -np.inf
        return value if np.isfinite(value) else None

    def total(self, theta) -> float:
        """The total log-likelihood of total_and_score."""
        return self.total_and_score(theta)[0]


# over the whole fit a -inf log-likelihood is a legitimate value: a start
# that gives one (a cum overflowing, say) is rejected, and the line search
# that meets one (a +inf objective) does inf - inf arithmetic and recovers
# from it, so their warnings carry no news
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def fit_mle(family: ParametricFamily, records: Sequence[PseudoAtomRecord] | StatusCodes,
            C: float, init, *, rel_tol: float = 1e-8, abs_tol: float = 1e-12) -> FitResult:
    """Maximize the dataset log-likelihood over the family's parameters.

    `init` is a natural-scale vector (or name-keyed mapping). A starting
    point with minus-infinite log-likelihood is rejected up front, naming
    the first subject whose record has zero probability there. BFGS (200
    iterations at most) runs on the exact score in search variables scaled
    by the start's BHHH matrix; its end point is the estimate and the
    centre of the score differences that give the Hessian.
    """
    if isinstance(init, dict):
        missing = [nm for nm in family.param_names if nm not in init]
        if missing:
            raise InvalidInputError(f"init missing parameters {missing}")
        init = [init[nm] for nm in family.param_names]
    init = np.asarray(init, dtype=float)
    ev = DatasetEvaluator(family, records, C, rel_tol=rel_tol, abs_tol=abs_tol)
    is_log = family.is_log

    def loglik_and_score(u):
        """The log-likelihood at search point u and each record's score in
        u; for a stack of points (B, k), each point's."""
        theta = family.from_search(u)
        total, score = ev.total_and_score(theta)
        return total, score * np.where(is_log, theta, 1.0)[..., None, :]

    u0 = family.to_search(init)
    total0, score0 = loglik_and_score(u0)
    if not np.isfinite(total0):
        # evaluated again only to name the subject; a ToleranceError raises here
        per0 = ev.per_subject(family.from_search(u0))
        bad = int(np.flatnonzero(~np.isfinite(per0))[0])
        raise InvalidStartError(
            f"log-likelihood is {per0[bad]} at the starting point "
            f"(first offending subject: {bad})",
            subject_index=bad,
        )

    # search u = u0 + M v with M = L^-T, L L^T the BHHH matrix at the start:
    # the Hessian in v is about the identity there, so BFGS's first step is
    # the BHHH step and its unit steps stay on the likelihood's own scale
    try:
        M = np.linalg.inv(np.linalg.cholesky(score0.T @ score0)).T
    except np.linalg.LinAlgError:
        M = np.eye(family.k)

    def objective(v):
        u = u0 + M @ v
        # a line search that meets a -inf log-likelihood can come back nan
        if not np.all(np.isfinite(u)):
            return np.inf, np.full(v.size, np.nan)
        total, score = loglik_and_score(u)
        return -total, -(M.T @ score.sum(axis=0))

    # only a fit needs scipy; importing it at module level slows every command's start-up
    from scipy.optimize import minimize

    bfgs = minimize(objective, np.zeros(family.k), jac=True, method="BFGS",
                    options={"gtol": 1e-6, "maxiter": 200})
    u_hat = u0 + M @ bfgs.x
    loglik, score = loglik_and_score(u_hat)
    grad = score.sum(axis=0)
    grad_norm = float(np.max(np.abs(grad))) if np.all(np.isfinite(grad)) else np.inf
    theta_hat = family.from_search(u_hat)
    # BFGS's own test is on the scaled gradient: about the distance to the
    # optimum in standard errors, whatever the size of the data
    converged = bool(bfgs.success) or grad_norm < 1e-3

    # standard errors at a converged estimate only, from the Hessian by
    # central differences of the score at 2k points, one stacked evaluation;
    # a -inf inside the stencil leaves no curvature to invert
    std_errors = None
    if converged:
        h = 1e-4 * np.maximum(np.abs(u_hat), 1.0)
        steps = h * np.eye(family.k)
        scores = loglik_and_score(np.concatenate([u_hat - steps, u_hat + steps]))[1]
        grads = np.array([s.sum(axis=0) for s in scores])
        H = (grads[:family.k] - grads[family.k:]).T / (2 * h)
        H = 0.5 * (H + H.T)
        se_u = np.full(family.k, np.nan)
        if np.all(np.isfinite(H)):
            try:
                se_u = np.sqrt(np.diag(np.linalg.inv(H)))
            except np.linalg.LinAlgError:
                pass
        if np.all(np.isfinite(se_u)):
            se_nat = np.where(is_log, theta_hat * se_u, se_u)
            std_errors = dict(zip(family.param_names, se_nat.tolist()))

    message = f"bfgs: {bfgs.message}"
    if ev.n_tolerance_failures:
        message += (f"; {ev.n_tolerance_failures} evaluation(s) ran out of quadrature "
                    "budget and counted as -inf")
    return FitResult(
        theta=dict(zip(family.param_names, theta_hat.tolist())),
        loglik=loglik,
        std_errors=std_errors,
        n_evaluations=ev.n_evaluations,
        converged=converged,
        grad_norm=grad_norm,
        message=message,
        n_tolerance_failures=ev.n_tolerance_failures,
    )
