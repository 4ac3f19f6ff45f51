"""Maximum likelihood fitting of parametric intensity models.

A ParametricFamily (defined in models, so that loading a config needs no
fitting code) maps a natural-scale parameter vector to a model. Positive
parameters are searched on the log scale (declared via transforms), which
keeps the optimizer unconstrained.

Each distinct record is laid out once into the corner terms of
likelihood's expansion (subjects with the same coded record share it), and
every term is evaluated on one plan shared across the whole dataset: a
point of weight 1 for a term with no free coordinate, else Gauss-Kronrod
panels nested one level per free coordinate, each level pinning its
coordinate at its nodes. A line of panels is cut at the
family's fixed rate-change points, at pinned jump times (earlier levels'
nodes among them) and at the later levels' range bounds, so kinks lie on
panel edges, and a panel is a cell between cuts. Node positions depend only
on the data, those cuts and the model's structure (its gates cut the
ranges), and so does the density's geometry (where each component is at
risk, where its gates close and where its modifiers switch on): both are
built once, and built again only for a theta whose model has another
structure, or to refine. An evaluation is one vectorized pass over the
geometry that evaluates baselines, modifier effects and offsets.

A record whose error estimate, the sum over levels of |K15 - G7|, passes
max(rel_tol L_i, 100 abs_tol) is refined on the plan, QUADPACK's global
adaptive subdivision (Piessens et al. 1983) done per record: the panels
that carry its error are cut at their midpoints, on every line of their
coordinate in the record, and the point is evaluated again on the plan
built anew. The cuts stay for later points. A record whose nodes would
pass max_evals (one integrand evaluation each) is refused with a
ToleranceError naming it, the plan left as it was before that evaluation.
A nan estimate (a density that overflows) is not refined.

Since nodes and weights do not depend on theta, a record's score is exact
and comes from the pass that gives its value: its likelihood is
sum_r w_r f_r over its nodes, and its score sum_r w_r f_r g_r / sum_r w_r f_r,
g_r the derivatives of log f_r. The family's map from theta to the model's
values (baseline parameters, modifier eta and gamma, offsets) is
differenced over the values at theta +- h_k e_k, exact up to rounding for
a value affine in theta, as every config family's is. The values of the
stencil are one array, a column a point: one call of the family's value
map where it has one, else a model built per point, nan for a point whose
model has another structure than theta's. The model at theta is built
from theta itself. The same kernel walk that gives f_r then gives
d log f_r in only the values that map reaches, from log rates and cums:
no rate or cum is built twice and nothing divided.

The observed information is exact too, by Louis's identity: the observed
likelihood is the conditional mean of the full-data one, so a record's
Hessian is sum_r omega_r (g_r g_r^T + G_r) - s_i s_i^T, omega_r the node's
share w_r f_r / L_i of the record's likelihood, G_r the second derivatives
of log f_r and s_i the score. The kernel returns G_r with g_r, within a
component (the only nonzero blocks), in one pass at one point; the map's own
curvature is differenced over the values alone.

fit_mle takes damped Newton steps on that information in the search
variables (Commenges et al. 2006), every trial point one information pass,
and BHHH steps where the information is not positive definite. Standard
errors come from the information of the last iterate, with the map's own
curvature added over the values alone, mapped to the search variables
and back to the natural scale by the delta method. n_evaluations counts the
passes, one a trial point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidRecordError, InvalidStartError, ToleranceError
from .likelihood import _density_at, _density_geometry, _layout_codes, _quad_opts
from .models import IntensityModel, ParametricFamily  # ParametricFamily re-exported
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

_STEP = 1e-5      # relative step of the theta map's central differences
_STEP2 = 1e-4     # relative step of the map curvature's second differences
_MAX_ITERATIONS = 200   # Newton iterations of a fit
_MAX_HALVINGS = 30      # step halvings of an iteration
_CONVERGED = 1e-12      # g^T I^-1 g at a converged estimate
_MAX_BLOCKED = 3        # iterations in a row whose step a -inf trial cut
# the embedded Gauss-7 rule as weights on the 15 Kronrod nodes
_G7_ON_K15 = np.bincount(G_INDEX, G_WEIGHTS, minlength=K_WEIGHTS.size)


@dataclass
class FitResult:
    """A fit's estimate, log-likelihood and standard errors (None unless it
    converged). n_evaluations counts the information passes, one a trial
    point of the Newton iteration, the start's included;
    n_tolerance_failures those of them scored -inf because a record was
    refused for its quadrature budget (see DatasetEvaluator). grad_norm is
    the largest absolute total score in the search variables at the
    estimate, and message says why the fit stopped."""

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
    free parameters, which evaluates each distinct record once;
    likelihood.loglik_atom is this on one record. `quad_opts` (rel_tol,
    abs_tol, max_evals) are the plan's; a record it cannot settle within
    max_evals nodes raises ToleranceError with the index of the first
    subject with that record, as a malformed record's InvalidRecordError.
    """
    codes = StatusCodes.from_records(records)
    if not len(codes.kind):
        _quad_opts(**quad_opts)
        return np.empty(0)
    fixed = ParametricFamily((), (), lambda _: model,
                             fixed_breakpoints=tuple(model.breakpoints))
    return DatasetEvaluator(fixed, codes, C, **quad_opts).per_subject(())


def _second_differences(theta, h):
    """Points around theta (P, k), theta first, and the weights W (k, k, P)
    of central second differences from a function's values f_p there:
    sum_p W[j, l, p] f_p is (f(+j) - 2 f + f(-j)) / h_j^2 for j = l, and
    (f(+j+l) - f(+j-l) - f(-j+l) + f(-j-l)) / 4 h_j h_l for j != l."""
    k = theta.size
    E = np.diag(h)
    j, l = np.triu_indices(k, 1)
    steps = np.concatenate([np.zeros((1, k)), E, -E,
                            E[j] + E[l], E[j] - E[l], E[l] - E[j], -E[j] - E[l]])
    W = np.zeros((k, k, len(steps)))
    diag = np.arange(k)
    W[diag, diag, 0] = -2.0 / h ** 2
    W[diag, diag, 1 + diag] = W[diag, diag, 1 + k + diag] = 1.0 / h ** 2
    pair = 1.0 / (4 * h[j] * h[l])
    for q, sign in enumerate((1.0, -1.0, -1.0, 1.0)):
        cols = 1 + 2 * k + q * j.size + np.arange(j.size)
        W[j, l, cols] = W[l, j, cols] = sign * pair
    return theta + steps, W


def _combine(W, F):
    """sum_p W[j, l, p] F[..., p] as (..., k, k); nan where a term it
    weighs is nan."""
    k, P = W.shape[1:]
    W = W.reshape(-1, P).T
    missing = np.isnan(F)
    out = np.where(missing, 0.0, F) @ W
    if missing.any():
        out[missing @ (W != 0.0)] = np.nan
    return out.reshape(F.shape[:-1] + (k, k))


def _distinct(codes: StatusCodes):
    """The first subject of each distinct coded record, in order of first
    appearance (m,), and each subject's record among them (n,). Records are
    the same when their rows agree in every bit: -0.0 and 0.0 differ. One
    np.unique over each row's bytes as one void item, several times faster
    than np.unique(axis=0) on the columns."""
    packed = np.concatenate([np.ascontiguousarray(x).view(np.uint8) for x in codes], axis=1)
    _, first, inverse = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


class DatasetEvaluator:
    """Batched log-likelihood of one dataset as a function of theta.

    The dataset is a sequence of records or their StatusCodes, and the
    quadrature options (rel_tol, abs_tol, max_evals) settle or refuse a
    record as the module says. Subjects with the same coded record share
    one copy of it, the first subject's: the plan, its geometry and its
    refinement hold the distinct records alone, and their values and
    scores go back to the subjects through the inverse index, bit for bit
    those of a plan with every copy. The information weighs a record's
    nodes by its multiplicity, and a refusal names the first subject with
    the record. A node takes about 150 B on a 3-D dementia plan, so
    max_evals caps a record near 15 MB; nothing caps the cohort, whose plan
    grows with its distinct records.
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
        self._at = None     # the last information pass (see _curvature_term)
        self.n_evaluations = 0
        # evaluations whose quadrature budget ran out (scored -inf)
        self.n_tolerance_failures = 0
        if not self.n:
            raise InvalidInputError("empty dataset")
        # the plan's records, one copy of each distinct record: record i is
        # subject _first[i]'s, and _count[i] subjects have it; subject s has
        # record _inverse[s]
        self._first, self._inverse = _distinct(self.codes)
        self._distinct_codes = StatusCodes(*(np.take(x, self._first, axis=0) for x in self.codes))
        self._count = np.bincount(self._inverse, minlength=self._first.size)
        # the cuts refinement added: a nan-padded row for each record's
        # coordinate j, row record * p + j
        self._cuts = np.zeros((self._distinct_codes.kind.size, 0))
        self._build_plan(family.build(family.from_search(np.zeros(family.k))))

    def _build_plan(self, probe):
        n = self._first.size
        # every term: its record, pinned coordinates and flags as C-ordered
        # (p, N) arrays (the kernel reads one coordinate row at a time), and
        # R[k, row], the row's k-th free range (j, lo, hi), outermost first;
        # a refused record is named by its first subject
        try:
            rec, S, F, R = _layout_codes(probe, self._distinct_codes, self.C)
        except InvalidRecordError as err:
            raise InvalidRecordError(int(self._first[err.record_index]), err.detail,
                                     err.component) from None
        # W[0] is a row's K15 weight, W[1 + k] its weight with level k on G7;
        # P[k] its panel at level k (-1: none), each (record, j, lo, hi)
        W = np.ones((1 + R.shape[0], rec.size))
        P = np.full(W[1:].shape, -1, dtype=np.int32)
        panels = []
        bps = np.asarray(self.family.fixed_breakpoints, dtype=float)
        over = np.zeros(n, dtype=bool)
        for level in range(R.shape[0]):
            line = np.flatnonzero(R[0, :, 0] >= 0)
            keep = np.flatnonzero(R[0, :, 0] < 0)
            j = R[0, line, 0].astype(int)
            # a line of panels spans the row's range, split at the family's
            # breakpoints, the row's pinned jump times (earlier levels' nodes
            # among them; a free coordinate holds C, never inside a range),
            # the later levels' range bounds and the cuts refinement added;
            # each row of cuts is sorted, repeats and values outside the
            # range set to inf, and a panel is a cell between them
            lo, hi = R[0, line, 1:2], R[0, line, 2:3]
            cuts = np.concatenate([np.where(F[:, line], S[:, line], np.nan).T,
                                   np.broadcast_to(bps, (line.size, bps.size)),
                                   *R[1:, line, 1:], self._cuts[rec[line] * len(S) + j]], axis=1)
            cuts[~((lo < cuts) & (cuts < hi))] = np.inf
            cuts.sort(axis=1)
            cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.inf
            cuts.sort(axis=1)
            left = np.concatenate([lo, cuts], axis=1)
            right = np.concatenate([cuts, hi], axis=1)
            seg_line, col = np.nonzero(np.isfinite(left))

            # a record whose nodes would pass max_evals leaves the plan
            seg_rec = rec[line[seg_line]]
            over |= np.bincount(rec[keep], minlength=n) + K_NODES.size * np.bincount(
                seg_rec, minlength=n) > self.quad_opts["max_evals"]
            on = ~over[seg_rec]
            seg_line, col, seg_rec = seg_line[on], col[on], seg_rec[on]
            keep = keep[~over[rec[keep]]]
            a = left[seg_line, col]
            b = np.where(np.isfinite(right), right, hi)[seg_line, col]
            half = (0.5 * (b - a))[:, None]
            node_t = ((0.5 * (a + b))[:, None] + half * K_NODES).ravel()

            # pin the coordinate at the nodes; new rows go before the kept
            # ones, so a record sums its nodes before its points
            parent = line[np.repeat(seg_line, K_NODES.size)]
            w = np.take(W, parent, axis=1) * (half * K_WEIGHTS).ravel()
            w[1 + level] = W[0, parent] * (half * _G7_ON_K15).ravel()
            W = np.concatenate([w, np.take(W, keep, axis=1)], axis=1)
            idx = np.concatenate([parent, keep])
            rec, S, F, P = rec[idx], *(np.take(x, idx, axis=1) for x in (S, F, P))
            S[R[0, parent, 0].astype(int), np.arange(parent.size)] = node_t
            P[level, :parent.size] = np.repeat(sum(x[2].size for x in panels)
                                               + np.arange(a.size), K_NODES.size)
            panels.append((seg_rec, j[seg_line], a, b))
            R = R[1:, idx]
        self._rec, self._s, self._f, self._w, self._over_budget = rec, S, F, W, over
        self._panel_of, self._panels = P, [np.concatenate(x) for x in zip(*panels)]
        # the bin of each row's nodes in _by_record, by number of rows
        self._ids = {1: rec}
        # the density's theta-free arrays on the plan; the plan and they hold
        # for every model of the probe's structure
        self._structure = probe.structure
        self._geometry = _density_geometry(probe, S, F, self.C)

    def _by_record(self, x):
        """Each row of x (R, N) summed over each plan record's nodes, as
        (R, m): one np.bincount, each row in the order of one over the plan
        alone."""
        R, m = len(x), self._first.size
        if R not in self._ids:
            self._ids[R] = (self._rec + m * np.arange(R)[:, None]).ravel()
        return np.bincount(self._ids[R], weights=x.ravel(), minlength=R * m).reshape(R, m)

    def _on_plan(self, model, need=None):
        """The kernel on the plan for a model of numbers: each plan record's
        log-likelihood (m,), the density at the nodes (N,), the first and
        second derivatives of its log in the model values `need` flags (both
        None without; see _density_at), and each record's K15 sum (m,). A
        pass is made again after each refinement; a refusal restores the plan
        the call began with."""
        # a builder may change the structure with theta, and with its gates
        # the cuts of the plan
        if model.structure != self._structure:
            self._build_plan(model)
        cuts = self._cuts
        rel_tol, abs_tol = self.quad_opts["rel_tol"], self.quad_opts["abs_tol"]
        try:
            while True:
                f, grads, hess = _density_at(model, self._geometry, need)
                f = np.broadcast_to(f, self._rec.shape)
                # the K15 sums; the error adds each level's |K15 - G7|
                total, *low = self._by_record(self._w * f)
                err = sum(np.abs(total - x) for x in low)
                bound = np.maximum(rel_tol * np.abs(total), 100 * abs_tol)
                miss = err > bound
                if not (miss.any() or self._over_budget.any() or (total == np.inf).any()):
                    break
                self._refine(model, f, total, err, bound, miss)
        except ToleranceError:
            if self._cuts is not cuts:
                self._cuts = cuts
                self._build_plan(model)
            raise
        with np.errstate(divide="ignore"):
            out = np.log(np.maximum(total, 0.0))
        return out, f, grads, hess, total

    def _refine(self, model, f, total, err, bound, miss):
        """Bisect each record `miss` flags at the panels whose |K15 - G7|
        passes an equal share of its bound, and build the plan again; refuse
        a record past max_evals, with an infinite sum (a node too close to a
        singularity), or with no such panel wide enough to cut, named by its
        first subject."""
        refused = np.flatnonzero(self._over_budget | (total == np.inf))
        if refused.size:
            i = int(refused[0])
            raise ToleranceError(f"needs more than max_evals = {self.quad_opts['max_evals']} "
                                 "quadrature nodes" if self._over_budget[i] else
                                 "its integrand overflows", np.nan, np.inf,
                                 record_index=int(self._first[i]))
        rec, j, a, b = self._panels
        on = self._panel_of >= 0
        E = np.abs(np.bincount(self._panel_of[on], ((self._w[0] - self._w[1:]) * f)[on],
                               minlength=a.size))
        m = self._first.size
        cut = np.flatnonzero(miss[rec] & (E * np.bincount(rec, minlength=m)[rec] > bound[rec]))
        mid = 0.5 * (a[cut] + b[cut])
        wide = (a[cut] < mid) & (mid < b[cut])
        cut, mid = cut[wide], mid[wide]
        stuck = np.flatnonzero(miss & (np.bincount(rec[cut], minlength=m) == 0))
        if stuck.size:
            raise ToleranceError("no panel left wide enough to cut", total[stuck[0]],
                                 err[stuck[0]], record_index=int(self._first[stuck[0]]))
        # the cuts, old and new, once each
        old = np.isfinite(self._cuts)
        row, t = np.unique([np.concatenate([np.nonzero(old)[0], rec[cut] * len(self._s) + j[cut]]),
                            np.concatenate([self._cuts[old], mid])], axis=1)
        pos = np.arange(t.size) - np.searchsorted(row, row)
        self._cuts = np.full((len(old), pos.max() + 1), np.nan)
        self._cuts[row.astype(int), pos] = t
        self._build_plan(model)

    def per_subject(self, theta) -> np.ndarray:
        """Per-subject log-likelihood at natural-scale theta."""
        return self._on_plan(self.family.build(theta))[0][self._inverse]

    def _values(self, thetas, model=None):
        """Every row's model values (V, P) of thetas (P, k): one call of the
        family's value map, else one build a row (model, where given, is the
        first row's), nan in the column of a row whose model has another
        structure than the first's."""
        family = self.family
        if family.value_map is not None:
            return family.value_map(thetas)
        models = [family.build(theta) if p or model is None else model
                  for p, theta in enumerate(thetas)]
        values = np.full((len(models[0].values), len(models)), np.nan)
        for p, other in enumerate(models):
            if other.structure == models[0].structure:
                values[:, p] = other.values
        return values

    def information(self, theta, curvature=True):
        """The total log-likelihood at natural-scale theta, each subject's
        score, its derivatives in theta as an (n, k) array, and the observed
        information there: minus the Hessian of the total log-likelihood in
        theta, (k, k). The total is -inf, and the scores and information
        nan, where a record is impossible or refused (see the class; the
        evaluation then counts in n_tolerance_failures); the information is
        nan too in the entries a second difference leaves unknown (a point
        of another structure).

        A record gets its score from the same pass as its value:
        sum_r w_r f_r g_r / sum_r w_r f_r, g_r the derivatives of log f_r.

        One kernel pass (one a round where a record is refined), which also
        gives the second derivatives of log f in the model values. By
        Louis's identity a record's Hessian is
        sum_r omega_r (d_r d_r^T + D_r) - s_i s_i^T: omega_r = w_r f_r / L_i
        (0 where f_r is 0), d_r and D_r the first and second derivatives of
        log f_r in theta, s_i the record's score (a plan record's omega_r
        carries its multiplicity, so that its nodes stand for every copy).
        They reach theta through the map's J and its own curvature
        (_curvature), which adds the values' score times it
        (_curvature_term). With curvature=False that part is left out, and
        no value is mapped for it. Counted in n_evaluations, as one.
        """
        theta = np.asarray(theta, dtype=float)
        self.n_evaluations += 1
        if not curvature:
            return self._evaluate(theta)
        curvature = self._curvature(theta)
        total, score, info = self._evaluate(theta, curvature.any(axis=(1, 2)))
        if total == -np.inf:
            return total, score, info
        return total, score, info + self._curvature_term(theta, curvature)

    def _theta_map(self, theta):
        """The model at theta and the map's derivatives J (V, k), J[v, j] =
        d value v / d theta_j: central differences over the stencil points
        theta +- h_j e_j, whose values are mapped with theta's (exact up to
        rounding where a value is affine in theta). The centre stands in for
        a side of another structure, and with none left J is nan."""
        k = theta.size
        h = _STEP * self._scale(theta)
        steps = h[:, None] * np.eye(k)
        model = self.family.build(theta)
        V = self._values(np.concatenate([theta[None], theta + steps, theta - steps]), model)
        same = ~np.isnan(V).any(axis=0)
        up_ok, lo_ok = same[1:k + 1], same[k + 1:]
        up = np.where(up_ok, V[:, 1:k + 1], V[:, :1])
        lo = np.where(lo_ok, V[:, k + 1:], V[:, :1])
        width = h * (up_ok.astype(int) + lo_ok)
        J = (up - lo) / np.where(width > 0, width, np.nan)
        return model, J

    def _curvature(self, theta):
        """The map's own curvature at theta (V, k, k): the second
        differences of the model values, no model evaluated; 0 at rounding
        level (an affine map leaves a few roundings of its values), nan
        where they meet a point of another structure."""
        around, weights = _second_differences(theta, _STEP2 * self._scale(theta))
        V = self._values(around)
        curvature = _combine(weights, V)
        noise = _combine(np.abs(weights), np.abs(V))
        curvature[np.abs(curvature) <= 16 * np.finfo(float).eps * noise] = 0.0
        return curvature

    def _curvature_term(self, theta, curvature=None):
        """What the map's own curvature (by default _curvature's) adds to
        the information of the last information pass, which theta made
        without it (k, k): minus the sum over the curved values of their
        total score times their curvature (0 for an affine map). Where that
        pass did not form a curved value's score (its J row 0 there), one
        more information pass at theta, counted."""
        if curvature is None:
            curvature = self._curvature(theta)
        curved = np.flatnonzero(curvature.any(axis=(1, 2)))
        omega, on, grads, info = self._at
        if any(grads[v] is None for v in curved):
            return self.information(theta)[2] - info
        H = np.zeros_like(info)
        for v in curved:
            H += (omega @ np.where(on, grads[v], 0.0)) * curvature[v]
        return -0.5 * (H + H.T)

    def _evaluate(self, theta, curved=None):
        """information at theta without the map's own curvature, with the
        derivatives in the values `curved` flags too (for _curvature_term).
        The derivatives of the model values in theta come from _theta_map."""
        k = theta.size
        model, J = self._theta_map(theta)
        need = J.any(axis=1) if curved is None else J.any(axis=1) | curved
        # -inf, nan scores and information where a record is impossible or refused
        sunk = -np.inf, np.full((self.n, k), np.nan), np.full((k, k), np.nan)
        try:
            out, f, grads, hess, total = self._on_plan(model, need.tolist())
        except ToleranceError:
            self.n_tolerance_failures += 1
            return sunk
        # d_r as rows: sum_v J[v, j] grads[v] over the v that reach theta_j,
        # in their order, then the second derivatives; each taken as 0 off
        # the weights (where the density is 0 its log's derivatives may not
        # be finite)
        wf = self._w[0] * f
        on = wf != 0.0
        rows = np.empty((k + len(hess), f.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(k):
                dj = 0
                for v in np.flatnonzero(J[:, j]):
                    dj = dj + J[v, j] * grads[v]
                rows[j] = dj
            for row, x in zip(rows[k:], hess.values()):
                row[:] = x
            if not on.all():
                rows[:, ~on] = 0.0
            score = np.take(self._by_record(wf * rows[:k]) / total, self._inverse, axis=1).T
        out = out[self._inverse]
        if not (np.all(np.isfinite(out)) and np.all(np.isfinite(score))):
            return sunk

        # each subject: sum_r omega_r (d_r d_r^T + D_r) - s_i s_i^T, a plan
        # record's nodes weighed by its multiplicity c (L_i / c is L_i's bits
        # for c = 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            omega = np.where(on, wf / (total / self._count)[self._rec], 0.0)
        H = (rows[:k] * omega) @ rows[:k].T
        Hv = np.zeros((len(J), len(J)))
        for (v, w), x in zip(hess, rows[k:] @ omega):
            Hv[v, w] = Hv[w, v] = x
        H += J.T @ Hv @ J
        H -= score.T @ score
        info = -0.5 * (H + H.T)
        # what _curvature_term needs of this pass
        self._at = (omega, on, grads, info)
        return float(out.sum()), score, info

    def _scale(self, theta):
        """Each parameter's scale for its steps: |theta| on the log scale,
        else at least 1."""
        return np.where(self.family.is_log, np.abs(theta), np.maximum(np.abs(theta), 1.0))


# over the whole fit a -inf log-likelihood is a legitimate value: a start
# that gives one (a cum overflowing, say) is rejected, and a trial point
# that meets one is a failed trial, so their warnings carry no news
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def fit_mle(family: ParametricFamily, records: Sequence[PseudoAtomRecord] | StatusCodes,
            C: float, init, *, rel_tol: float = DEFAULT_REL_TOL,
            abs_tol: float = DEFAULT_ABS_TOL) -> FitResult:
    """Maximize the dataset log-likelihood over the family's parameters.

    `init` is a natural-scale vector of the k parameters (or a mapping
    from their names). A starting point with minus-infinite log-likelihood
    is rejected up front, naming the first subject whose record has zero
    probability there. Damped Newton steps in the search variables u on the
    exact observed information (see _ascend): every trial point is one
    information pass, and the standard errors of a converged fit come from
    the last one, with the map's curvature added, by the delta method.
    """
    names = family.param_names
    if isinstance(init, dict):
        unknown = sorted(set(init) - set(names))
        if unknown:
            raise InvalidInputError(f"init: unknown parameters {unknown} "
                                    f"(parameters: {', '.join(names)})")
        missing = [nm for nm in names if nm not in init]
        if missing:
            raise InvalidInputError(f"init missing parameters {missing}")
        init = [init[nm] for nm in names]
    init = np.asarray(init, dtype=float)
    if init.shape != (family.k,):
        raise InvalidInputError(f"init: expected {family.k} parameter values "
                                f"({', '.join(names)}), got shape {init.shape}")
    ev = DatasetEvaluator(family, records, C, rel_tol=rel_tol, abs_tol=abs_tol)
    is_log = family.is_log

    def at(u):
        """A trial point: the log-likelihood, the records' scores and the
        information in u (-inf where the point is impossible). On a log parameter u = log theta, d/du = theta d/dtheta, so
        I_u = D I D - diag(theta s) there (D the diagonal of theta, 1 on the
        others, s the total score in theta)."""
        theta = family.from_search(u)
        if not np.all(np.isfinite(theta)):
            return -np.inf, None, None
        total, score, info = ev.information(theta, curvature=False)
        scale = np.where(is_log, theta, 1.0)
        return (total, score * scale, scale[:, None] * info * scale
                - np.diag(np.where(is_log, theta, 0.0) * score.sum(axis=0)))

    u = family.to_search(init)
    point = at(u)
    if not np.isfinite(point[0]):
        # evaluated again only to name the subject; a ToleranceError raises here
        per0 = ev.per_subject(family.from_search(u))
        bad = int(np.flatnonzero(~np.isfinite(per0))[0])
        raise InvalidStartError(
            f"log-likelihood is {per0[bad]} at the starting point "
            f"(first offending subject: {bad})",
            subject_index=bad,
        )
    u, (loglik, score, info_u), converged, message = _ascend(at, u, point)
    grad_norm = float(np.max(np.abs(score.sum(axis=0))))
    theta_hat = family.from_search(u)

    # standard errors at a converged estimate only, from the information of
    # its pass with the map's own curvature added (its values alone)
    std_errors = None
    if converged:
        scale = np.where(is_log, theta_hat, 1.0)
        info_u = info_u + scale[:, None] * ev._curvature_term(theta_hat) * scale
        se_u = np.full(family.k, np.nan)
        if np.all(np.isfinite(info_u)):
            try:
                se_u = np.sqrt(np.diag(np.linalg.inv(info_u)))
            except np.linalg.LinAlgError:
                pass
        if np.all(np.isfinite(se_u)):
            se_nat = np.where(is_log, theta_hat * se_u, se_u)
            std_errors = dict(zip(family.param_names, se_nat.tolist()))

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


def _solve(A, g):
    """A^-1 g by A's Cholesky factor; None where A is not finite or not
    positive definite."""
    if not np.all(np.isfinite(A)):
        return None
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(L.T, np.linalg.solve(L, g))


def _ascend(at, u, point):
    """Damped Newton ascent from search point u, point = at(u): the
    log-likelihood, the records' scores (n, k) and the information (k, k)
    in u (-inf where u is impossible).

    An iteration solves I delta = g, g the total score, where I is finite
    and positive definite; there the fit has converged once
    g^T I^-1 g <= 1e-12 (Commenges et al. 2006). Elsewhere delta is the
    BHHH step, from sum_i s_i s_i^T. The step is halved until the
    log-likelihood rises by 1e-4 t g^T delta at least (Armijo's rule), 30
    times at most. A fit stops unconverged when it cannot ascend, when a
    -inf trial (an impossible point, or one out of quadrature budget) has
    cut the step of 3 iterations in a row (its optimum lies beyond them),
    or after 200 iterations. Returns the last point's u and at(u), whether it converged
    and why it stopped."""
    blocked, bhhh = 0, 0
    for iteration in range(_MAX_ITERATIONS):
        loglik, score, info = point
        g = score.sum(axis=0)
        newton = _solve(info, g)
        step = _solve(score.T @ score, g) if newton is None else newton
        if step is None:
            return u, point, False, ("newton: neither the information nor the BHHH matrix "
                                     f"is positive definite after {iteration} iteration(s)")
        slope = float(g @ step)
        if newton is not None and slope <= _CONVERGED:
            return u, point, True, (f"newton: converged, g'I^-1 g = {slope:.3g} after "
                                    f"{iteration} iteration(s) ({bhhh} BHHH step(s))")
        bhhh += newton is None
        t, cut = 1.0, False
        for _ in range(_MAX_HALVINGS + 1):
            trial = at(u + t * step)
            if trial[0] >= loglik + 1e-4 * t * slope:
                break
            cut |= trial[0] == -np.inf
            t *= 0.5
        else:
            return u, point, False, (f"newton: no ascent in {_MAX_HALVINGS} step halvings "
                                     f"after {iteration} iteration(s)")
        u, point = u + t * step, trial
        blocked = blocked + 1 if cut else 0
        if blocked == _MAX_BLOCKED:
            return u, point, False, (f"newton: a -inf log-likelihood cut the step of "
                                     f"{_MAX_BLOCKED} iterations in a row, the last of "
                                     f"{iteration + 1}")
    return u, point, False, f"newton: no convergence in {_MAX_ITERATIONS} iterations"
