"""Maximum likelihood fitting of parametric intensity models.

A ParametricFamily maps a natural-scale parameter vector to a model.
Positive parameters are searched on the log scale (declared via
transforms), which keeps the optimizer unconstrained. The search runs
Nelder-Mead first (robust to the flat, occasionally minus-infinite
landscape of coarse-data likelihoods) and polishes with BFGS on numeric
gradients; standard errors come from a central-difference Hessian at the
optimum, mapped back to the natural scale by the delta method.

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
theta whose model has another structure. An objective evaluation is one
vectorized pass over the geometry that evaluates baselines, modifier
effects and offsets. A record whose embedded lower-order rules miss the
tolerance, or whose nodes would pass max_evals, is computed by loglik_atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidStartError, ToleranceError
from .likelihood import _density_at, _density_geometry, _layout_codes, loglik_atom
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
# the embedded Gauss-7 rule as weights on the 15 Kronrod nodes
_G7_ON_K15 = np.bincount(G_INDEX, G_WEIGHTS, minlength=K_WEIGHTS.size)


@dataclass(frozen=True)
class ParametricFamily:
    """Named parameters, their search transforms, and a model builder."""

    param_names: tuple[str, ...]
    transforms: tuple[str, ...]
    builder: Callable[[np.ndarray], IntensityModel]
    fixed_breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.param_names) != len(self.transforms):
            raise InvalidInputError("one transform per parameter required")
        for tr in self.transforms:
            if tr not in ("log", "identity"):
                raise InvalidInputError(f"unknown transform {tr!r}")

    @property
    def k(self) -> int:
        return len(self.param_names)

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
        u = np.asarray(u, dtype=float)
        theta = u.copy()
        for i, tr in enumerate(self.transforms):
            if tr == "log":
                theta[i] = np.exp(u[i])
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


def _quad_opts(rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = DEFAULT_ABS_TOL,
               max_evals: int = DEFAULT_MAX_EVALS) -> dict:
    """loglik_atom's quadrature options, checked: they also set the panels'
    error check, which needs finite positive tolerances."""
    opts = {"rel_tol": rel_tol, "abs_tol": abs_tol, "max_evals": max_evals}
    if not (all(np.isfinite(x) and x > 0 for x in (rel_tol, abs_tol)) and max_evals >= 1):
        raise InvalidInputError(f"need rel_tol, abs_tol finite > 0, max_evals >= 1: {opts}")
    return opts


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
        self._cache: dict[tuple, float] = {}
        self.n_evaluations = 0
        # objective evaluations whose quadrature budget ran out (scored -inf)
        self.n_tolerance_failures = 0
        if not self.n:
            raise InvalidInputError("empty dataset")
        probe = family.build(family.from_search(np.zeros(family.k)))
        self.p = probe.p
        self._build_plan(probe)

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
        # the density's theta-free arrays on the plan; the plan and they hold
        # for every model of the probe's structure
        self._structure = probe.structure
        self._geometry = _density_geometry(probe, S, F, self.C)

    def per_subject(self, theta) -> np.ndarray:
        """Per-record log-likelihood at natural-scale theta."""
        model = self.family.build(theta)
        n = self.n
        # a builder may change the structure with theta, and with its gates
        # the cuts of the plan: never reuse a plan built for another one
        if model.structure != self._structure:
            self._build_plan(model)
        f = _density_at(model, self._geometry)
        # the K15 sums; the error adds each level's |K15 - G7|
        total, *low = (np.bincount(self._rec, weights=w * f, minlength=n) for w in self._w)
        err = sum(np.abs(total - x) for x in low)
        with np.errstate(divide="ignore"):
            out = np.log(np.maximum(total, 0.0))
        rel_tol, abs_tol = self.quad_opts["rel_tol"], self.quad_opts["abs_tol"]
        redo = self._over_budget | (err > np.maximum(rel_tol * np.abs(total), 100 * abs_tol))
        for i in np.flatnonzero(redo):
            out[i] = loglik_atom(model, self.codes.record(i), self.C, **self.quad_opts)
        return out

    def total(self, theta) -> float:
        key = tuple(np.asarray(theta, dtype=float))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.n_evaluations += 1
        try:
            per = self.per_subject(theta)
        except ToleranceError:
            self.n_tolerance_failures += 1
            per = np.array([-np.inf])
        tot = float(per.sum()) if np.all(np.isfinite(per)) else -np.inf
        if len(self._cache) < 65536:
            self._cache[key] = tot
        return tot


def _numeric_hessian(fn, u, h_scale=1e-4):
    k = u.size
    H = np.empty((k, k))
    h = h_scale * np.maximum(np.abs(u), 1.0)
    f0 = fn(u)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        H[i, i] = (fn(u + ei) - 2 * f0 + fn(u - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                fn(u + ei + ej) - fn(u + ei - ej) - fn(u - ei + ej) + fn(u - ei - ej)
            ) / (4 * h[i] * h[j])
    return H


def fit_mle(family: ParametricFamily, records: Sequence[PseudoAtomRecord] | StatusCodes,
            C: float, init, *, rel_tol: float = 1e-8, abs_tol: float = 1e-12) -> FitResult:
    """Maximize the dataset log-likelihood over the family's parameters.

    `init` is a natural-scale vector (or name-keyed mapping). A starting
    point with minus-infinite log-likelihood is rejected up front, naming
    the first subject whose record has zero probability there. Nelder-Mead
    (2000 iterations, 16000 evaluations at most) hands its best vertex to
    BFGS, whose end point is the estimate and the Hessian's centre.
    """
    if isinstance(init, dict):
        missing = [nm for nm in family.param_names if nm not in init]
        if missing:
            raise InvalidInputError(f"init missing parameters {missing}")
        init = [init[nm] for nm in family.param_names]
    init = np.asarray(init, dtype=float)
    ev = DatasetEvaluator(family, records, C, rel_tol=rel_tol, abs_tol=abs_tol)

    u0 = family.to_search(init)
    if not np.isfinite(ev.total(family.from_search(u0))):
        # evaluated again only to name the subject; a ToleranceError raises here
        per0 = ev.per_subject(family.from_search(u0))
        bad = int(np.flatnonzero(~np.isfinite(per0))[0])
        raise InvalidStartError(
            f"log-likelihood is {per0[bad]} at the starting point "
            f"(first offending subject: {bad})",
            subject_index=bad,
        )

    def objective(u):
        # a finite-difference step off a -inf point can come back nan
        if not np.all(np.isfinite(u)):
            return np.inf
        return -ev.total(family.from_search(u))

    # only a fit needs scipy; importing it at module level slows every command's start-up
    from scipy.optimize import minimize

    # a -inf log-likelihood is a legitimate objective value (+inf); the
    # finite differences and the line search that meet one do inf - inf
    # arithmetic and recover from it, so their warnings carry no news
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nm = minimize(objective, u0, method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000,
                               "maxfev": 16000})
        bfgs = minimize(objective, nm.x, method="BFGS", jac="3-point",
                        options={"gtol": 1e-5, "maxiter": 200})
    grad_norm = float(np.max(np.abs(bfgs.jac))) if bfgs.jac is not None else np.inf
    u_hat = bfgs.x
    theta_hat = family.from_search(u_hat)
    loglik = ev.total(theta_hat)

    H = _numeric_hessian(lambda u: -ev.total(family.from_search(u)), u_hat)
    # a -inf inside the stencil leaves no curvature to invert
    se_u = np.full(family.k, np.nan)
    if np.all(np.isfinite(H)):
        try:
            se_u = np.sqrt(np.diag(np.linalg.inv(H)))
        except np.linalg.LinAlgError:
            pass
    std_errors = None
    if np.all(np.isfinite(se_u)):
        se_nat = se_u.copy()
        for i, tr in enumerate(family.transforms):
            if tr == "log":
                se_nat[i] = theta_hat[i] * se_u[i]
        std_errors = dict(zip(family.param_names, se_nat.tolist()))

    message = f"nelder-mead: {nm.message}; bfgs: {bfgs.message}"
    if ev.n_tolerance_failures:
        message += (f"; {ev.n_tolerance_failures} evaluation(s) ran out of quadrature "
                    "budget and counted as -inf")
    return FitResult(
        theta=dict(zip(family.param_names, theta_hat.tolist())),
        loglik=loglik,
        std_errors=std_errors,
        n_evaluations=ev.n_evaluations,
        converged=bool(nm.success or bfgs.success) and grad_norm < 1e-3,
        grad_norm=grad_norm,
        message=message,
        n_tolerance_failures=ev.n_tolerance_failures,
    )
