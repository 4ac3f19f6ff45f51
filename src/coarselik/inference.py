"""Maximum likelihood fitting of parametric intensity models.

A ParametricFamily maps a natural-scale parameter vector to a model.
Positive parameters are searched on the log scale (declared via
transforms), which keeps the optimizer unconstrained. The search runs
Nelder-Mead first (robust to the flat, occasionally minus-infinite
landscape of coarse-data likelihoods) and polishes with BFGS on numeric
gradients; standard errors come from a central-difference Hessian at the
optimum, mapped back to the natural scale by the delta method.

Each record is laid out once into the corner terms of likelihood's
expansion. A record with no corner term of two free coordinates (the common
panel-plus-death shape, and records whose extra coarse parts a timed death
cuts away) is evaluated on a plan shared across the whole dataset: a term
with no free coordinate is one density point, a term with one free
coordinate a line of fixed quadrature panels. Node positions depend only on
the data and the family's fixed rate-change points, so each objective
evaluation is two vectorized kernel passes. The embedded lower-order rule
is evaluated on the same nodes; records whose panel error exceeds the
tolerance, and records with a term of two or more free coordinates, are
computed by the adaptive loglik_atom, so the fixed panels never silently
lose accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidInputError, InvalidStartError, ToleranceError
from .likelihood import _density, _layout, loglik_atom
from .models import IntensityModel
from .observation import PseudoAtomRecord
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
_G7_ON_K15 = np.zeros_like(K_WEIGHTS)
_G7_ON_K15[G_INDEX] = G_WEIGHTS


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


def dataset_loglik(model: IntensityModel, records: Sequence[PseudoAtomRecord],
                   C: float, **quad_opts) -> float:
    """Total log-likelihood of independent records under a fixed model."""
    return float(per_subject_loglik(model, records, C, **quad_opts).sum())


def per_subject_loglik(model: IntensityModel, records: Sequence[PseudoAtomRecord],
                       C: float, **quad_opts) -> np.ndarray:
    """Log-likelihood of each record under a fixed model.

    Runs on the dataset plan of DatasetEvaluator, over a family with no
    free parameters: records with no corner term of two free coordinates
    take the fixed panels. `quad_opts` (rel_tol, abs_tol, max_evals) mean
    what they mean for loglik_atom, which computes the records the fixed
    panels cannot.
    """
    records = list(records)
    if not records:
        return np.empty(0)
    fixed = ParametricFamily((), (), lambda _: model,
                             fixed_breakpoints=tuple(model.breakpoints))
    return DatasetEvaluator(fixed, records, C, **quad_opts).per_subject(())


class DatasetEvaluator:
    """Batched log-likelihood of one dataset as a function of theta.

    The quadrature options are those of loglik_atom: they set the error
    check on the fixed panels and are passed to every fallback call.
    """

    def __init__(self, family: ParametricFamily, records: Sequence[PseudoAtomRecord],
                 C: float, rel_tol: float = DEFAULT_REL_TOL,
                 abs_tol: float = DEFAULT_ABS_TOL, max_evals: int = DEFAULT_MAX_EVALS):
        self.family = family
        self.records = list(records)
        self.C = float(C)
        self.quad_opts = {"rel_tol": rel_tol, "abs_tol": abs_tol, "max_evals": max_evals}
        self._cache: dict[tuple, float] = {}
        self.n_evaluations = 0
        # objective evaluations whose quadrature budget ran out (scored -inf)
        self.n_tolerance_failures = 0
        if not self.records:
            raise InvalidInputError("empty dataset")
        probe = family.build(family.from_search(np.zeros(family.k)))
        self.p = probe.p
        self._build_plan(probe)

    def _build_plan(self, probe):
        C, p = self.C, self.p
        slow = []           # a term with two or more free coordinates -> adaptive engine
        # every other term: its record, pinned coordinates, flags, and free
        # range (j, lo, hi), j = -1 for none
        term_rec, term_s, term_f, term_free = [], [], [], []
        no_range = (-1, 0.0, 0.0)
        for i, rec in enumerate(self.records):
            try:
                terms = _layout(probe, rec, C)
            except InvalidInputError as exc:
                raise InvalidInputError(f"record {i}: {exc}") from None
            # the first term leaves every range free
            if terms and len(terms[0][2]) > 1:
                slow.append(i)
                continue
            for s, flags, free in terms:
                term_rec.append(i)
                term_s.append(s)
                term_f.append(flags)
                term_free.append(free[0] if free else no_range)

        self._slow = slow
        rec = np.array(term_rec, dtype=int)
        S = np.array(term_s, dtype=float).reshape(-1, p).T
        F = np.array(term_f, dtype=bool).reshape(-1, p).T
        free = np.array(term_free, dtype=float).reshape(-1, 3)
        point = np.flatnonzero(free[:, 0] < 0)
        line = np.flatnonzero(free[:, 0] >= 0)
        # np.take keeps the (p, N) arrays C-ordered (x[:, idx] would not):
        # the kernel reads one coordinate row at a time
        self._point_rec = rec[point]
        self._point_s = np.take(S, point, axis=1)
        self._point_f = np.take(F, point, axis=1)

        # a line of panels spans its range, split at the family's breakpoints
        # and the term's pinned jump times (a free coordinate holds C, never
        # inside a range); each row of cuts is sorted, repeats and values
        # outside the range set to inf
        lo, hi = free[line, 1:2], free[line, 2:3]
        bps = np.asarray(self.family.fixed_breakpoints, dtype=float)
        cuts = np.concatenate([np.where(F[:, line], S[:, line], np.nan).T,
                               np.broadcast_to(bps, (line.size, bps.size))], axis=1)
        cuts[~((lo < cuts) & (cuts < hi))] = np.inf
        cuts.sort(axis=1)
        cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.inf
        cuts.sort(axis=1)
        left = np.concatenate([lo, cuts], axis=1)
        right = np.concatenate([cuts, hi], axis=1)
        seg_line, col = np.nonzero(np.isfinite(left))
        a = left[seg_line, col]
        b = np.where(np.isfinite(right), right, hi)[seg_line, col]

        # subdivide so no panel exceeds _MAX_PANEL; the sub-panel edges are
        # those of np.linspace(a, b, parts + 1), k * step + a with the last
        # one set to b, so the nodes do not depend on how they are built
        parts = np.maximum(1, np.ceil((b - a) / _MAX_PANEL).astype(int))
        seg = np.repeat(np.arange(a.size), parts)
        k = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
        step = ((b - a) / parts)[seg]
        lo = k * step + a[seg]
        hi = np.where(k + 1 == parts[seg], b[seg], (k + 1) * step + a[seg])
        half = (0.5 * (hi - lo))[:, None]
        self._node_t = ((0.5 * (lo + hi))[:, None] + half * K_NODES).ravel()
        self._node_w15 = (half * K_WEIGHTS).ravel()
        self._node_w7 = (half * _G7_ON_K15).ravel()
        node_term = line[np.repeat(seg_line[seg], K_NODES.size)]
        self._node_rec = rec[node_term]
        self._node_s = np.take(S, node_term, axis=1)
        self._node_s[free[node_term, 0].astype(int), np.arange(node_term.size)] = self._node_t
        self._node_f = np.take(F, node_term, axis=1)

    def per_subject(self, theta) -> np.ndarray:
        """Per-record log-likelihood at natural-scale theta."""
        model = self.family.build(theta)
        n = len(self.records)
        total = np.zeros(n)
        err = np.zeros(n)
        if self._node_t.size:
            f = _density(model, self._node_s, self._node_f, self.C)
            total = np.bincount(self._node_rec, weights=self._node_w15 * f, minlength=n)
            low = np.bincount(self._node_rec, weights=self._node_w7 * f, minlength=n)
            err = np.abs(total - low)
        if self._point_rec.size:
            np.add.at(total, self._point_rec,
                      _density(model, self._point_s, self._point_f, self.C))
        with np.errstate(divide="ignore"):
            out = np.log(np.maximum(total, 0.0))
        rel_tol, abs_tol = self.quad_opts["rel_tol"], self.quad_opts["abs_tol"]
        redo = err > np.maximum(rel_tol * np.abs(total), 100 * abs_tol)
        redo[self._slow] = True
        for i in np.flatnonzero(redo):
            out[i] = loglik_atom(model, self.records[i], self.C, **self.quad_opts)
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


def fit_mle(family: ParametricFamily, records: Sequence[PseudoAtomRecord], C: float,
            init, *, rel_tol: float = 1e-8, abs_tol: float = 1e-12,
            max_iter: int = 2000, compute_se: bool = True) -> FitResult:
    """Maximize the dataset log-likelihood over the family's parameters.

    `init` is a natural-scale vector (or name-keyed mapping). A starting
    point with minus-infinite log-likelihood is rejected up front, naming
    the first subject whose record has zero probability there.
    """
    if isinstance(init, dict):
        missing = [nm for nm in family.param_names if nm not in init]
        if missing:
            raise InvalidInputError(f"init missing parameters {missing}")
        init = [init[nm] for nm in family.param_names]
    init = np.asarray(init, dtype=float)
    ev = DatasetEvaluator(family, records, C, rel_tol=rel_tol, abs_tol=abs_tol)

    u0 = family.to_search(init)
    per0 = ev.per_subject(family.from_search(u0))
    if not np.all(np.isfinite(per0)):
        bad = int(np.flatnonzero(~np.isfinite(per0))[0])
        raise InvalidStartError(
            f"log-likelihood is {per0[bad]} at the starting point "
            f"(first offending subject: {bad})",
            subject_index=bad,
        )

    best = {"u": u0.copy(), "val": -ev.total(family.from_search(u0))}

    def objective(u):
        # a finite-difference step off a -inf point can come back nan
        if not np.all(np.isfinite(u)):
            return np.inf
        val = -ev.total(family.from_search(u))
        if val < best["val"]:
            best["val"] = val
            best["u"] = np.asarray(u, dtype=float).copy()
        return val

    # a -inf log-likelihood is a legitimate objective value (+inf); the
    # finite differences and the line search that meet one do inf - inf
    # arithmetic and recover from it, so their warnings carry no news
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nm = minimize(objective, u0, method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": max_iter,
                               "maxfev": 8 * max_iter})
        bfgs = minimize(objective, best["u"], method="BFGS", jac="3-point",
                        options={"gtol": 1e-5, "maxiter": 200})
    grad_norm = float(np.max(np.abs(bfgs.jac))) if bfgs.jac is not None else np.inf
    u_hat = best["u"]
    theta_hat = family.from_search(u_hat)
    loglik = ev.total(theta_hat)

    std_errors = None
    if compute_se:
        H = _numeric_hessian(lambda u: -ev.total(family.from_search(u)), u_hat)
        # a -inf inside the stencil leaves no curvature to invert
        se_u = np.full(family.k, np.nan)
        if np.all(np.isfinite(H)):
            try:
                se_u = np.sqrt(np.diag(np.linalg.inv(H)))
            except np.linalg.LinAlgError:
                pass
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
