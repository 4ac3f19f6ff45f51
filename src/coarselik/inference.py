"""Maximum likelihood fitting of parametric intensity models.

A ParametricFamily maps a natural-scale parameter vector to a model.
Positive parameters are searched on the log scale (declared via
transforms), which keeps the optimizer unconstrained. The search runs
Nelder-Mead first (robust to the flat, occasionally minus-infinite
landscape of coarse-data likelihoods) and polishes with BFGS on numeric
gradients; standard errors come from a central-difference Hessian at the
optimum, mapped back to the natural scale by the delta method.

For datasets whose records have at most one coarse component (the common
panel-plus-death shape), the likelihood is evaluated on precomputed fixed
quadrature panels shared across the whole dataset: node positions depend
only on the data and the family's fixed rate-change points, so each
objective evaluation is a handful of vectorized kernel passes. The embedded
lower-order rule is evaluated on the same nodes; records whose panel error
exceeds the tolerance are recomputed with the adaptive engine, so the fast
path never silently loses accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidInputError, InvalidStartError, ToleranceError
from .likelihood import _parse_atom, _switched_off_by, loglik_atom
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
    free parameters; `quad_opts` (rel_tol, abs_tol, max_evals) mean what
    they mean for loglik_atom, which computes the records the fixed panels
    cannot.
    """
    records = list(records)
    if not records:
        return np.empty(0)
    fixed = ParametricFamily((), (), lambda _: model,
                             fixed_breakpoints=tuple(model.breakpoints))
    return DatasetEvaluator(fixed, records, C, **quad_opts).per_subject(())


def _density_nodes(model, s_arr, flag_arr, C):
    """Vectorized record density at stacked coordinates (p, N)."""
    T_list = list(s_arr)
    out = np.ones(s_arr.shape[1])
    for j in range(s_arr.shape[0]):
        if flag_arr[j].any():
            r = model.rate(j, s_arr[j], T_list)
            out = out * np.where(flag_arr[j], r, 1.0)
    return out * np.exp(-model.total_cum(0.0, C, T_list))


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
        self.p = p = probe.p
        self._gates = [
            [_switched_off_by(probe.components[j], e) for e in range(p)] for j in range(p)
        ]
        self._build_plan()

    def _build_plan(self):
        C, p = self.C, self.p
        exact_s, exact_f, exact_idx = [], [], []
        slow = []           # two or more coarse components -> adaptive engine
        # fast 1-d records: record index, coarse component, whether it adds a
        # no-jump corner term, and the pinned coordinates of the others
        quad_idx, quad_j, quad_corner, quad_s, quad_f = [], [], [], [], []
        # edges between cuts of every fast record's range, and whose they are
        seg_a, seg_b, seg_pos = [], [], []
        breakpoints = self.family.fixed_breakpoints
        for i, rec in enumerate(self.records):
            if rec.p != p:
                raise InvalidInputError(f"record {i} has {rec.p} components, model has {p}")
            exact, interval, survived = _parse_atom(rec, C)
            n_coarse = len(interval) + len(survived)
            if n_coarse > 1:
                slow.append(i)
                continue
            s = [0.0] * p
            fl = [False] * p
            for e, t, f in exact:
                s[e], fl[e] = t, f
            if n_coarse == 0:
                exact_idx.append(i)
                exact_s.append(s)
                exact_f.append(fl)
                continue
            if interval:
                j, lo, hi = interval[0]
                corner = False
            else:
                j, lo = survived[0]
                hi, corner = C, True
            for e, t, f in exact:
                if f and self._gates[j][e]:
                    hi = min(hi, t)
            pos = len(quad_idx)
            quad_idx.append(i)
            quad_j.append(j)
            quad_corner.append(corner)
            quad_s.append(s)
            quad_f.append(fl)
            if hi > lo:
                # fixed panels split at family breakpoints and pinned jump times
                cuts = sorted({c for c in breakpoints if lo < c < hi}
                              | {t for _, t, f in exact if f and lo < t < hi})
                edges = [lo] + cuts + [hi]
                seg_a += edges[:-1]
                seg_b += edges[1:]
                seg_pos += [pos] * (len(edges) - 1)

        self._exact_idx = np.array(exact_idx, dtype=int)
        if exact_idx:
            self._exact_s = np.array(exact_s, dtype=float).T.copy()
            self._exact_f = np.array(exact_f, dtype=bool).T.copy()
        self._slow = slow
        self._quad_idx = np.array(quad_idx, dtype=int)
        self._n_quad = len(quad_idx)
        quad_j = np.array(quad_j, dtype=int)
        quad_s = np.array(quad_s, dtype=float).reshape(-1, p).T
        quad_f = np.array(quad_f, dtype=bool).reshape(-1, p).T

        # subdivide so no panel exceeds _MAX_PANEL; the sub-panel edges are
        # those of np.linspace(a, b, parts + 1), k * step + a with the last
        # one set to b, so the nodes do not depend on how they are built
        a = np.array(seg_a, dtype=float)
        b = np.array(seg_b, dtype=float)
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
        self._node_rec = np.repeat(np.array(seg_pos, dtype=int)[seg], K_NODES.size)
        cols = np.arange(self._node_t.size)
        # np.take keeps the (p, N) arrays C-ordered (x[:, idx] would not):
        # the kernel reads one coordinate row at a time
        self._node_s = np.take(quad_s, self._node_rec, axis=1)
        self._node_s[quad_j[self._node_rec], cols] = self._node_t
        self._node_f = np.take(quad_f, self._node_rec, axis=1)
        self._node_f[quad_j[self._node_rec], cols] = True

        corner = np.flatnonzero(quad_corner)
        if corner.size:
            self._corner_s = np.take(quad_s, corner, axis=1)
            self._corner_s[quad_j[corner], np.arange(corner.size)] = C
            self._corner_f = np.take(quad_f, corner, axis=1)
            self._corner_idx = corner
        else:
            self._corner_s = None

    def per_subject(self, theta) -> np.ndarray:
        """Per-record log-likelihood at natural-scale theta."""
        model = self.family.build(theta)
        out = np.empty(len(self.records))
        if self._exact_idx.size:
            vals = _density_nodes(model, self._exact_s, self._exact_f, self.C)
            with np.errstate(divide="ignore"):
                out[self._exact_idx] = np.log(vals)
        if self._n_quad:
            integrals = np.zeros(self._n_quad)
            errs = np.zeros(self._n_quad)
            if self._node_t.size:
                f = _density_nodes(model, self._node_s, self._node_f, self.C)
                integrals = np.bincount(self._node_rec, weights=self._node_w15 * f,
                                        minlength=self._n_quad)
                low = np.bincount(self._node_rec, weights=self._node_w7 * f,
                                  minlength=self._n_quad)
                errs = np.abs(integrals - low)
            if self._corner_s is not None:
                cvals = _density_nodes(model, self._corner_s, self._corner_f, self.C)
                np.add.at(integrals, self._corner_idx, cvals)
            with np.errstate(divide="ignore"):
                vals = np.log(np.maximum(integrals, 0.0))
            rel_tol, abs_tol = self.quad_opts["rel_tol"], self.quad_opts["abs_tol"]
            bad = errs > np.maximum(rel_tol * np.abs(integrals), 100 * abs_tol)
            out[self._quad_idx] = vals
            for i in np.flatnonzero(bad):
                rec_i = int(self._quad_idx[i])
                out[rec_i] = loglik_atom(model, self.records[rec_i], self.C, **self.quad_opts)
        for i in self._slow:
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

    def f(v):
        return fn(v)

    f0 = f(u)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        H[i, i] = (f(u + ei) - 2 * f0 + f(u - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(u + ei + ej) - f(u + ei - ej) - f(u - ei + ej) + f(u - ei - ej)
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
        val = -ev.total(family.from_search(u))
        if val < best["val"]:
            best["val"] = val
            best["u"] = np.asarray(u, dtype=float).copy()
        return val

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
        try:
            cov = np.linalg.inv(H)
            se_u = np.sqrt(np.diag(cov))
            if np.all(np.isfinite(se_u)):
                se_nat = se_u.copy()
                for i, tr in enumerate(family.transforms):
                    if tr == "log":
                        se_nat[i] = theta_hat[i] * se_u[i]
                std_errors = dict(zip(family.param_names, se_nat.tolist()))
        except np.linalg.LinAlgError:
            std_errors = None

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
