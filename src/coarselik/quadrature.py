"""Deterministic adaptive quadrature on half-open intervals.

Panels use the 15-point Kronrod extension of 7-point Gauss-Legendre, so every
panel carries an embedded lower-order estimate and the error bound is the
usual |K15 - G7| difference. All nodes are interior, which is what makes the
half-open (a, b] convention of the calling code safe: integrands are never
evaluated at interval endpoints, where indicator factors may jump.

Refinement bisects the worst panel first (ties broken by insertion order), so
results are bit-reproducible for identical inputs. Integrands must accept a
numpy array of abscissae and return an array of the same shape.

Panels never straddle a supplied breakpoint, and nested integrals over boxes
additionally split every inner dimension at each outer variable's current
value, which keeps diagonal kinks of indicator-laden integrands on panel edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidInputError, ToleranceError

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (classical QUADPACK constants; verified in tests against leggauss and by
# exact integration of monomials up to degree 22).
_P = np.array([
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WP = np.array([
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_W0 = 0.209482141084727828012999174891714

K_NODES = np.concatenate([-_P[::-1], [0.0], _P])
K_WEIGHTS = np.concatenate([_WP[::-1], [_W0], _WP])
# Gauss-7 lives on every second Kronrod node.
G_INDEX = np.arange(1, 15, 2)
_GW = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
G_WEIGHTS = np.concatenate([_GW[:3], [_GW[3]], _GW[:3][::-1]])

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12
DEFAULT_MAX_EVALS = 100_000


class QuadResult(NamedTuple):
    value: float
    error: float
    evaluations: int


class _Budget:
    """Shared evaluation counter for one (possibly nested) integral."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.used = 0

    def charge(self, n: int) -> bool:
        if self.used + n > self.limit:
            return False
        self.used += n
        return True


def _eval_panel(f, lo, hi, budget, inner_err_of=None):
    """One GK15 pass over [lo, hi]; returns (value, err, inner_err)."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * K_NODES
    if not budget.charge(x.size):
        raise _BudgetExhausted
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise InvalidInputError("integrand must return an array matching its input shape")
    bad = ~np.isfinite(y)
    if bad.any():
        raise DomainError(f"integrand returned {y[bad][0]!r} at t={x[bad][0]!r}", abscissa=float(x[bad][0]))
    resk = half * float(K_WEIGHTS @ y)
    resg = half * float(G_WEIGHTS @ y[G_INDEX])
    err = abs(resk - resg)
    # never report below a few ulps of the panel value
    err = max(err, abs(resk) * 1e-15)
    inner = half * float(K_WEIGHTS @ inner_err_of(x)) if inner_err_of is not None else 0.0
    return resk, err, inner


class _BudgetExhausted(Exception):
    pass


def _adaptive(f, a, b, breakpoints, rel_tol, abs_tol, budget, inner_err_of=None):
    """Adaptive bisection refinement; returns (value, quad_err, inner_err)."""
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidInputError(f"integration bounds must be finite, got ({a}, {b})")
    if b < a:
        raise InvalidInputError(f"integration bounds must be ordered, got ({a}, {b})")
    if b == a:
        return 0.0, 0.0, 0.0
    edges = [a] + sorted({float(c) for c in breakpoints if a < c < b}) + [b]

    heap: list = []
    seq = 0
    total = 0.0
    total_err = 0.0
    total_inner = 0.0
    covered = False  # every initial panel is in the totals

    def push(lo, hi, panel):
        nonlocal seq, total, total_err, total_inner
        val, err, inner = panel
        heapq.heappush(heap, (-err, seq, lo, hi, val, err, inner))
        seq += 1
        total += val
        total_err += err
        total_inner += inner

    try:
        for lo, hi in zip(edges[:-1], edges[1:]):
            push(lo, hi, _eval_panel(f, lo, hi, budget, inner_err_of))
        covered = True
        while total_err > max(abs_tol, rel_tol * abs(total)):
            neg_err, _, lo, hi, val, err, inner = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                # panel at floating-point resolution; keep its contribution
                heapq.heappush(heap, (0.0, seq, lo, hi, val, err, inner))
                seq += 1
                if all(item[0] == 0.0 for item in heap):
                    raise _BudgetExhausted
                continue
            # both halves are evaluated before the parent leaves the totals,
            # so a budget that runs out here leaves them whole
            left = _eval_panel(f, lo, mid, budget, inner_err_of)
            right = _eval_panel(f, mid, hi, budget, inner_err_of)
            total -= val
            total_err -= err
            total_inner -= inner
            push(lo, mid, left)
            push(mid, hi, right)
    except _BudgetExhausted:
        bound = total_err + total_inner if covered else np.inf
        raise ToleranceError(
            f"quadrature tolerance not reached within {budget.limit} evaluations "
            f"(estimate {total!r}, error bound {bound!r})",
            value=total,
            error_estimate=bound,
        ) from None
    return total, total_err, total_inner


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    breakpoints: Sequence[float] = (),
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadResult:
    """Integrate a vectorized integrand over (a, b].

    Raises ToleranceError (carrying the best estimate) when the requested
    accuracy cannot be met within `max_evals` point evaluations, and
    DomainError when the integrand produces a non-finite value. The error
    bound it carries is infinite if the budget ran out before every panel
    between breakpoints had been evaluated once.
    """
    budget = _Budget(max_evals)
    value, err, _ = _adaptive(f, a, b, breakpoints, rel_tol, abs_tol, budget)
    return QuadResult(value, err, budget.used)


@dataclass(frozen=True)
class Dim:
    """One integration variable over constant bounds (lower, upper].
    `breakpoints` are fixed interior cut candidates; the current values of all
    outer variables are always added as cuts too, so diagonal kinks land on
    panel edges."""

    lower: float
    upper: float
    breakpoints: tuple[float, ...] = ()


def integrate_nested(
    f: Callable[..., np.ndarray],
    dims: Sequence[Dim],
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadResult:
    """Iterated integral of f over a box of dimensions, outermost first.

    f is called as f(x_0, ..., x_{k-1}, x_last) with scalar outer coordinates
    and a numpy array in the last (innermost) position; integration runs
    innermost-first. The evaluation budget is shared across all levels; the
    reported error adds the outer quadrature bound and the integrated bounds
    of every inner level (a conservative sum). A ToleranceError, wherever
    the budget ran out, carries the outermost level's estimate of the whole
    integral and its bound, as integrate_1d's does.
    """
    dims = tuple(dims)
    if not dims:
        raise InvalidInputError("region needs at least one dimension")
    budget = _Budget(max_evals)
    n = len(dims)
    # inner levels run at a tighter relative tolerance so their accumulated
    # bound does not swamp the outer target
    rel_inner = rel_tol / (2.0 ** (n - 1)) if n > 1 else rel_tol
    abs_inner = abs_tol / (2.0 ** (n - 1)) if n > 1 else abs_tol

    def level(k: int, outer: tuple) -> tuple[float, float]:
        dim = dims[k]
        cuts = (*dim.breakpoints, *outer)
        rel = rel_tol if k == 0 else rel_inner
        ab = abs_tol if k == 0 else abs_inner
        if k == n - 1:
            def fx(x):
                return f(*outer, x)
            val, qerr, _ = _adaptive(fx, dim.lower, dim.upper, cuts, rel, ab, budget)
            return val, qerr
        err_box: dict = {}

        def fx(x):
            vals = np.empty_like(x)
            errs = np.empty_like(x)
            for i, xi in enumerate(x):
                try:
                    vals[i], errs[i] = level(k + 1, outer + (float(xi),))
                except ToleranceError:
                    # the shared budget ran out inside: this level reports
                    # its own totals, which estimate the whole integral
                    raise _BudgetExhausted from None
            err_box[x.tobytes()] = errs
            return vals

        def inner_err_of(x):
            return err_box.pop(x.tobytes())

        val, qerr, ierr = _adaptive(fx, dim.lower, dim.upper, cuts, rel, ab, budget, inner_err_of)
        return val, qerr + ierr

    value, err = level(0, ())
    return QuadResult(value, err, budget.used)
