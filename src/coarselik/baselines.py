"""Baseline hazard families.

A baseline is a nonnegative rate function of time together with its exact
integrated hazard. All evaluation methods broadcast over numpy arrays, and
`breakpoints` lists the interior times where the rate is discontinuous so
that quadrature panels and ODE solves can align with them. `values` are the
numbers a baseline is built from. rate_terms and cum0_terms take one
argument and return, in one call, the rate (or cum0) and, asked for
`derivatives`, the derivatives of log rate (or of cum0) with respect to
each value, in that order, and their second derivatives: a dict
{(a, b): array}, a <= b, of the entries that are not identically 0. Not
asked, they return None for both and compute nothing for them. rate and
cum0 are their values alone. with_values builds a baseline of the same
family (and grid) from other values. Every value is one real number: an
array is refused.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError


def _real(x, what: str) -> float:
    """A value as a float; anything but one real number (an array, a
    string, a boolean) is refused, `what` naming the value."""
    array = np.asarray(x)
    if array.ndim or array.dtype.kind not in "iuf":
        raise InvalidInputError(f"{what} must be one real number, got {x!r}")
    return float(array)


class Constant:
    """Time-constant rate."""

    def __init__(self, rate: float):
        rate = _real(rate, "constant rate")
        if not (math.isfinite(rate) and rate >= 0):
            raise InvalidInputError(f"constant rate must be finite and >= 0, got {rate}")
        self.value = rate
        self.breakpoints: tuple[float, ...] = ()
        self.time_constant = True

    def rate(self, t):
        return self.rate_terms(t)[0]

    def rate_terms(self, t, derivatives=False):
        rate = np.broadcast_to(np.float64(self.value), np.shape(t)).copy() if np.ndim(t) else self.value
        if not derivatives:
            return rate, None, None
        with np.errstate(divide="ignore"):
            inverse = np.divide(1.0, self.value)
        return rate, [inverse], {(0, 0): -inverse * inverse}

    def cum0(self, t):
        return self.cum0_terms(t)[0]

    def cum0_terms(self, t, derivatives=False):
        cum0 = self.value * np.asarray(t, dtype=float) if np.ndim(t) else self.value * float(t)
        if not derivatives:
            return cum0, None, None
        return cum0, [np.asarray(t, dtype=float)], {}

    def cum(self, t0, t1):
        return self.value * np.maximum(np.asarray(t1, dtype=float) - t0, 0.0)

    @property
    def values(self) -> tuple[float, ...]:
        return (self.value,)

    def with_values(self, values) -> "Constant":
        return Constant(*values)

    def scaled(self, c: float) -> "Constant":
        return Constant(self.value * c)

    def __repr__(self):
        return f"Constant({self.value!r})"


class Weibull:
    """Weibull hazard a*b*t^(b-1) with integrated hazard a*t^b (a, b > 0)."""

    def __init__(self, a: float, b: float):
        a, b = _real(a, "weibull a"), _real(b, "weibull b")
        if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
            raise InvalidInputError(f"weibull parameters must be positive, got a={a}, b={b}")
        self.a = a
        self.b = b
        self.breakpoints: tuple[float, ...] = ()
        self.time_constant = b == 1.0
        # the rate at t <= 0: a where b == 1, a pole where b < 1, else 0
        self._at_0 = a if b == 1.0 else np.inf if b < 1.0 else 0.0

    def rate(self, t):
        return self.rate_terms(t)[0]

    def rate_terms(self, t, derivatives=False):
        t = np.asarray(t, dtype=float)
        # where b == 1 this is a * 1 * t^0, which is a
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(t > 0, self.a * self.b * t ** (self.b - 1.0), self._at_0)
        out = out if out.ndim else float(out)
        if not derivatives:
            return out, None, None
        grads = [1.0 / self.a, 1.0 / self.b + np.log(np.where(t > 0, t, 1.0))]
        return out, grads, {(0, 0): -1.0 / (self.a * self.a), (1, 1): -1.0 / (self.b * self.b)}

    def cum0(self, t):
        return self.cum0_terms(t)[0]

    def cum0_terms(self, t, derivatives=False):
        t = np.asarray(t, dtype=float)
        if not derivatives:
            # one expression: numpy reuses its temporaries on large arrays
            out = self.a * np.maximum(t, 0.0) ** self.b
            return (out if out.ndim else float(out)), None, None
        # one power for the value and its derivatives
        t = np.maximum(t, 0.0)
        power = t ** self.b
        scaled = self.a * power
        out = scaled if scaled.ndim else float(scaled)
        log_t = np.log(np.where(t > 0, t, 1.0))
        grads = [power, scaled * log_t]
        return out, grads, {(0, 1): power * log_t, (1, 1): grads[1] * log_t}

    def cum(self, t0, t1):
        return np.maximum(self.cum0(t1) - self.cum0(t0), 0.0)

    @property
    def values(self) -> tuple[float, ...]:
        return (self.a, self.b)

    def with_values(self, values) -> "Weibull":
        return Weibull(*values)

    def scaled(self, c: float) -> "Weibull":
        return Weibull(self.a * c, self.b)

    def __repr__(self):
        return f"Weibull(a={self.a!r}, b={self.b!r})"


class PiecewiseConstant:
    """Step-function rate: rates[i] on (grid[i-1], grid[i]], last rate beyond.

    grid lists the interior cut points (strictly increasing, > 0); rates has
    one more entry than grid, each a number.
    """

    def __init__(self, grid, rates):
        grid = np.asarray(grid, dtype=float)
        rates = np.array([_real(r, "piecewise rate") for r in rates] if np.iterable(rates) else [])
        if grid.ndim != 1 or len(rates) != grid.size + 1:
            raise InvalidInputError("need len(rates) == len(grid) + 1")
        if grid.size and (np.any(np.diff(grid) <= 0) or grid[0] <= 0 or not np.all(np.isfinite(grid))):
            raise InvalidInputError("grid must be finite, strictly increasing and > 0")
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise InvalidInputError("rates must be finite and >= 0")
        self.grid = grid
        self.rates = rates
        # integrated hazard at each cut point, so cum0 is a local update
        edges = np.concatenate(([0.0], grid))
        self._cum_at_edge = np.concatenate(([0.0], np.cumsum(rates[:-1] * np.diff(edges))))
        self._edges = edges
        self.breakpoints = tuple(grid.tolist())
        self.time_constant = grid.size == 0

    def _index(self, t):
        return np.searchsorted(self.grid, t, side="left")

    def rate(self, t):
        return self.rate_terms(t)[0]

    def rate_terms(self, t, derivatives=False):
        i = self._index(np.asarray(t, dtype=float))
        out = self.rates[i]
        out = out if out.ndim else float(out)
        if not derivatives:
            return out, None, None
        with np.errstate(divide="ignore"):
            inverse = 1.0 / self.rates
        grads = [np.where(i == m, inverse[m], 0.0) for m in range(len(self.rates))]
        return out, grads, {(m, m): -g * g for m, g in enumerate(grads)}

    def cum0(self, t):
        return self.cum0_terms(t)[0]

    def cum0_terms(self, t, derivatives=False):
        t = np.asarray(t, dtype=float)
        i = self._index(t)
        out = self._cum_at_edge[i] + self.rates[i] * (np.maximum(t, 0.0) - self._edges[i])
        out = out if out.ndim else float(out)
        if not derivatives:
            return out, None, None
        # the time (0, t] spends in each piece; cum0 is linear in the rates
        t = np.maximum(t, 0.0)
        ends = np.append(self.grid, np.inf)
        return out, [np.clip(t - self._edges[m], 0.0, ends[m] - self._edges[m])
                     for m in range(len(self.rates))], {}

    def cum(self, t0, t1):
        return np.maximum(self.cum0(t1) - self.cum0(t0), 0.0)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.rates)

    def with_values(self, values) -> "PiecewiseConstant":
        return PiecewiseConstant(self.grid, values)

    def scaled(self, c: float) -> "PiecewiseConstant":
        return PiecewiseConstant(self.grid, self.rates * c)

    def __repr__(self):
        return f"PiecewiseConstant(grid={self.grid.tolist()!r}, rates={self.rates.tolist()!r})"
