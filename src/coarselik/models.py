"""Multivariate jump-intensity models for irreversible event histories.

A model tracks p counting components, each jumping 0 -> 1 at most once. The
intensity of component j may depend on which other components have already
jumped (and when), but never on its own jump: rate(j, t, T) is the pre-jump
intensity given the others' history, and cum(j, t0, t1, T) integrates it over
(t0, t1] cut at component j's own jump time. Histories enter as a vector T of
jump times, with +inf meaning "has not jumped"; only indicators {T_l < t} and
cut points matter, so any time at or beyond the evaluation horizon acts as
"never jumped".

Evaluation broadcasts: t, t0, t1 and the entries of T may be scalars or numpy
arrays of a common broadcast shape. Cumulative hazards of the supplied
baseline families are computed in closed form, not by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidInputError

_MAX_TERMS = 12  # closed-form cum enumerates modifier subsets


@dataclass(frozen=True)
class JumpHistory:
    """Fully observed path up to a horizon.

    times[j] is (t_j, observed_jump_j); unobserved components carry the
    horizon itself as their time stamp.
    """

    times: tuple[tuple[float, bool], ...]
    horizon: float

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise InvalidInputError(f"horizon must be positive and finite, got {self.horizon}")
        for j, (t, obs) in enumerate(self.times):
            if obs:
                if not (0 < t <= self.horizon):
                    raise InvalidInputError(
                        f"component {j}: observed jump time {t} outside (0, {self.horizon}]"
                    )
            elif t != self.horizon:
                raise InvalidInputError(
                    f"component {j}: unobserved time stamp must equal the horizon, got {t}"
                )

    @property
    def p(self) -> int:
        return len(self.times)

    def eval_times(self) -> np.ndarray:
        """Jump-time vector with +inf for components that never jumped."""
        return np.array([t if obs else np.inf for t, obs in self.times])


@dataclass(frozen=True)
class ModifierTerm:
    """Multiplier exp(eta + gamma * T_ref) active once all comps have jumped.

    For a single component, gamma scales that component's own jump time
    (a duration-style log-linear effect). Interaction terms list several
    components and must keep gamma = 0.
    """

    comps: tuple[int, ...]
    eta: float
    gamma: float = 0.0

    def __post_init__(self):
        if not self.comps or len(set(self.comps)) != len(self.comps):
            raise InvalidInputError(f"modifier components must be distinct and non-empty: {self.comps}")
        if not (math.isfinite(self.eta) and math.isfinite(self.gamma)):
            raise InvalidInputError(f"modifier eta and gamma must be finite, "
                                    f"got eta={self.eta}, gamma={self.gamma}")
        if self.gamma != 0.0 and len(self.comps) != 1:
            raise InvalidInputError("time-scaled modifiers apply to a single component only")


def _as_times(T, p: int) -> list:
    if len(T) != p:
        raise InvalidInputError(f"history has {len(T)} entries, model has {p} components")
    return [np.asarray(x, dtype=float) if np.ndim(x) else float(x) for x in T]


class MultiplicativeComponent:
    """baseline(t) * prod(gates open) * prod(active modifier multipliers).

    Gates are indices of components whose jump switches this intensity off
    (factor {T_g >= t}); modifiers switch extra multiplicative factors on.
    """

    def __init__(self, own: int, baseline, gates: tuple[int, ...] = (),
                 terms: tuple[ModifierTerm, ...] = (), log_offset: float = 0.0):
        if len(terms) > _MAX_TERMS:
            raise InvalidInputError(f"too many modifier terms ({len(terms)} > {_MAX_TERMS})")
        if own in gates or any(own in trm.comps for trm in terms):
            raise InvalidInputError(f"component {own} cannot gate or modify itself")
        self.own = own
        self.baseline = baseline
        self.gates = tuple(gates)
        self.terms = tuple(terms)
        self.log_offset = float(log_offset)
        if not math.isfinite(self.log_offset):
            raise InvalidInputError(f"log_offset must be finite, got {self.log_offset}")
        self.breakpoints = tuple(baseline.breakpoints)

    def rate(self, t, T):
        t = np.asarray(t, dtype=float) if np.ndim(t) else t
        out = self.baseline.rate(t) * np.exp(self.log_offset)
        for g in self.gates:
            out = out * (T[g] >= t)
        for trm in self.terms:
            active = True
            for c in trm.comps:
                active = active & (T[c] < t)
            if trm.gamma == 0.0:
                mult = np.exp(trm.eta)
            else:
                Tc = T[trm.comps[0]]
                mult = np.exp(trm.eta + trm.gamma * np.where(np.isfinite(Tc), Tc, 0.0))
            out = out * np.where(active, mult, 1.0)
        return out

    def cum(self, t0, t1, T):
        hi = np.minimum(np.asarray(t1, dtype=float), T[self.own])
        for g in self.gates:
            hi = np.minimum(hi, T[g])
        lo = np.minimum(np.asarray(t0, dtype=float), hi)
        bbar = self.baseline.cum0

        trig, coef = [], []
        for trm in self.terms:
            tr = T[trm.comps[0]]
            for c in trm.comps[1:]:
                tr = np.maximum(tr, T[c])
            if trm.gamma == 0.0:
                c_m = np.exp(trm.eta)
            else:
                Tc = T[trm.comps[0]]
                c_m = np.exp(trm.eta + trm.gamma * np.where(np.isfinite(Tc), Tc, 0.0))
            trig.append(tr)
            coef.append(c_m - 1.0)

        bbar_hi = bbar(np.maximum(hi, 0.0))
        total = bbar_hi - bbar(np.maximum(lo, 0.0))
        for r in range(1, len(self.terms) + 1):
            for subset in combinations(range(len(self.terms)), r):
                tr = trig[subset[0]]
                cf = coef[subset[0]]
                for m in subset[1:]:
                    tr = np.maximum(tr, trig[m])
                    cf = cf * coef[m]
                start = np.maximum(tr, lo)
                start = np.minimum(start, hi)
                # a trigger at +inf never activates inside a finite range
                start = np.where(np.isfinite(start), start, hi)
                total = total + cf * (bbar_hi - bbar(np.maximum(start, 0.0)))
        return total * np.exp(self.log_offset)


class PatternTableComponent:
    """Intensity read off a table keyed by which other components have jumped.

    Keys are 0/1 tuples of length p (own position 0); missing patterns mean
    intensity zero there. Each entry is valid on the time window where the
    path shows exactly that pattern: strictly after every 1-bit's jump, at or
    before every 0-bit's jump.
    """

    def __init__(self, own: int, p: int, table):
        entries = []
        for bits, base in dict(table).items():
            bits = tuple(int(b) for b in bits)
            if len(bits) != p or any(b not in (0, 1) for b in bits):
                raise InvalidInputError(f"pattern {bits} is not a 0/1 tuple of length {p}")
            if bits[own] != 0:
                raise InvalidInputError(f"pattern {bits} sets the component's own bit")
            entries.append((bits, base))
        self.own = own
        self.p = p
        self.entries = tuple(entries)
        bps: set[float] = set()
        for _, base in entries:
            bps.update(base.breakpoints)
        self.breakpoints = tuple(sorted(bps))

    def _window(self, bits, T):
        enter, exit_ = 0.0, np.inf
        for l, b in enumerate(bits):
            if l == self.own:
                continue
            if b:
                enter = np.maximum(enter, T[l])
            else:
                exit_ = np.minimum(exit_, T[l])
        return enter, exit_

    def rate(self, t, T):
        t = np.asarray(t, dtype=float) if np.ndim(t) else t
        out = 0.0
        for bits, base in self.entries:
            enter, exit_ = self._window(bits, T)
            out = out + base.rate(t) * ((enter < t) & (t <= exit_))
        return out

    def cum(self, t0, t1, T):
        hi_own = np.minimum(np.asarray(t1, dtype=float), T[self.own])
        t0 = np.asarray(t0, dtype=float)
        out = 0.0
        for bits, base in self.entries:
            enter, exit_ = self._window(bits, T)
            lo = np.maximum(t0, enter)
            hi = np.minimum(hi_own, exit_)
            lo = np.minimum(lo, hi)
            lo = np.where(np.isfinite(lo), lo, 0.0)
            hi = np.where(np.isfinite(hi), hi, 0.0)
            out = out + np.maximum(base.cum0(np.maximum(hi, 0.0)) - base.cum0(np.maximum(lo, 0.0)), 0.0)
        return out


class IntensityModel:
    """Ordered collection of one-jump components sharing a history vector."""

    def __init__(self, components, params: dict | None = None):
        components = tuple(components)
        for j, comp in enumerate(components):
            if comp.own != j:
                raise InvalidInputError(
                    f"component at position {j} declares own index {comp.own}"
                )
        self.components = components
        self.params = dict(params) if params else {}
        bps: set[float] = set()
        for comp in components:
            bps.update(comp.breakpoints)
        self.breakpoints = tuple(sorted(bps))

    @property
    def p(self) -> int:
        return len(self.components)

    def rate(self, j: int, t, T):
        return self.components[j].rate(t, T)

    def cum(self, j: int, t0, t1, T):
        return self.components[j].cum(t0, t1, T)

    def total_cum(self, t0, t1, T):
        out = 0.0
        for comp in self.components:
            out = out + comp.cum(t0, t1, T)
        return out


def _history_times(history, p: int):
    if isinstance(history, JumpHistory):
        if history.p != p:
            raise InvalidInputError(f"history has {history.p} components, model has {p}")
        return list(history.eval_times())
    return _as_times(history, p)


def intensity_eval(model: IntensityModel, j: int, t, history):
    """Pre-jump intensity of component j at time t given the others' jumps."""
    return model.rate(j, t, _history_times(history, model.p))


def cumulative_intensity(model: IntensityModel, j: int, t0, t1, history):
    """Integrated intensity of component j over (t0, t1], cut at its own jump."""
    return model.cum(j, t0, t1, _history_times(history, model.p))
