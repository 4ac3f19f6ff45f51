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

A component evaluates in two phases. rate_geometry and cum_geometry take
the times alone and build what no parameter value changes: the range cut
at the own jump and the gates, the gate masks, where each modifier (and
each subset of modifiers) switches on, and the filled times a duration
effect scales. rate_at and cum_at apply the parameter values to such a
geometry: baseline rate and cum0, the exp(eta + gamma * T) multipliers and
the offset. rate and cum are the two phases composed; a geometry serves any
component of the same `structure`, so a batch whose times stay fixed (the
nodes of a dataset plan) builds it once and evaluates it per parameter
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=256)
def _subset_table(term_comps: tuple[tuple[int, ...], ...]):
    """The modifier subsets of cum's inclusion-exclusion, in a fixed order;
    for each, the index of its set of components among the distinct sets.
    A subset switches on once all its terms' components have jumped, so
    subsets over the same components share where that happens. Cached:
    a fit builds components of one structure for every theta."""
    subsets = tuple(subset for r in range(1, len(term_comps) + 1)
                    for subset in combinations(range(len(term_comps)), r))
    index: dict[tuple[int, ...], int] = {}
    union_of = tuple(index.setdefault(tuple(sorted({c for m in subset for c in term_comps[m]})),
                                      len(index))
                     for subset in subsets)
    return subsets, union_of, tuple(index)


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
        self._subsets, self._union_of, self._unions = _subset_table(
            tuple(trm.comps for trm in self.terms))

    @property
    def structure(self) -> tuple:
        """What the geometry depends on: every value a theta sets is left out."""
        return (MultiplicativeComponent, self.own, self.gates,
                tuple(trm.comps for trm in self.terms))

    def rate_geometry(self, t, T):
        """The theta-free part of rate(t, T): the product of the gate masks,
        and each modifier's active mask and its component's filled time."""
        t = np.asarray(t, dtype=float) if np.ndim(t) else t
        gates_open = None
        for g in self.gates:
            open_g = T[g] >= t
            gates_open = open_g if gates_open is None else gates_open & open_g
        terms = []
        for trm in self.terms:
            active = True
            for c in trm.comps:
                active = active & (T[c] < t)
            terms.append((active, _filled(T, trm)))
        return t, gates_open, terms

    def rate_at(self, geometry):
        """rate() on a rate_geometry of a component of the same structure."""
        t, gates_open, terms = geometry
        out = self.baseline.rate(t) * np.exp(self.log_offset)
        if gates_open is not None:
            out = out * gates_open
        for trm, (active, Tc) in zip(self.terms, terms):
            if trm.gamma == 0.0:
                mult = np.exp(trm.eta)
            else:
                mult = np.exp(trm.eta + trm.gamma * Tc.value())
            out = out * np.where(active, mult, 1.0)
        return out

    def rate(self, t, T):
        return self.rate_at(self.rate_geometry(t, T))

    def cum_geometry(self, t0, t1, T):
        """The theta-free part of cum(t0, t1, T): the range (lo, hi] cut at
        the own jump and the gates, each modifier's filled time, and where
        the modifiers of each set of components switch on, all clipped at 0
        for cum0. lo is None where t0 <= 0 proves it 0 (cum0(0) is 0)."""
        hi = np.minimum(np.asarray(t1, dtype=float), T[self.own])
        for g in self.gates:
            hi = np.minimum(hi, T[g])
        lo = np.minimum(np.asarray(t0, dtype=float), hi)
        starts = []
        for comps in self._unions:
            tr = T[comps[0]]
            for c in comps[1:]:
                tr = np.maximum(tr, T[c])
            start = np.maximum(tr, lo)
            start = np.minimum(start, hi)
            # a trigger at +inf never activates inside a finite range
            start = np.where(np.isfinite(start), start, hi)
            starts.append(np.maximum(start, 0.0))
        lo_0 = None if np.ndim(t0) == 0 and t0 <= 0 else np.maximum(lo, 0.0)
        return np.maximum(hi, 0.0), lo_0, [_filled(T, trm) for trm in self.terms], starts

    def cum_at(self, geometry):
        """cum() on a cum_geometry of a component of the same structure."""
        hi_0, lo_0, fills, starts = geometry
        bbar = self.baseline.cum0
        coef = []
        for trm, Tc in zip(self.terms, fills):
            if trm.gamma == 0.0:
                c_m = np.exp(trm.eta)
            else:
                c_m = np.exp(trm.eta + trm.gamma * Tc.value())
            coef.append(c_m - 1.0)

        bbar_hi = bbar(hi_0)
        total = bbar_hi if lo_0 is None else bbar_hi - bbar(lo_0)
        increments = [bbar_hi - bbar(start) for start in starts]
        for subset, k in zip(self._subsets, self._union_of):
            cf = coef[subset[0]]
            for m in subset[1:]:
                cf = cf * coef[m]
            total = total + _times_increment(cf, increments[k])
        return total * np.exp(self.log_offset)

    def cum(self, t0, t1, T):
        return self.cum_at(self.cum_geometry(t0, t1, T))


class _FilledTime:
    """A modifier component's jump times with 0 where it never jumped (what
    gamma scales), filled on first use: a term whose gamma stays 0 never
    needs them."""

    __slots__ = ("_T", "_filled")

    def __init__(self, T):
        self._T, self._filled = T, None

    def value(self):
        if self._filled is None:
            self._filled = np.where(np.isfinite(self._T), self._T, 0.0)
        return self._filled


def _filled(T, trm: ModifierTerm):
    """The filled time of a single-component modifier; None for an
    interaction term, whose gamma is 0."""
    return _FilledTime(T[trm.comps[0]]) if len(trm.comps) == 1 else None


def _times_increment(cf, increment):
    """cf * increment, with an increment of 0 contributing 0 also where
    exp(eta) overflowed cf to inf: a term that never switches on adds
    nothing, however large its multiplier."""
    finite = math.isfinite(cf) if np.ndim(cf) == 0 else np.isfinite(cf).all()
    if finite:
        return cf * increment
    out = np.zeros(np.broadcast_shapes(np.shape(cf), np.shape(increment)))
    return np.multiply(cf, increment, out=out, where=increment != 0.0)


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

    @property
    def structure(self) -> tuple:
        """What the geometry depends on: every value a theta sets is left out."""
        return (PatternTableComponent, self.own, tuple(bits for bits, _ in self.entries))

    def rate_geometry(self, t, T):
        """The theta-free part of rate(t, T): each entry's window mask."""
        t = np.asarray(t, dtype=float) if np.ndim(t) else t
        masks = []
        for bits, _ in self.entries:
            enter, exit_ = self._window(bits, T)
            masks.append((enter < t) & (t <= exit_))
        return t, masks

    def rate_at(self, geometry):
        """rate() on a rate_geometry of a component of the same structure."""
        t, masks = geometry
        out = 0.0
        for (_, base), inside in zip(self.entries, masks):
            out = out + base.rate(t) * inside
        return out

    def rate(self, t, T):
        return self.rate_at(self.rate_geometry(t, T))

    def cum_geometry(self, t0, t1, T):
        """The theta-free part of cum(t0, t1, T): each entry's range, clipped
        at 0 for cum0; lo is None where t0 <= 0 and the entry's window opens
        at 0, which prove it 0 (cum0(0) is 0)."""
        hi_own = np.minimum(np.asarray(t1, dtype=float), T[self.own])
        t0_le_0 = np.ndim(t0) == 0 and t0 <= 0
        t0 = np.asarray(t0, dtype=float)
        ranges = []
        for bits, _ in self.entries:
            enter, exit_ = self._window(bits, T)
            lo = np.maximum(t0, enter)
            hi = np.minimum(hi_own, exit_)
            lo = np.minimum(lo, hi)
            lo = np.where(np.isfinite(lo), lo, 0.0)
            hi = np.where(np.isfinite(hi), hi, 0.0)
            opens_at_0 = t0_le_0 and not any(bits)
            ranges.append((np.maximum(hi, 0.0), None if opens_at_0 else np.maximum(lo, 0.0)))
        return ranges

    def cum_at(self, geometry):
        """cum() on a cum_geometry of a component of the same structure."""
        out = 0.0
        for (_, base), (hi_0, lo_0) in zip(self.entries, geometry):
            cum_hi = base.cum0(hi_0)
            out = out + np.maximum(cum_hi if lo_0 is None else cum_hi - base.cum0(lo_0), 0.0)
        return out

    def cum(self, t0, t1, T):
        return self.cum_at(self.cum_geometry(t0, t1, T))


class IntensityModel:
    """Ordered collection of one-jump components sharing a history vector."""

    def __init__(self, components):
        components = tuple(components)
        for j, comp in enumerate(components):
            if comp.own != j:
                raise InvalidInputError(
                    f"component at position {j} declares own index {comp.own}"
                )
        self.components = components
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

    @property
    def structure(self) -> tuple:
        """The components' structures: models that share it share geometry."""
        return tuple(comp.structure for comp in self.components)

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
