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
vector. `values` lists the numbers a component is built from (its
baselines' values, each modifier's eta and gamma, the offset). rate_at and
cum_at return a triple: the value; with a `need` mask (a bool per value)
the derivatives of log rate and of cum with respect to each value it
flags, in that order, None for the others; and their second derivatives
in the flagged values, {(a, b): array}, a <= b, holding the pairs that are
not identically 0 (log rate is linear in all but the baseline's values).
Without a `need` both derivative items are None. The baselines give theirs
for each argument in one call, with the value, so a Weibull power is taken
once an argument. with_values gives a component or model of the same
structure other values.

A multiplicative component's cum is a sum over the subsets S of its
modifiers, linear in each modifier's multiplier c_m: cum_at gives it and
every derivative from one walk over pairs (S, D), D the at most two
modifiers of S whose etas it differentiates (c_m in place of c_m - 1).

Every value is one real number, as a baseline's: an array is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from .baselines import Constant, _real
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
        object.__setattr__(self, "eta", _real(self.eta, "modifier eta"))
        object.__setattr__(self, "gamma", _real(self.gamma, "modifier gamma"))
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
def _subset_table(term_comps: tuple[tuple[int, ...], ...], n_base: int):
    """What cum_at walks, for modifiers over term_comps and a baseline of
    n_base values. First each nonempty modifier subset S, in a fixed order,
    as (k, marked): k indexes S's components among the distinct sets
    (subsets over the same components switch on at the same time), and
    marked lists S's sets D of at most two modifiers, the empty one first,
    each as the positions of its product's factors in [*c, *(c - 1)] and
    the indices of D's etas among the values. Then the distinct sets, and
    the keys of cum's derivatives in the order cum_at gives them: the
    information's rows follow it, and a BLAS product may round a row by
    its position. Cached: a fit builds components of one structure for
    every theta."""
    n = len(term_comps)
    etas = range(n_base, n_base + 2 * n, 2)
    index: dict[tuple[int, ...], int] = {}
    table = []
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            union = tuple(sorted({c for m in subset for c in term_comps[m]}))
            marked = tuple(((*D, *(n + o for o in subset if o not in D)), tuple(etas[m] for m in D))
                           for size in range(3) for D in combinations(subset, size))
            table.append((index.setdefault(union, len(index)), marked))
    keys = ([(b,) for b in range(n_base)] + list(combinations_with_replacement(range(n_base), 2))
            + [(e,) for e in etas] + list(combinations(etas, 2))
            + [(b, e) for e in etas for b in range(n_base)])
    return tuple(table), tuple(index), tuple(keys)


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
        self.log_offset = _real(log_offset, "log_offset")
        if not math.isfinite(self.log_offset):
            raise InvalidInputError(f"log_offset must be finite, got {self.log_offset}")
        self.breakpoints = tuple(baseline.breakpoints)
        self._subsets, self._unions, self._keys = _subset_table(
            tuple(trm.comps for trm in self.terms), len(baseline.values))

    @property
    def structure(self) -> tuple:
        """What the component is built from besides its values: the geometry
        depends on nothing else, and with_values keeps it."""
        return (MultiplicativeComponent, self.own, self.gates,
                tuple(trm.comps for trm in self.terms),
                type(self.baseline), self.baseline.breakpoints)

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

    def rate_at(self, geometry, need=None):
        """rate() on a rate_geometry of a component of the same structure,
        and the first and second derivatives of its log that `need` flags:
        the baseline's, each modifier's active mask (eta) and that times its
        filled time (gamma), and 1 (the offset); log rate is linear in all
        but the baseline's values. Where a gate is closed they are those of
        the open rate."""
        t, gates_open, terms = geometry
        n_base = len(self.baseline.values)
        rate, base_grads, base_hess = self.baseline.rate_terms(
            t, need is not None and any(need[:n_base]))
        out = rate * np.exp(self.log_offset)
        if gates_open is not None:
            out = out * gates_open
        for trm, (active, Tc) in zip(self.terms, terms):
            out = out * np.where(active, _multiplier(trm, Tc), 1.0)
        if need is None:
            return out, None, None
        grads = (_wanted(base_grads, need[:n_base])
                 + _term_grads([active for active, _ in terms], [Tc for _, Tc in terms],
                               need[n_base:-1])
                 + [1.0 if need[-1] else None])
        return out, grads, _wanted_pairs(base_hess or {}, need)

    def rate(self, t, T):
        return self.rate_at(self.rate_geometry(t, T))[0]

    @property
    def values(self) -> tuple[float, ...]:
        return (*self.baseline.values,
                *(x for trm in self.terms for x in (trm.eta, trm.gamma)), self.log_offset)

    def with_values(self, values) -> "MultiplicativeComponent":
        n = len(self.baseline.values)
        terms = tuple(ModifierTerm(trm.comps, eta, gamma) for trm, eta, gamma
                      in zip(self.terms, values[n:-1:2], values[n + 1:-1:2]))
        return MultiplicativeComponent(self.own, self.baseline.with_values(values[:n]),
                                       self.gates, terms, values[-1])

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

    def cum_at(self, geometry, need=None):
        """cum() on a cum_geometry of a component of the same structure, and
        its first and second derivatives that `need` flags.

        cum is exp(offset) sum_S P_S I_S over the modifier subsets S, the
        empty one included: P_S = prod_{m in S} (c_m - 1), c_m = exp(eta_m +
        gamma_m T_m), and I_S = B(hi) - B(start_S), B the baseline's cum0 and
        start_S where S switches on (lo for the empty S). cum is linear in
        each c_m, and c_m is its own derivative in eta_m, so its derivative
        in the etas of a set D of at most two modifiers is the same sum over
        the S that hold D, with c_m in place of c_m - 1 for each m in D; in
        the baseline's values each I_S gives its own derivatives. One walk
        over the pairs (S, D) forms them all. A derivative in gamma_m is
        that in eta_m times T_m, and one in the offset is the function
        itself."""
        hi_0, lo_0, fills, starts = geometry
        n_base = len(self.baseline.values)
        need_base = need_terms = False
        if need is not None:
            need_base, need_terms = any(need[:n_base]), any(need[n_base:-1])
        # one baseline call per argument: cum0, and its derivatives as needed
        at_hi = self.baseline.cum0_terms(hi_0, need_base)
        increments = [_increment(at_hi, self.baseline.cum0_terms(start, need_base))
                      for start in starts]
        # sums[key]: the derivative of cum / exp(offset) in the values key
        # names, baseline values and modifiers' etas; () is the function
        sums = _increment(at_hi, None if lo_0 is None else self.baseline.cum0_terms(lo_0, need_base))
        mult = [_multiplier(trm, Tc) for trm, Tc in zip(self.terms, fills)]
        factors = mult + [c - 1.0 for c in mult]
        for k, marked in self._subsets:
            for positions, etas in marked if need_terms else marked[:1]:
                product = factors[positions[0]]
                for p in positions[1:]:
                    product = product * factors[p]
                for marks, x in increments[k].items():
                    if len(marks) + len(etas) <= 2:
                        key = marks + etas
                        sums[key] = sums.get(key, 0.0) + _times_increment(product, x)
        scale = np.exp(self.log_offset)
        total = sums.pop(()) * scale
        if need is None:
            return total, None, None

        def values(v):
            """The values a key's entry v stands for, with their factors: a
            baseline value; an eta, and its gamma times the filled time."""
            Tc = fills[(v - n_base) // 2] if v >= n_base else None
            return ((v, None),) if Tc is None else ((v, None), (v + 1, Tc.value()))

        first, hess = [None] * len(need), {}
        for key in self._keys:
            if key not in sums:
                continue
            x = sums[key] * scale
            if len(key) == 1:
                for v, factor in values(key[0]):
                    first[v] = x if factor is None else x * factor
            # c_m is its own derivative, so an eta's second is its first
            if len(key) == 2 or key[0] >= n_base:
                u, w = key if len(key) == 2 else key * 2
                for a, fa in values(u):
                    for b, fb in values(w):
                        if a <= b and need[a] and need[b]:
                            y = x if fa is None else x * fa
                            hess[a, b] = y if fb is None else y * fb
        off = len(need) - 1
        if need[off]:
            hess.update(((v, off), x) for v, x in enumerate(first) if x is not None and need[v])
            hess[off, off] = total
        first[off] = total
        # a flagged value left without a derivative is an interaction
        # term's gamma, which stays 0
        return total, [(0.0 if x is None else x) if wanted else None
                       for x, wanted in zip(first, need)], hess

    def cum(self, t0, t1, T):
        return self.cum_at(self.cum_geometry(t0, t1, T))[0]


def _wanted(grads, need):
    """The derivatives that need flags, None for the others (all None
    where grads is None: none was asked)."""
    if grads is None:
        return [None] * len(need)
    return [g if wanted else None for g, wanted in zip(grads, need)]


def _wanted_pairs(hess, need, start=0):
    """The second derivatives {(a, b): x} of pairs need flags both of,
    their keys moved on by start."""
    return {(start + a, start + b): x for (a, b), x in hess.items() if need[a] and need[b]}


def _increment(upper, lower):
    """B(hi) - B(x) from the cum0_terms of hi and of x, as a new dict
    {key: array}: () the value, (b,) its derivative in the baseline's value
    b and (a, b) its second derivative in values a and b; hi's alone where
    lower is None (x is 0)."""
    value, grads, hess = upper
    if lower is not None:
        value = value - lower[0]
        if grads is not None:
            grads = [g - l for g, l in zip(grads, lower[1])]
            hess = {key: x - lower[2][key] for key, x in hess.items()}
    out = {(): value}
    if grads is not None:
        out.update(((b,), g) for b, g in enumerate(grads))
        out.update(hess)
    return out


def _term_grads(d_eta, fills, need):
    """Each modifier's derivatives, those need flags and None for the
    others, from those in its eta: in its gamma they are those times its
    filled time, and 0 for an interaction term."""
    out = []
    for m, (d, Tc) in enumerate(zip(d_eta, fills)):
        out += [d if need[2 * m] else None,
                None if not need[2 * m + 1] else 0.0 if Tc is None else d * Tc.value()]
    return out


def _multiplier(trm: ModifierTerm, Tc):
    """exp(eta + gamma * T) of a modifier, T its filled time: exp(eta)
    where gamma is 0, with no filled time formed."""
    if trm.gamma == 0.0:
        return np.exp(trm.eta)
    return np.exp(trm.eta + trm.gamma * Tc.value())


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
    with np.errstate(invalid="ignore"):
        return np.where(increment != 0.0, cf * increment, 0.0)


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
        """What the component is built from besides its values: the geometry
        depends on nothing else, and with_values keeps it."""
        return (PatternTableComponent, self.own,
                tuple((bits, type(base), base.breakpoints) for bits, base in self.entries))

    def rate_geometry(self, t, T):
        """The theta-free part of rate(t, T): each entry's window mask."""
        t = np.asarray(t, dtype=float) if np.ndim(t) else t
        masks = []
        for bits, _ in self.entries:
            enter, exit_ = self._window(bits, T)
            masks.append((enter < t) & (t <= exit_))
        return t, masks

    def rate_at(self, geometry, need=None):
        """rate() on a rate_geometry of a component of the same structure,
        and the first and second derivatives of its log that `need` flags.
        At most one entry's window holds a time, and there they are its
        baseline's."""
        t, masks = geometry
        out = 0.0
        grads, hess = (None, None) if need is None else ([], {})
        for (_, base), inside, wanted, start in zip(self.entries, masks, self._split(need),
                                                    self._starts()):
            rate, d, h = base.rate_terms(t, wanted is not None and any(wanted))
            out = out + rate * inside
            if wanted is not None:
                grads += [None if g is None else np.where(inside, g, 0.0)
                          for g in _wanted(d, wanted)]
                for key, x in _wanted_pairs(h or {}, wanted, start).items():
                    hess[key] = np.where(inside, x, 0.0)
        return out, grads, hess

    def rate(self, t, T):
        return self.rate_at(self.rate_geometry(t, T))[0]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(x for _, base in self.entries for x in base.values)

    def with_values(self, values) -> "PatternTableComponent":
        return PatternTableComponent(self.own, self.p, {
            bits: base.with_values(part) for (bits, base), part in zip(self.entries, self._split(values))})

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

    def cum_at(self, geometry, need=None):
        """cum() on a cum_geometry of a component of the same structure, and
        its first and second derivatives that `need` flags."""
        out = 0.0
        grads, hess = (None, None) if need is None else ([], {})
        for (_, base), (hi_0, lo_0), wanted, start in zip(self.entries, geometry,
                                                          self._split(need), self._starts()):
            derivatives = wanted is not None and any(wanted)
            parts = _increment(base.cum0_terms(hi_0, derivatives),
                               None if lo_0 is None else base.cum0_terms(lo_0, derivatives))
            out = out + np.maximum(parts[()], 0.0)
            if wanted is not None:
                grads += [parts[b,] if flag else None for b, flag in enumerate(wanted)]
                hess.update(((start + key[0], start + key[1]), x) for key, x in parts.items()
                            if len(key) == 2 and wanted[key[0]] and wanted[key[1]])
        return out, grads, hess

    def cum(self, t0, t1, T):
        return self.cum_at(self.cum_geometry(t0, t1, T))[0]

    def _starts(self):
        """Where each entry's values start among the component's."""
        starts, start = [], 0
        for _, base in self.entries:
            starts.append(start)
            start += len(base.values)
        return starts

    def _split(self, need):
        """need (or values) cut into the entries' parts, one per baseline;
        None each without one."""
        if need is None:
            return [None] * len(self.entries)
        return [need[start:start + len(base.values)]
                for (_, base), start in zip(self.entries, self._starts())]


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
        """The components' structures: models that share it share geometry,
        and differ in their values alone."""
        return tuple(comp.structure for comp in self.components)

    @property
    def values(self) -> np.ndarray:
        """The components' values, one after another (V,)."""
        return np.array([x for comp in self.components for x in comp.values])

    @property
    def time_homogeneous(self) -> bool:
        """Whether every intensity is constant between jumps: each component
        multiplies a Constant baseline, or reads a table of Constant entries.
        Gates, modifiers (gamma included) and offsets read past jumps only,
        so after a path's last jump its rates do not change."""
        return all(isinstance(comp.baseline, Constant)
                   if isinstance(comp, MultiplicativeComponent)
                   else all(isinstance(base, Constant) for _, base in comp.entries)
                   for comp in self.components)

    @property
    def rates_by_pattern(self) -> bool:
        """Whether every intensity is a function of which components have
        jumped alone: time homogeneous, with every modifier's gamma 0 (a
        gamma scales a jump's time)."""
        return self.time_homogeneous and all(
            trm.gamma == 0.0 for comp in self.components
            if isinstance(comp, MultiplicativeComponent) for trm in comp.terms)

    def with_values(self, values) -> "IntensityModel":
        """The model of this structure with other values (V,)."""
        values = np.asarray(values, dtype=float)
        parts, start = [], 0
        for comp in self.components:
            parts.append(comp.with_values(values[start:start + len(comp.values)]))
            start += len(comp.values)
        return IntensityModel(parts)

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
