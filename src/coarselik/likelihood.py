"""Exact observed-data likelihoods for one-jump component models.

The continuous-observation density of a path with jump coordinates s over a
horizon C multiplies the intensity of every component at its own jump time
(components with s_j = C never jumped and contribute no rate factor) by
exp(-Lambda(C)), the total integrated intensity along that history. The
likelihood of a coarse record then integrates this density over the
coordinates the record leaves free:

- an Interval(a, b] component ranges over (a, b],
- a SurvivedBeyond(v) component either jumped unseen in (v, C] or never
  jumped; summing those two cases for every such component expands into
  2^(#survived) terms, each a rectangle integral with some coordinates
  pinned at C (the "corner" terms).

All terms are nonnegative, so the log of their sum is well defined, with
-inf a legitimate value for impossible records rather than an error.

When a pinned jump provably switches another component off (a death-style
gate), that component's range is always cut there: the discarded region
carries zero intensity, so the value is unchanged and panels are saved.
This layout of a record into corner terms, and the density kernel, are
shared with inference.DatasetEvaluator, which falls back to this reference.
Here each term is integrated on the nested adaptive engine, with panels
split at model rate discontinuities, at every pinned jump time, and at the
bounds of the free ranges, so integrand kinks always land on panel edges.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import InconsistentObservationError, InvalidInputError
from .models import IntensityModel, JumpHistory, MultiplicativeComponent, PatternTableComponent
from .observation import Exact, Interval, PseudoAtomRecord, SurvivedBeyond
from .quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_EVALS,
    DEFAULT_REL_TOL,
    Dim,
    integrate_nested,
)


def _density(model: IntensityModel, s, flags, C: float):
    """Density factor: rates at flagged jump times, times exp(-Lambda(C)).

    Coordinates may be scalars or broadcastable arrays. A flag is a bool, or
    a bool array that marks a jump point by point (one row of a batch).
    """
    out = 1.0
    for j, flag in enumerate(flags):
        if isinstance(flag, np.ndarray):
            if flag.any():
                out = out * np.where(flag, model.rate(j, s[j], s), 1.0)
        elif flag:
            out = out * model.rate(j, s[j], s)
    return out * np.exp(-model.total_cum(0.0, C, s))


def f_theta(model: IntensityModel, s, C: float):
    """Normalized joint density at coordinates s; s_j = C means no jump."""
    s = [np.asarray(x, dtype=float) if np.ndim(x) else float(x) for x in s]
    if len(s) != model.p:
        raise InvalidInputError(f"{len(s)} coordinates for {model.p} components")
    for x in s:
        if np.any(np.asarray(x) <= 0) or np.any(np.asarray(x) > C):
            raise InvalidInputError(f"coordinates must lie in (0, {C}]")
    flags = [np.all(np.asarray(x) < C) for x in s]
    for j, x in enumerate(s):
        if np.ndim(x) and not flags[j] and np.any(np.asarray(x) < C):
            raise InvalidInputError("mixed jump/no-jump coordinate arrays are not supported")
    return _density(model, s, flags, C)


def loglik_continuous(model: IntensityModel, history: JumpHistory) -> float:
    """Log density of a completely observed path up to its horizon."""
    if history.p != model.p:
        raise InvalidInputError(f"history has {history.p} components, model has {model.p}")
    C = history.horizon
    times = [t for t, _ in history.times]
    flags = [obs for _, obs in history.times]
    val = _density(model, times, flags, C)
    with np.errstate(divide="ignore"):
        return float(np.log(val))


def _switched_off_by(component, e: int) -> bool:
    """True when component e's jump provably zeroes this intensity."""
    if isinstance(component, MultiplicativeComponent):
        return e in component.gates
    if isinstance(component, PatternTableComponent):
        return all(bits[e] == 0 for bits, _ in component.entries)
    return False


def _layout(model: IntensityModel, atom: PseudoAtomRecord, C: float):
    """The record's corner terms, each as (s, flags, free).

    s holds the pinned coordinates, C for a survivor taken not to have
    jumped (and, as a placeholder, for free ones); flags marks jumps, free
    coordinates included; free lists the (j, lo, hi) ranges, intervals
    first, each cut where a pinned jump switches component j off. Terms
    with an empty range are dropped, so an impossible record has none.
    """
    p = model.p
    if atom.p != p:
        raise InvalidInputError(f"record has {atom.p} components, model has {p}")
    s = [C] * p
    flags = [False] * p
    jumps: list[tuple[int, float]] = []
    ranges: list[tuple[int, float, float, bool]] = []   # (j, lo, hi, survivor)
    for j, st in enumerate(atom.statuses):
        if isinstance(st, Exact):
            if st.observed_jump:
                if not (0 < st.time <= C):
                    raise InvalidInputError(f"component {j}: jump time {st.time} outside (0, {C}]")
                jumps.append((j, st.time))
                s[j] = st.time
                flags[j] = True
            elif st.time != C:
                raise InvalidInputError(
                    f"component {j}: no-jump-by-{st.time} with later times unobserved "
                    "should be SurvivedBeyond"
                )
        elif isinstance(st, Interval):
            if st.upper > C:
                raise InvalidInputError(f"component {j}: interval end {st.upper} beyond {C}")
            ranges.append((j, st.lower, st.upper, False))
        elif isinstance(st, SurvivedBeyond):
            if not (0 <= st.time <= C):
                raise InvalidInputError(f"component {j}: survival time {st.time} outside [0, {C}]")
            ranges.append((j, st.time, C, True))
        else:
            raise InvalidInputError(f"component {j}: unknown status {st!r}")
    if not ranges:
        return [(s, flags, [])]
    free, live = [], []     # ranges of every term; survivors' ranges
    for j, lo, hi, survivor in ranges:
        for e, t in jumps:
            if t < hi and _switched_off_by(model.components[j], e):
                hi = t
        if hi > lo:
            (live if survivor else free).append((j, lo, hi))
            flags[j] = True
        elif not survivor:
            return []
    terms = [(s, flags, free + live)]
    if len(live) == 1:      # the common case, without the combinatorics
        no_jump = flags.copy()
        no_jump[live[0][0]] = False
        return terms + [(s, no_jump, free)]
    for r in range(1, len(live) + 1):
        for pinned in combinations(live, r):
            no_jump = flags.copy()
            for j, _, _ in pinned:
                no_jump[j] = False
            terms.append((s, no_jump, free + [x for x in live if x not in pinned]))
    return terms


def loglik_atom(
    model: IntensityModel,
    atom: PseudoAtomRecord,
    C: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> float:
    """Normalized log-likelihood of one coarse record over horizon C.

    The value exponentiates to the record's probability, as a density in the
    coordinates of components with an observed exact jump time. Each corner
    term is integrated adaptively.
    """
    terms = _layout(model, atom, C)
    # panels split at rate discontinuities, pinned times and range bounds
    cuts = set(model.breakpoints)
    for s, _, free in terms:
        cuts.update(s)
        cuts.update(x for _, lo, hi in free for x in (lo, hi))
    cuts = tuple(sorted(cuts))

    total = 0.0
    for s, flags, free in terms:
        if not free:
            total += float(_density(model, s, flags, C))
            continue

        def integrand(*coords, s=s, flags=flags, order=[j for j, _, _ in free]):
            x = list(s)
            for j, c in zip(order, coords):
                x[j] = c
            val = _density(model, x, flags, C)
            return val if np.ndim(val) else np.full(np.shape(coords[-1]), float(val))

        dims = tuple(Dim(lo, hi, cuts) for _, lo, hi in free)
        total += integrate_nested(integrand, dims, rel_tol=rel_tol, abs_tol=abs_tol,
                                  max_evals=max_evals).value
    with np.errstate(divide="ignore"):
        return float(np.log(max(total, 0.0)))


def conditional_loglik(model: IntensityModel, atom: PseudoAtomRecord, C: float,
                       v0: float, **quad_opts) -> float:
    """Log-likelihood given no component had jumped by v0.

    Statuses incompatible with that conditioning are rejected; interval and
    survival ranges are clipped at v0 (their mass below v0 is impossible
    under the conditioning, and the scheme should not have produced it).
    """
    if not (0 <= v0 < C):
        raise InvalidInputError(f"conditioning time {v0} outside [0, {C})")
    clipped = []
    for j, st in enumerate(atom.statuses):
        if isinstance(st, Exact) and st.observed_jump and st.time <= v0:
            raise InconsistentObservationError(
                f"component {j}: jump at {st.time} contradicts no jumps by {v0}"
            )
        if isinstance(st, Interval):
            if st.upper <= v0:
                raise InconsistentObservationError(
                    f"component {j}: jump in ({st.lower}, {st.upper}] contradicts "
                    f"no jumps by {v0}"
                )
            st = Interval(max(st.lower, v0), st.upper)
        elif isinstance(st, SurvivedBeyond) and st.time < v0:
            st = SurvivedBeyond(v0)
        clipped.append(st)
    base = loglik_atom(model, PseudoAtomRecord(tuple(clipped)), C, **quad_opts)
    no_jumps = [np.inf] * model.p
    return base + float(model.total_cum(0.0, v0, no_jumps))
