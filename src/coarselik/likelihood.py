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
One function, _layout_codes, lays records out into these corner terms, a
whole coded cohort at once, for inference.DatasetEvaluator's plan, which
refines its own panels where a record misses the tolerance. That plan is the
one likelihood engine: loglik_atom and conditional_loglik run on it, one
record a plan.
The kernel runs in the two phases of the model components: its geometry
(rate geometries at the flagged jumps, cum geometries over (0, C]) depends
on the coordinates alone, so the evaluator builds it once per plan and
evaluates it per theta with _density_at, one walk that gives the density
and, in the values a caller needs, the first and second derivatives of its
log (from those of the log rates and the cums each component returns
beside its value); _density composes both phases for one set of
coordinates.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DomainError, InconsistentObservationError, InvalidInputError, InvalidRecordError
from .models import IntensityModel, JumpHistory, MultiplicativeComponent, PatternTableComponent
from .observation import Exact, Interval, PseudoAtomRecord, SurvivedBeyond
from .quadrature import DEFAULT_ABS_TOL, DEFAULT_MAX_EVALS, DEFAULT_REL_TOL


def _density_geometry(model: IntensityModel, s, flags, C: float):
    """The theta-free part of _density: for each component with a flagged
    jump, its flags and its rate geometry at its own coordinate, and each
    component's cum geometry over (0, C].

    Coordinates may be scalars or broadcastable arrays. A flag is a bool, or
    a bool array that marks a jump point by point (one row of a batch).
    """
    rates = []
    for j, flag in enumerate(flags):
        if isinstance(flag, np.ndarray):
            if flag.any():
                rates.append((j, flag, model.components[j].rate_geometry(s[j], s)))
        elif flag:
            rates.append((j, None, model.components[j].rate_geometry(s[j], s)))
    return rates, [comp.cum_geometry(0.0, C, s) for comp in model.components]


def _density_at(model: IntensityModel, geometry, need=None):
    """_density on a _density_geometry of a model of the same structure,
    and the first and second derivatives of its log with respect to the
    model.values that `need` flags, a bool each (both None without a
    `need`). The first are a list, None for a value not flagged: each
    flagged rate's log-derivative minus each cum's derivative. Where a
    flagged rate is 0 the density is 0 and a derivative may not be finite.
    The second are {(v, w): array}, v <= w, of the flagged pairs that are
    not identically 0; a value belongs to one component, so only pairs
    within a component appear."""
    rates, cums = geometry
    needs, starts, start = [None] * model.p, [0] * model.p, 0
    for j, comp in enumerate(model.components if need is not None else ()):
        needs[j], starts[j] = need[start:start + len(comp.values)], start
        start += len(needs[j])
    total_cum, grads, hess = 0.0, [], {}
    for comp, g, wanted, start in zip(model.components, cums, needs, starts):
        cum, d, h = comp.cum_at(g, wanted)
        total_cum = total_cum + cum
        grads.append(d and [None if x is None else -x for x in d])
        for (a, b), x in (h or {}).items():
            hess[start + a, start + b] = -x
    out = 1.0
    for j, flag, g in rates:
        rate, d, h = model.components[j].rate_at(g, needs[j])
        out = out * (rate if flag is None else np.where(flag, rate, 1.0))
        for m, x in enumerate(d or ()):
            if x is not None:
                grads[j][m] = grads[j][m] + (x if flag is None else np.where(flag, x, 0.0))
        for (a, b), x in (h or {}).items():
            key = (starts[j] + a, starts[j] + b)
            x = x if flag is None else np.where(flag, x, 0.0)
            hess[key] = hess[key] + x if key in hess else x
    f = out * np.exp(-total_cum)
    if need is None:
        return f, None, None
    return f, [x for d in grads for x in d], hess


def _density(model: IntensityModel, s, flags, C: float):
    """Density factor: rates at flagged jump times, times exp(-Lambda(C))."""
    return _density_at(model, _density_geometry(model, s, flags, C))[0]


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


def _corner_pins(n_live: int) -> np.ndarray:
    """Which of n_live survivors each corner term pins at C: none first, then
    each subset of them by size, in combinations order."""
    subsets = [c for r in range(n_live + 1) for c in combinations(range(n_live), r)]
    pins = np.zeros((len(subsets), n_live), dtype=bool)
    for t, c in enumerate(subsets):
        pins[t, list(c)] = True
    return pins


def _layout_codes(model: IntensityModel, codes, C: float):
    """The corner terms of every record of a coded cohort, in array form.

    Returns (rec, S, F, R), one entry per corner term, records in order: the
    term's record, its pinned coordinates and flags as (p, terms) arrays,
    and R[k, term] its k-th free range (j, lo, hi), (-1, 0, 0) past its
    last. S holds the jump times and C elsewhere (a survivor taken not to
    have jumped, and a placeholder for a free coordinate); F marks jumps,
    free coordinates included. A record's all-free term comes first, then
    one term for each subset of its live survivors pinned at C, by size, in
    combinations order. Free ranges list the intervals first, then the
    survivors not pinned, each in component order. Each range is cut where
    a pinned jump switches its component off; a survivor whose range is cut
    empty is not live, and a record with an interval cut empty is impossible
    and has no terms. A refused record raises InvalidRecordError, the first
    in record and component order.
    """
    kind, x1, x2, flag = codes
    n, p = kind.shape
    if p != model.p:
        raise InvalidInputError(f"record 0: record has {p} components, model has {model.p}")
    jump = (kind == 0) & flag
    interval, survivor = kind == 1, kind == 2
    problems = (
        (jump & ~((0 < x1) & (x1 <= C)), "jump time {a} outside (0, {C}]"),
        ((kind == 0) & ~flag & (x1 != C),
         "no-jump-by-{a} with later times unobserved should be SurvivedBeyond"),
        (interval & ~((0 <= x1) & (x1 < x2)), "interval ({a}, {b}] is empty or negative"),
        (interval & (x2 > C), "interval end {b} beyond {C}"),
        (survivor & ~((0 <= x1) & (x1 <= C)), "survival time {a} outside [0, {C}]"),
        (~((kind == 0) | interval | survivor), "unknown status code {k}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in problems])
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), p)
        text = next(text for mask, text in problems if mask[i, j])
        raise InvalidRecordError(i, text.format(a=float(x1[i, j]), b=float(x2[i, j]),
                                                k=kind[i, j], C=C), component=j)

    hi = np.where(interval, x2, C)
    for j, component in enumerate(model.components):
        for e in range(p):
            if _switched_off_by(component, e):
                hi[:, j] = np.where(jump[:, e] & (x1[:, e] < hi[:, j]), x1[:, e], hi[:, j])
    live = (interval | survivor) & (hi > x1)
    possible = ~(interval & ~live).any(axis=1)
    live_survivor = survivor & live
    n_live = live_survivor.sum(axis=1)
    rows, pinned = [np.zeros(0, dtype=int)], [np.zeros((0, p), dtype=bool)]
    for L in np.unique(n_live[possible]):
        recs = np.flatnonzero(possible & (n_live == L))
        pins = _corner_pins(L)
        live_j = np.nonzero(live_survivor[recs])[1].reshape(recs.size, L)
        mask = np.zeros((recs.size * len(pins), p), dtype=bool)
        mask[np.arange(mask.shape[0])[:, None], np.repeat(live_j, len(pins), axis=0)] = \
            np.tile(pins, (recs.size, 1))
        rows.append(np.repeat(recs, len(pins)))
        pinned.append(mask)
    order = np.argsort(np.concatenate(rows), kind="stable")
    rec, pinned = np.concatenate(rows)[order], np.concatenate(pinned)[order]

    # free ranges: intervals first, then the survivors not pinned, each in
    # component order
    free = live[rec] & ~pinned
    by_order = np.argsort(np.where(free, np.arange(p) + p * survivor[rec], 2 * p),
                          axis=1, kind="stable")
    n_free = free.sum(axis=1)
    R = np.full((n_free.max(initial=0), rec.size, 3), [-1.0, 0.0, 0.0])
    for k in range(R.shape[0]):
        has = np.flatnonzero(n_free > k)
        j = by_order[has, k]
        R[k, has] = np.stack([j, x1[rec[has], j], hi[rec[has], j]], axis=1)
    S = np.ascontiguousarray(np.where(jump, x1, C)[rec].T)
    F = np.ascontiguousarray(((jump | live)[rec] & ~pinned).T)
    return rec, S, F, R


def _quad_opts(rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = DEFAULT_ABS_TOL,
               max_evals: int = DEFAULT_MAX_EVALS) -> dict:
    """The dataset plan's quadrature options, checked: finite positive
    tolerances (they set its panel error check) and max_evals >= 1 (its
    nodes per record)."""
    opts = {"rel_tol": rel_tol, "abs_tol": abs_tol, "max_evals": max_evals}
    if not (all(np.isfinite(x) and x > 0 for x in (rel_tol, abs_tol)) and max_evals >= 1):
        raise InvalidInputError(f"need rel_tol, abs_tol finite > 0, max_evals >= 1: {opts}")
    return opts


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
    coordinates of components with an observed exact jump time. It is the
    dataset plan's (inference.per_subject_loglik) on this one record, and
    max_evals caps the record's quadrature nodes; a nan value (a density
    that overflows) raises DomainError.
    """
    # inference imports this module, so the plan is imported at call time
    from .inference import per_subject_loglik

    value = float(per_subject_loglik(model, [atom], C, rel_tol=rel_tol, abs_tol=abs_tol,
                                     max_evals=max_evals)[0])
    if np.isnan(value):
        raise DomainError("the record's density is nan at a quadrature node (it overflows)")
    return value


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
