"""Path simulation and Monte Carlo probability checks.

Sampling is competing-risks, one round per jump: draw a unit exponential,
invert the total cumulative intensity from the current time, then pick the
jumping component with probability proportional to its intensity at the
solved time. Each subject owns a fixed, padded block of a counter-based
random stream keyed by the seed, so subject i's draws depend only on
(seed, i): cohorts can be generated in any chunking, on any thread count,
with bit-identical results, and a single path can be re-drawn in isolation.

The inversion (Bender, Augustin & Blettner 2005) walks the rate breakpoints
to the segment where the target is crossed, solves there as if the total
rate were constant (exact for constant and step baselines), and polishes
the solution by bracketed Newton steps, falling back to bisection when a
step leaves the bracket. Each subject stops once its step falls below
1e-13 of the horizon, so its result depends on nothing but its own draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HazardInversionError, InvalidInputError
from .models import IntensityModel
from .observation import (
    Exact,
    Interval,
    ObservationScheme,
    PseudoAtomRecord,
    StatusCodes,
    SurvivedBeyond,
    coarsen,
    record_from_codes,  # re-exported: the per-record form of a coded row
)

_CHUNK = 1 << 17  # subjects simulated per vectorized pass
_BIN_WIDTH = 0.05  # mc_check's bin around an exactly observed jump time
_STEP_TOL = 1e-13  # Newton steps stop below this fraction of the horizon
_MAX_STEPS = 100  # a safety cap: Newton needs a handful of steps


@dataclass(frozen=True)
class SimulatedPath:
    """Jump times of one subject (inf = no jump), with its stream address."""

    times: tuple[float, ...]
    horizon: float
    seed: int
    index: int


def _block_words(p: int) -> int:
    # two uniforms per round, up to p rounds, padded to the 4-word
    # granularity of the counter so blocks start on counter boundaries
    need = 2 * p
    return -(-need // 4) * 4


def subject_uniforms(seed: int, start: int, n: int, p: int) -> np.ndarray:
    """Uniform draws for subjects start..start+n-1, shape (n, 2p).

    Column 2r is the exponential draw of round r, column 2r+1 the component
    pick. Depends only on (seed, subject index), not on chunking.
    """
    if not (0 <= int(seed) < 2 ** 64):
        raise InvalidInputError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    block = _block_words(p)
    bit = np.random.Philox(key=np.uint64(seed), counter=[start * block // 4, 0, 0, 0])
    u = np.random.Generator(bit).random((n, block))
    return u[:, : 2 * p]


def _rates(model: IntensityModel, t, T_list) -> list:
    """Pre-jump intensities at t, one array per component; a finite entry
    of T_list is a past jump, and that component's own rate no longer counts."""
    return [np.where(np.isfinite(T_list[j]), 0.0, model.rate(j, t, T_list))
            for j in range(model.p)]


def _invert_total(model, t0, T, E, C):
    """Smallest t with total integrated intensity over (t0, t] equal to E.

    Returns (t_star, solved): solved False where the target exceeds the
    total over (t0, C] (no further jump by the horizon).
    """
    T_list = list(T.T)
    total_to_C = np.asarray(model.total_cum(t0, C, T_list), dtype=float)
    solved = total_to_C >= E

    # 1. walk the rate breakpoints to the segment (lo, hi] where E is crossed
    lo, hi, cum_lo = t0, np.full_like(t0, C), np.zeros_like(t0)
    prev, cum_prev = t0, np.zeros_like(t0)
    walking = solved.copy()
    for e in (b for b in model.breakpoints if b < C):
        edge = np.maximum(t0, e)
        cum_edge = np.asarray(model.total_cum(t0, edge, T_list), dtype=float)
        crosses = walking & (cum_edge >= E)
        lo = np.where(crosses, np.maximum(t0, prev), lo)
        hi = np.where(crosses, edge, hi)
        cum_lo = np.where(crosses, cum_prev, cum_lo)
        walking &= ~crosses
        prev, cum_prev = e, cum_edge
    lo = np.where(walking, np.maximum(t0, prev), lo)
    cum_lo = np.where(walking, cum_prev, cum_lo)

    # 2. solve as if the total rate were constant on the segment: exact for
    # constant and step baselines
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = lo + (E - cum_lo) / sum(_rates(model, 0.5 * (lo + hi), T_list))

    # 3. polish by bracketed Newton steps, bisecting where a step leaves
    # (lo, hi]; each subject stops at its own convergence, so its result
    # depends on nothing but its own inputs
    tol = _STEP_TOL * C
    idx = np.flatnonzero(solved)
    for it in range(_MAX_STEPS):
        if not idx.size:
            break
        Ti = [x[idx] for x in T_list]
        t = t_star[idx]
        excess = np.asarray(model.total_cum(t0[idx], t, Ti), dtype=float) - E[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = excess / sum(_rates(model, t, Ti))
        done = np.abs(step) < tol
        # a constant-rate solution that passes the first check is exact
        # already; a polished one takes its last Newton step
        if it:
            t_star[idx[done]] = t[done] - step[done]
        keep = ~done
        idx, t, step, excess = idx[keep], t[keep], step[keep], excess[keep]
        hi[idx] = np.where(excess >= 0, t, hi[idx])
        lo[idx] = np.where(excess < 0, t, lo[idx])
        t_new = t - step
        inside = (t_new > lo[idx]) & (t_new <= hi[idx])
        t_star[idx] = np.where(inside, t_new, 0.5 * (lo[idx] + hi[idx]))
    return np.where(solved, t_star, np.inf), solved


def simulate_cohort(model: IntensityModel, C: float, n: int, seed: int,
                    start: int = 0) -> np.ndarray:
    """Jump-time matrix (n, p) for subjects start..start+n-1 (inf = no jump),
    drawn _CHUNK subjects at a time: the chunking never changes a draw."""
    if n < 0 or start < 0:
        raise InvalidInputError("subject counts and start index must be nonnegative")
    out = np.empty((n, model.p))
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        out[lo:lo + m] = _simulate_chunk(model, C, m, seed, start + lo)
    return out


def _simulate_chunk(model, C, n, seed, start):
    p = model.p
    U = subject_uniforms(seed, start, n, p)
    T = np.full((n, p), np.inf)
    t0 = np.zeros(n)
    active = np.ones(n, dtype=bool)
    for r in range(p):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        E = -np.log1p(-U[idx, 2 * r])
        t_star, solved = _invert_total(model, t0[idx], T[idx], E, C)
        hit = solved & (t_star <= C)
        if not hit.any():
            active[idx] = False
            continue
        sub = idx[hit]
        ts = t_star[hit]
        rates = np.stack(_rates(model, ts, list(T[sub].T)), axis=1)
        totals = rates.sum(axis=1)
        if np.any(totals <= 0):
            raise HazardInversionError("zero total intensity at a solved jump time")
        cum = np.cumsum(rates, axis=1)
        u = U[sub, 2 * r + 1] * totals
        pick = np.sum(cum <= u[:, None], axis=1)
        pick = np.minimum(pick, p - 1)
        T[sub, pick] = ts
        t0[sub] = ts
        active[idx] = hit
        active[sub] = ~np.isfinite(T[sub]).all(axis=1)
    return T


def simulate_path(model: IntensityModel, C: float, seed: int, index: int = 0) -> SimulatedPath:
    """Single subject's path, identical to its row in any cohort."""
    times = simulate_cohort(model, C, 1, seed, start=index)[0]
    return SimulatedPath(tuple(float(t) for t in times), C, seed, index)


def coarsen_cohort(scheme: ObservationScheme, times: np.ndarray) -> StatusCodes:
    """Vectorized scheme application: the cohort's records as StatusCodes.

    Unpacks as (kind, x1, x2, flag): kind 0 = exact (x1 = time, flag = jump
    observed), kind 1 = interval (x1, x2], kind 2 = survived beyond x1.
    """
    n, p = times.shape
    if p != scheme.p:
        raise InvalidInputError(f"{p} columns for {scheme.p} components")
    C = scheme.horizon
    d = scheme.death_component
    kind = np.zeros((n, p), dtype=np.uint8)
    x1 = np.zeros((n, p))
    x2 = np.full((n, p), np.nan)
    flag = np.zeros((n, p), dtype=bool)

    if d is not None:
        td = times[:, d]
        cut = np.where(td <= C, td, np.inf)
        kind[:, d] = 0
        x1[:, d] = np.minimum(td, C)
        flag[:, d] = td <= C
    else:
        cut = np.full(n, np.inf)

    for j in range(p):
        if j == d:
            continue
        sched = scheme.schedules[j]
        t = times[:, j]
        in_window = np.zeros(n, dtype=bool)
        for a, b in sched.windows:
            in_window |= (a <= t) & (t < np.minimum(b, cut))
        covered = sched.covers_through(C) & (cut >= C)

        detections = np.asarray(sched.detection_epochs(), dtype=float)
        zeros = np.asarray(sched.zero_epochs(), dtype=float)
        e = np.full(n, np.inf)
        if detections.size:
            ei = np.searchsorted(detections, np.where(np.isfinite(t), t, np.inf))
            has = ei < detections.size
            e[has] = detections[ei[has]]
        detected = np.isfinite(t) & (t <= C) & (e < cut) & ~in_window
        zi = np.maximum(np.searchsorted(zeros, np.where(np.isfinite(t), t, 0.0)), 1) - 1
        z = zeros[zi]

        # survival bound: last response under the (possibly cut) schedule
        v_static = zeros[-1]
        vi = np.maximum(np.searchsorted(zeros, np.minimum(cut, C)), 1) - 1
        v = zeros[vi]
        for a, b in sched.windows:
            v = np.maximum(v, np.where(a < cut, np.minimum(np.minimum(b, cut), C), 0.0))
        v = np.where(cut >= C, v_static, v)

        kind[:, j] = np.where(in_window, 0, np.where(covered, 0, np.where(detected, 1, 2)))
        x1[:, j] = np.where(in_window, t, np.where(covered, C, np.where(detected, z, v)))
        x2[:, j] = np.where(detected & ~in_window & ~covered, e, np.nan)
        flag[:, j] = in_window
    return StatusCodes(kind, x1, x2, flag)


def mc_check(model: IntensityModel, scheme: ObservationScheme, atom: PseudoAtomRecord,
             n_paths: int, seed: int):
    """Monte Carlo estimate of a record's probability, as a density in the
    coordinates of exactly observed jumps (each binned to a width of 0.05:
    a path matches an exact jump time t when its own lies within 0.025 of t).

    A survival bound float-equal to an exactly observed death time means
    "watched until that death cut the schedule", so it is matched against
    each path's own death coordinate, not the literal number; every other
    bound is a schedule constant and must match exactly.

    Returns (estimate, standard_error, matches). Zero matches return a
    one-sided 95% bound as the error.
    """
    if n_paths < 1:
        raise InvalidInputError(f"need at least one path, got {n_paths}")
    targets = list(atom.statuses)
    density_dims = sum(
        1 for st in targets if isinstance(st, Exact) and st.observed_jump
    )
    factor = _BIN_WIDTH ** density_dims
    d = scheme.death_component
    death_tied = set()
    if d is not None and isinstance(targets[d], Exact) and targets[d].observed_jump:
        death_tied = {j for j, st in enumerate(targets)
                      if j != d and isinstance(st, SurvivedBeyond)
                      and st.time == targets[d].time}
    matches = 0
    for lo in range(0, n_paths, _CHUNK):
        m = min(_CHUNK, n_paths - lo)
        times = simulate_cohort(model, scheme.horizon, m, seed, start=lo)
        kind, x1, x2, flag = coarsen_cohort(scheme, times)
        ok = np.ones(m, dtype=bool)
        for j, st in enumerate(targets):
            if isinstance(st, Exact):
                if st.observed_jump:
                    ok &= (kind[:, j] == 0) & flag[:, j]
                    ok &= np.abs(x1[:, j] - st.time) <= 0.5 * _BIN_WIDTH
                else:
                    ok &= (kind[:, j] == 0) & ~flag[:, j]
            elif isinstance(st, Interval):
                ok &= (kind[:, j] == 1) & (x1[:, j] == st.lower) & (x2[:, j] == st.upper)
            elif j in death_tied:
                ok &= (kind[:, j] == 2) & (x1[:, j] == x1[:, d])
            else:
                ok &= (kind[:, j] == 2) & (x1[:, j] == st.time)
        matches += int(ok.sum())
    phat = matches / n_paths
    if matches == 0:
        return 0.0, 3.0 / (n_paths * factor), 0
    se = np.sqrt(phat * (1.0 - phat) / n_paths) / factor
    return phat / factor, float(se), matches
