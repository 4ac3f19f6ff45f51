"""Workload definitions: model and scheme configs, the benchmark's own
closed-form cohort sampler, and the record helpers the checks share.

The sampler imports nothing from `coarselik.simulate`, so a change to the
simulator's inversion cannot change what the likelihood stages are fed.
Every latent uniform column is Latin-hypercube stratified (each of the n
draws falls in its own 1/n slice), and a cohort is a stratified sample of a
larger pool (`sample_cohort`), so that its make-up, and with it the cost of
evaluating it, barely moves from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from coarselik.observation import Exact, Interval, PseudoAtomRecord, SurvivedBeyond, coarsen


@dataclass(frozen=True)
class Workload:
    name: str
    key: int                      # mixed into every seed of this workload
    model: dict                   # model config JSON
    scheme: dict                  # scheme config JSON
    truth: dict                   # true parameter values (also the config theta)
    n_simulate: int               # paths per CLI simulate call
    n_loglik: int                 # subjects per CLI loglik call
    n_fit: int                    # subjects per CLI fit cohort
    fits: int                     # fit cohorts, each fitted once per round

    @property
    def horizon(self) -> float:
        return float(self.scheme["horizon"])

    def theta_arg(self) -> str:
        return ",".join(repr(float(v)) for v in self.truth.values())


def _rate(name):
    return {"family": "constant", "rate": name}


ILLNESS_DEATH = Workload(
    name="illness-death-panel",
    key=1,
    model={
        "name": "illness-death",
        "components": ["illness", "death"],
        "intensities": [
            {"component": "illness", "baseline": _rate("a01"), "gates": ["death"]},
            {"component": "death", "baseline": _rate("a02"),
             "modifiers": [{"when": ["illness"], "eta": "eta12"}]},
        ],
        "theta": {"a01": 0.1, "a02": 0.2, "eta12": 0.693},
    },
    scheme={
        "horizon": 10.0,
        "death_component": "death",
        "schedules": [
            {"component": "illness", "visits": [float(v) for v in range(1, 11)]},
            {"component": "death", "windows": [[0.0, 10.0]]},
        ],
    },
    truth={"a01": 0.1, "a02": 0.2, "eta12": 0.693},
    n_simulate=10_000,
    n_loglik=1500,
    n_fit=500,
    fits=6,
)

DEMENTIA_ETAS = {"eta_inst_dem": 0.4, "eta_dem_inst": 0.5, "eta_dem_death": 0.6,
                 "eta_inst_death": 0.3, "eta_both_death": -0.2}

DEMENTIA = Workload(
    name="dementia-visits",
    key=2,
    model={
        "name": "dementia",
        "components": ["dementia", "institution", "death"],
        "intensities": [
            {"component": "dementia", "baseline": _rate("a01"), "gates": ["death"],
             "modifiers": [{"when": ["institution"], "eta": DEMENTIA_ETAS["eta_inst_dem"]}]},
            {"component": "institution", "baseline": _rate("a02"), "gates": ["death"],
             "modifiers": [{"when": ["dementia"], "eta": DEMENTIA_ETAS["eta_dem_inst"]}]},
            {"component": "death", "baseline": _rate("a04"),
             "modifiers": [
                 {"when": ["dementia"], "eta": DEMENTIA_ETAS["eta_dem_death"]},
                 {"when": ["institution"], "eta": DEMENTIA_ETAS["eta_inst_death"]},
                 {"when": ["dementia", "institution"],
                  "eta": DEMENTIA_ETAS["eta_both_death"]},
             ]},
        ],
        "theta": {"a01": 0.15, "a02": 0.18, "a04": 0.12},
    },
    scheme={
        "horizon": 5.0,
        "death_component": "death",
        "schedules": [
            {"component": "dementia", "visits": [1.0, 2.0, 3.0, 4.0]},
            {"component": "institution", "windows": [[0.0, 4.0]]},
            {"component": "death", "windows": [[0.0, 5.0]]},
        ],
    },
    truth={"a01": 0.15, "a02": 0.18, "a04": 0.12},
    n_simulate=10_000,
    n_loglik=100,
    n_fit=6,
    fits=1,
)

WEIBULL = Workload(
    name="weibull-hybrid",
    key=3,
    model={
        "name": "weibull-illness-death",
        "components": ["illness", "death"],
        "intensities": [
            {"component": "illness", "baseline": {"family": "weibull", "a": "a01", "b": "b01"},
             "gates": ["death"]},
            {"component": "death", "baseline": {"family": "weibull", "a": "a02", "b": "b02"},
             "modifiers": [{"when": ["illness"], "eta": "eta12", "gamma": "gamma12"}]},
        ],
        "theta": {"a01": 0.15, "b01": 0.7, "a02": 0.06, "b02": 1.4,
                  "eta12": 0.7, "gamma12": 0.0},
    },
    scheme={
        "horizon": 10.0,
        "death_component": "death",
        "schedules": [
            {"component": "illness", "windows": [[0.0, 2.0]],
             "visits": [float(v) for v in range(3, 11)]},
            {"component": "death", "windows": [[0.0, 10.0]]},
        ],
    },
    truth={"a01": 0.15, "b01": 0.7, "a02": 0.06, "b02": 1.4, "eta12": 0.7, "gamma12": 0.0},
    n_simulate=10_000,
    n_loglik=1000,
    n_fit=200,
    fits=8,
)

WORKLOADS = {w.name: w for w in (ILLNESS_DEATH, DEMENTIA, WEIBULL)}


def write_configs(w: Workload, model_path, scheme_path) -> None:
    with open(model_path, "w") as fh:
        json.dump(w.model, fh, indent=2)
    with open(scheme_path, "w") as fh:
        json.dump(w.scheme, fh, indent=2)


def rng_for(w: Workload, seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, workload, stream)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), w.key, stream]))


# ---------------------------------------------------------------------------
# closed-form sampler


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms, one in each slice (i/n, (i+1)/n], in random order."""
    return (rng.permutation(n) + 1.0 - rng.random(n)) / n


def _exp(rng, n):
    return -np.log(_stratified(rng, n))


def _illness_death_times(rng, n, a01, b01, a02, b02, a12_scale):
    """Latent-time inversion of the progressive illness-death model.

    Healthy -> ill and healthy -> dead have cumulative hazards a t^b; once
    ill, death runs on a12_scale * a02 * t^b02 from the illness time on
    (calendar-time clock, as the engine's modifier does).
    """
    e1, e2, e3 = _exp(rng, n), _exp(rng, n), _exp(rng, n)
    t_ill = (e1 / a01) ** (1.0 / b01)
    t_dead_healthy = (e2 / a02) ** (1.0 / b02)
    ill = t_ill < t_dead_healthy
    a12 = a02 * a12_scale
    t_dead_ill = ((e3 + a12 * t_ill ** b02) / a12) ** (1.0 / b02)
    times = np.empty((n, 2))
    times[:, 0] = np.where(ill, t_ill, np.inf)
    times[:, 1] = np.where(ill, t_dead_ill, t_dead_healthy)
    return times


def _dementia_times(rng, n, a01, a02, a04, etas):
    """Exponential races, one per round; rates change only at jumps."""
    times = np.full((n, 3), np.inf)
    t = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    for _ in range(3):
        dem = np.isfinite(times[:, 0])
        inst = np.isfinite(times[:, 1])
        rates = np.stack([
            np.where(dem, 0.0, a01 * np.exp(etas["eta_inst_dem"] * inst)),
            np.where(inst, 0.0, a02 * np.exp(etas["eta_dem_inst"] * dem)),
            a04 * np.exp(etas["eta_dem_death"] * dem + etas["eta_inst_death"] * inst
                         + etas["eta_both_death"] * (dem & inst)),
        ], axis=1)
        draws = np.stack([_exp(rng, n) for _ in range(3)], axis=1)
        with np.errstate(divide="ignore"):
            wait = np.where(rates > 0, draws / np.where(rates > 0, rates, 1.0), np.inf)
        k = np.argmin(wait, axis=1)
        rows = np.flatnonzero(alive)
        times[rows, k[rows]] = t[rows] + wait[rows, k[rows]]
        t[rows] = times[rows, k[rows]]
        alive &= k != 2
    return times


def sample_times(w: Workload, n: int, rng: np.random.Generator) -> np.ndarray:
    """True jump times (n, p) at the workload's true parameters; inf = none."""
    th = w.truth
    if w is ILLNESS_DEATH:
        return _illness_death_times(rng, n, th["a01"], 1.0, th["a02"], 1.0,
                                    math.exp(th["eta12"]))
    if w is WEIBULL:
        return _illness_death_times(rng, n, th["a01"], th["b01"], th["a02"], th["b02"],
                                    math.exp(th["eta12"]))
    return _dementia_times(rng, n, th["a01"], th["a02"], th["a04"], DEMENTIA_ETAS)


_POOL = 8           # pool records per cohort subject
_MIN_POOL = 4_000   # fixes stratum shares to within about 1.5%


def _record_key(rec: PseudoAtomRecord):
    kinds, numbers = [], []
    for st in rec.statuses:
        if isinstance(st, Exact):
            kinds.append(0 if st.observed_jump else 1)
            numbers.append(st.time)
        elif isinstance(st, Interval):
            kinds.append(2)
            numbers += [st.lower, st.upper]
        else:
            kinds.append(3)
            numbers.append(st.time)
    return tuple(kinds), tuple(numbers)


def sample_cohort(w: Workload, scheme, n: int, rng: np.random.Generator):
    """n coarse records, a stratified sample of a larger pool.

    The pool is split into strata by the kind of every status (which fixes
    the engine route a record takes). Stratum k gets n_k records, n_k
    proportional to its pool share by largest remainders, taken at the
    midpoints of n_k equal rank slices of the stratum sorted by its times.
    The cohort is thus a representative sample of the model: its make-up,
    and so its cost, follows the record distribution closely and barely
    moves from seed to seed, which a plain random cohort of a few dozen
    records cannot promise (fits of random 16-subject dementia cohorts took
    2.7 to 9.2 s over five seeds).
    """
    N = max(_POOL * n, _MIN_POOL)
    times = sample_times(w, N, rng)
    records = [coarsen(scheme, row) for row in times]
    strata: dict[tuple, list[int]] = {}
    for i in sorted(range(N), key=lambda i: _record_key(records[i])):
        strata.setdefault(_record_key(records[i])[0], []).append(i)
    quota = {k: n * len(v) / N for k, v in strata.items()}
    alloc = {k: int(q) for k, q in quota.items()}
    for k in sorted(quota, key=lambda k: (alloc[k] - quota[k], k))[: n - sum(alloc.values())]:
        alloc[k] += 1
    keep = []
    for k in sorted(strata):
        members, m = strata[k], alloc[k]
        keep += [members[int((i + 0.5) * len(members) / m)] for i in range(m)]
    return [records[i] for i in keep]


# ---------------------------------------------------------------------------
# records


SHAPES = ("exact", "interval_1d", "corner_1d", "coarse_2d")


def shape_of(rec: PseudoAtomRecord) -> str | None:
    """Engine route of a record: the number and kind of its coarse parts."""
    coarse = [st for st in rec.statuses if not isinstance(st, Exact)]
    if not coarse:
        return "exact"
    if len(coarse) == 1:
        return "interval_1d" if isinstance(coarse[0], Interval) else "corner_1d"
    if len(coarse) == 2:
        return "coarse_2d"
    return None


def horizon_states(times: np.ndarray, C: float) -> np.ndarray:
    """State index at the horizon in the compact Markov layout.

    Jumped non-death components set bits (component j -> bit j); a death
    (last component) by C maps to the absorbing state 2^(p-1).
    """
    p = times.shape[1]
    jumped = times <= C
    state = np.zeros(times.shape[0], dtype=int)
    for j in range(p - 1):
        state |= jumped[:, j].astype(int) << j
    return np.where(jumped[:, p - 1], 1 << (p - 1), state)


def as_oracle_args(rec: PseudoAtomRecord):
    """Illness-death record as (visits, first_ill_visit, death_time, died) for
    `oracle.illness_death_mixed_loglik`, or None for an exactly timed illness.

    Healthy at a survival bound v implies healthy at every earlier reading,
    so [0, v] carries the same information as the full visit list; an
    interval (z, e] becomes the readings [0, z, e].
    """
    ill, death = rec.statuses
    if isinstance(ill, SurvivedBeyond):
        visits = [0.0] if ill.time == 0.0 else [0.0, ill.time]
        return visits, None, death.time, death.observed_jump
    if isinstance(ill, Interval):
        visits = [0.0, ill.upper] if ill.lower == 0.0 else [0.0, ill.lower, ill.upper]
        return visits, len(visits) - 1, death.time, death.observed_jump
    return None
