"""Correctness checks of the CLI outputs a run produces.

Each check compares against a computation made apart from the code path it
checks, or against a property the method must have; none compares against
a stored copy of an earlier output. A check returns a list of problems,
empty when it passes.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from coarselik.baselines import Weibull
from coarselik.catalog import (
    DementiaParams,
    dementia_markov_spec,
    dementia_model,
    dementia_reference_loglik,
    illness_death,
)
from coarselik.oracle import (
    illness_death_mixed_loglik,
    loglik_continuous_markov,
    transition_matrix,
)

from workloads import DEMENTIA, DEMENTIA_ETAS, WEIBULL, as_oracle_args, horizon_states

Z_BOUND = 4.0       # standard errors
LOGLIK_REL = 1e-6   # relative error of a subject's likelihood


def markov_spec(w):
    """State-space form of the workload's true model, for the oracle."""
    th = w.truth
    if w is DEMENTIA:
        return dementia_markov_spec(DementiaParams(th["a01"], th["a02"], th["a04"],
                                                   **DEMENTIA_ETAS))
    if w is WEIBULL:
        a12 = th["a02"] * math.exp(th["eta12"])
        return illness_death(Weibull(th["a01"], th["b01"]), Weibull(th["a02"], th["b02"]),
                             Weibull(a12, th["b02"]))[0]
    return illness_death(th["a01"], th["a02"], th["a02"] * math.exp(th["eta12"]))[0]


def occupancy(w, times: np.ndarray, label: str) -> list[str]:
    """Share of paths in each state at the horizon vs P(0, C) from the oracle."""
    spec = markov_spec(w)
    want = transition_matrix(spec, 0.0, w.horizon).matrix[0]
    states = horizon_states(times, w.horizon)
    n = states.size
    problems = []
    for k, p in enumerate(want):
        got = np.count_nonzero(states == k) / n
        se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
        if abs(got - p) > Z_BOUND * se:
            problems.append(f"{label}: state {k} share {got:.5f}, oracle {p:.5f} "
                            f"({abs(got - p) / se:.1f} SE)")
    return problems


def read_truth(path, p: int) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(x) if x else np.inf for x in row[1:1 + p]] for row in rows])


def parse_loglik(text: str):
    """(per-subject values, total) from CLI loglik stdout."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "subject_id,loglik" or not lines[-1].startswith("total,"):
        raise ValueError("unexpected loglik output layout")
    per = np.array([float(line.split(",")[1]) for line in lines[1:-1]])
    return per, float(lines[-1].split(",")[1])


def _reference(w):
    """Subject log-likelihood by a route that shares no code with the engine's
    corner expansion: transition-matrix products (illness-death shapes, ODE
    for Weibull), the continuous-path formula for an exactly timed illness,
    or the literal dementia transcription."""
    if w is DEMENTIA:
        th = w.truth
        model = dementia_model(DementiaParams(th["a01"], th["a02"], th["a04"], **DEMENTIA_ETAS))
        return lambda rec: dementia_reference_loglik(model, rec, w.horizon)
    spec = markov_spec(w)

    def ref(rec):
        args = as_oracle_args(rec)
        if args is not None:
            return illness_death_mixed_loglik(spec, *args)
        ill, death = rec.statuses
        path = [(ill.time, 1)] + ([(death.time, 2)] if death.observed_jump else [])
        return loglik_continuous_markov(spec, 0, path, w.horizon)
    return ref


def loglik_output(w, text: str, records, check_idx) -> list[str]:
    """Per-subject values against the reference, and the total line."""
    try:
        per, total = parse_loglik(text)
    except ValueError as err:
        return [f"loglik: {err}"]
    problems = []
    if per.size != len(records):
        return [f"loglik: {per.size} subject lines for {len(records)} subjects"]
    if not np.all(np.isfinite(per)):
        problems.append("loglik: non-finite subject values")
    if abs(total - math.fsum(per)) > 1e-12 * math.fsum(np.abs(per)):
        problems.append(f"loglik: total {total!r} is not the sum {math.fsum(per)!r}")
    ref = _reference(w)
    worst = max(abs(math.expm1(per[i] - ref(records[i]))) for i in check_idx)
    if not worst <= LOGLIK_REL:
        problems.append(f"loglik: worst relative likelihood error {worst:.2e} "
                        f"over {len(check_idx)} subjects")
    return problems


def fit_report(w, path) -> list[str]:
    """Every true parameter within Z_BOUND standard errors of its estimate."""
    with open(path) as fh:
        rep = json.load(fh)
    if not rep.get("converged"):
        return ["fit: not converged"]
    se = rep.get("std_errors") or {}
    problems = []
    for name, true in w.truth.items():
        est, s = rep["theta"][name], se.get(name)
        if s is None or not s > 0:
            problems.append(f"fit: no standard error for {name}")
        elif abs(est - true) > Z_BOUND * s:
            problems.append(f"fit: {name} = {est:.5g} is {abs(est - true) / s:.1f} SE "
                            f"from the truth {true}")
    return problems


def reference_sample(w, n: int, rng) -> list[int]:
    """Subjects whose CLI values are checked against the reference route.

    Constant-rate illness-death checks every subject (matrix exponentials
    are cheap); the ODE and the dementia transcription take a seeded sample.
    """
    if w is WEIBULL or w is DEMENTIA:
        return sorted(rng.choice(n, size=min(n, 24), replace=False).tolist())
    return list(range(n))
