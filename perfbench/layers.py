"""Traced run: per-layer figures, from spans and counts recorded here.

Each round of a traced run does three things:

1. the workload's three CLI commands, untraced, as the end-to-end run
   times them;
2. the same commands with a span wrapped around every public function the
   CLI calls (patched into `coarselik.cli`'s namespace for the call only);
   a command's self time is its duration minus its child spans, and the
   ratio of traced to untraced time is the tracing overhead;
3. direct calls into each module's public functions on the workload's own
   model and records, timed one by one.

Counts come from public results (`QuadResult.evaluations`,
`FitResult.n_evaluations`, rows, bytes) or from `CountingModel`, which
counts the density points (one `total_cum(0, C, T)` per point) a model
handed to the engine is asked for. Figures are medians over rounds; counts
repeat exactly. The spans of the last round are written to
perfbench/work/trace-<workload>.jsonl.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time

import numpy as np

import coarselik.cli as cli
from coarselik.inference import DatasetEvaluator, ParametricFamily, per_subject_loglik
from coarselik.io import load_model_config, load_scheme_config, read_dataset, write_dataset
from coarselik.likelihood import f_theta, loglik_atom
from coarselik.observation import (
    ComponentSchedule,
    Exact,
    Interval,
    ObservationScheme,
    coarsen,
)
from coarselik.quadrature import Dim, integrate_1d, integrate_nested
from coarselik.simulate import coarsen_cohort, mc_check, record_from_codes, simulate_cohort

from workloads import SHAPES, rng_for, sample_times, shape_of

# public functions the CLI calls, each given a span in a traced command
TRACED = ("load_model_config", "load_scheme_config", "read_dataset", "write_dataset",
          "write_truth", "simulate_cohort", "coarsen_cohort", "record_from_codes",
          "per_subject_loglik", "fit_mle")
POINTS = 200_000     # evaluation points per baseline / model call
SHAPE_RECORDS = 40   # records per shape panel

# every per-layer metric: unit, and the direction that is better
METRICS = {
    "baselines.rate_points_per_s": ("points/s", "higher"),
    "baselines.cum0_points_per_s": ("points/s", "higher"),
    "models.rate_points_per_s": ("points/s", "higher"),
    "models.total_cum_points_per_s": ("points/s", "higher"),
    "likelihood.f_theta_points_per_s": ("points/s", "higher"),
    "likelihood.loglik_atom_records_per_s": ("records/s", "higher"),
    **{f"likelihood.loglik_atom_s.{s}": ("s/record", "lower") for s in SHAPES},
    **{f"likelihood.integrand_points.{s}": ("count", "lower") for s in SHAPES},
    "quadrature.gk15_points_per_s": ("points/s", "higher"),
    "quadrature.nested_points_per_s": ("points/s", "higher"),
    "inference.evaluator_build_s": ("s", "lower"),
    "inference.per_theta_s": ("s", "lower"),
    "inference.per_theta_integrand_points": ("count", "lower"),
    "inference.fit_evaluations": ("count", "lower"),
    "inference.per_subject_loglik_s": ("s", "lower"),
    "simulate.simulate_cohort_paths_per_s": ("paths/s", "higher"),
    "simulate.coarsen_cohort_paths_per_s": ("paths/s", "higher"),
    "simulate.record_from_codes_per_s": ("paths/s", "higher"),
    "simulate.mc_check_paths_per_s": ("paths/s", "higher"),
    "io.write_dataset_rows_per_s": ("rows/s", "higher"),
    "io.read_dataset_rows_per_s": ("rows/s", "higher"),
    "io.dataset_bytes": ("bytes", "lower"),
    "io.load_configs_s": ("s", "lower"),
    "cli.simulate_self_s": ("s", "lower"),
    "cli.loglik_self_s": ("s", "lower"),
    "cli.fit_self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class CountingModel:
    """A model that counts the density points the engine asks it for."""

    def __init__(self, model, counter: list):
        self._model = model
        self._counter = counter

    def __getattr__(self, name):
        return getattr(self._model, name)

    def total_cum(self, t0, t1, T):
        self._counter[0] += np.broadcast(np.asarray(t0), np.asarray(t1),
                                         *[np.asarray(x) for x in T]).size
        return self._model.total_cum(t0, t1, T)


class Spans:
    """In-memory spans (request id, name, parent, start, end) of traced calls."""

    def __init__(self):
        self.records: list[tuple] = []
        self.results: dict[str, object] = {}
        self._ids = itertools.count()
        self._request = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.records.append((self._request[0], name, self._request[1],
                                     t0, time.perf_counter()))
            self.results[name] = out
            return out
        return traced

    @contextlib.contextmanager
    def command(self, cmd: str):
        """Spans around the CLI's public calls for the duration of one
        command; yields the request id its spans carry."""
        self._request = (next(self._ids), f"cli.{cmd}")
        saved = {name: getattr(cli, name) for name in TRACED if hasattr(cli, name)}
        for name, fn in saved.items():
            setattr(cli, name, self.wrap(name, fn))
        try:
            yield self._request[0]
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def child_time(self, request: int) -> float:
        return sum(end - start for rid, _, _, start, end in self.records if rid == request)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rid, name, parent, start, end in self.records:
                fh.write(json.dumps({"request": rid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _probe_scheme(run, shape: str) -> ObservationScheme:
    """A scheme whose records take the given shape, for a workload whose own
    records never do: every component watched (`exact`), or the last
    component read at the first one's visits instead of being timed
    (`coarse_2d`; the other schedules stay as they are)."""
    scheme, C = run.scheme_obj, run.w.horizon
    if shape == "exact":
        return ObservationScheme(tuple(ComponentSchedule(windows=((0.0, C),))
                                       for _ in scheme.schedules), C,
                                 death_component=scheme.death_component)
    last = ComponentSchedule(visits=scheme.schedules[0].visits)
    return ObservationScheme(scheme.schedules[:-1] + (last,), C)


def shape_panels(run, rng) -> dict:
    """Up to SHAPE_RECORDS records of each shape, evenly spread over the
    workload's own loglik records where it has them, else records of a
    probe scheme."""
    panels = {s: [] for s in SHAPES}
    for rec in run.records["loglik"]:
        if shape_of(rec) is not None:
            panels[shape_of(rec)].append(rec)
    for s, recs in panels.items():
        k = min(len(recs), SHAPE_RECORDS)
        panels[s] = [recs[int((i + 0.5) * len(recs) / k)] for i in range(k)]
    for s in SHAPES:
        if not panels[s]:
            scheme = _probe_scheme(run, s)
            for row in sample_times(run.w, 20 * SHAPE_RECORDS, rng):
                rec = coarsen(scheme, row)
                if shape_of(rec) == s:
                    panels[s].append(rec)
                    if len(panels[s]) == SHAPE_RECORDS:
                        break
    return panels


def _free_ranges(rec, C):
    """(component, lower, upper) of each coarse status, and the pinned
    coordinates of the exact ones (C for no jump)."""
    fixed, free = [], []
    for j, st in enumerate(rec.statuses):
        if isinstance(st, Exact):
            fixed.append(st.time)
        else:
            fixed.append(None)
            lo, hi = (st.lower, st.upper) if isinstance(st, Interval) else (st.time, C)
            free.append((j, lo, hi))
    bps = tuple(t for t in fixed if t is not None and t < C)
    return fixed, free, bps


def quadrature_round(model, records, C, nested: bool):
    """Integrate the record density over its coarse coordinates with the
    public integrators; returns (points, seconds)."""
    points, seconds = 0, 0.0
    for rec in records:
        fixed, free, bps = _free_ranges(rec, C)
        free = [(j, lo, hi) for j, lo, hi in free if hi > lo]
        if len(free) != (2 if nested else 1):
            continue
        if nested:
            (j1, a1, b1), (j2, a2, b2) = free

            def f2(x, y, j1=j1, j2=j2, fixed=fixed):
                s = list(fixed)
                s[j1], s[j2] = x, y
                return f_theta(model, s, C)
            dt, res = _timed(integrate_nested, f2, (Dim(a1, b1, bps), Dim(a2, b2, bps)))
        else:
            (j, a, b), = free

            def f1(x, j=j, fixed=fixed):
                s = list(fixed)
                s[j] = x
                return f_theta(model, s, C)
            dt, res = _timed(integrate_1d, f1, a, b, breakpoints=bps)
        points += res.evaluations
        seconds += dt
    return points, seconds


def traced(run, seconds: float) -> dict:
    w, C = run.w, run.w.horizon
    rng = rng_for(w, run.seed, 20)
    model = run.cfg.build()
    fam = run.cfg.family
    truth = run.cfg.theta_from()
    p = model.p
    t = rng.uniform(0.0, C, POINTS)
    hist = sample_times(w, POINTS, rng)
    T = [np.where(hist[:, j] <= C, hist[:, j], np.inf) for j in range(p)]
    coords = [rng.uniform(1e-9, C * (1 - 1e-9), POINTS // 2) for _ in range(p)]
    baselines = [comp.baseline for comp in model.components]
    panels = shape_panels(run, rng)
    ll_records = list(run.records["loglik"])
    fit_records = list(run.records["fit0"])
    mc_atom = ll_records[0]
    spans_path = run.work.parent / f"trace-{w.name}.jsonl"

    # counts repeat exactly, so they are taken once
    counter = [0]
    counting = CountingModel(model, counter)
    shape_points = {}
    for s in SHAPES:
        counter[0] = 0
        for rec in panels[s]:
            loglik_atom(counting, rec, C)
        shape_points[s] = counter[0] / len(panels[s])
    counter[0] = 0
    counting_family = ParametricFamily(fam.param_names, fam.transforms,
                                       lambda th: CountingModel(fam.builder(th), counter),
                                       fam.fixed_breakpoints)
    DatasetEvaluator(counting_family, fit_records, C).per_subject(truth)
    per_theta_points = counter[0]
    dataset_bytes = run.data["loglik"].stat().st_size

    samples: dict[str, list[float]] = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    deadline = time.perf_counter() + seconds
    while True:
        spans = Spans()
        plain = traced_total = 0.0
        for name, cmd in (("simulate", "simulate"), ("loglik", "loglik"), ("fit", "fit0")):
            dt, _ = run.call(cmd)
            with spans.command(name) as request:
                dt_traced, _ = run.call(cmd)
            if dt is None or dt_traced is None:
                continue
            add(f"cli.{name}_self_s", dt_traced - spans.child_time(request))
            plain += dt
            traced_total += dt_traced
            if name == "fit" and "fit_mle" in spans.results:
                add("inference.fit_evaluations", spans.results["fit_mle"].n_evaluations)
        if plain > 0:
            add("trace.overhead_ratio", traced_total / plain)
        spans.dump(spans_path)

        dt = sum(_timed(b.rate, t)[0] for b in baselines)
        add("baselines.rate_points_per_s", POINTS * len(baselines) / dt)
        dt = sum(_timed(b.cum0, t)[0] for b in baselines)
        add("baselines.cum0_points_per_s", POINTS * len(baselines) / dt)
        dt = sum(_timed(model.rate, j, t, T)[0] for j in range(p))
        add("models.rate_points_per_s", POINTS * p / dt)
        add("models.total_cum_points_per_s", POINTS / _timed(model.total_cum, 0.0, t, T)[0])
        add("likelihood.f_theta_points_per_s",
            coords[0].size / _timed(f_theta, model, coords, C)[0])

        for s in SHAPES:
            dt = sum(_timed(loglik_atom, model, rec, C)[0] for rec in panels[s])
            add(f"likelihood.loglik_atom_s.{s}", dt / len(panels[s]))
        total_dt = sum(_timed(loglik_atom, model, rec, C)[0] for rec in ll_records)
        add("likelihood.loglik_atom_records_per_s", len(ll_records) / total_dt)

        one_d = panels["interval_1d"] + panels["corner_1d"]
        pts, dt = quadrature_round(model, one_d, C, nested=False)
        add("quadrature.gk15_points_per_s", pts / dt)
        pts, dt = quadrature_round(model, panels["coarse_2d"], C, nested=True)
        add("quadrature.nested_points_per_s", pts / dt)

        dt, ev = _timed(DatasetEvaluator, fam, fit_records, C)
        add("inference.evaluator_build_s", dt)
        add("inference.per_theta_s", _timed(ev.per_subject, truth)[0])
        add("inference.per_subject_loglik_s",
            _timed(per_subject_loglik, model, ll_records, C)[0])

        n = w.n_simulate
        dt, times = _timed(simulate_cohort, model, C, n, run.seed)
        add("simulate.simulate_cohort_paths_per_s", n / dt)
        dt, codes = _timed(coarsen_cohort, run.scheme_obj, times)
        add("simulate.coarsen_cohort_paths_per_s", n / dt)
        t0 = time.perf_counter()
        for row in zip(*codes):
            record_from_codes(*row)
        add("simulate.record_from_codes_per_s", n / (time.perf_counter() - t0))
        dt, _ = _timed(mc_check, model, run.scheme_obj, mc_atom, n, run.seed)
        add("simulate.mc_check_paths_per_s", n / dt)

        rows = len(ll_records) * p
        out = run.work / "layer-write.csv"
        dt, _ = _timed(write_dataset, out, ll_records, component_names=run.cfg.component_names)
        add("io.write_dataset_rows_per_s", rows / dt)
        dt, _ = _timed(read_dataset, run.data["loglik"], run.cfg.component_names)
        add("io.read_dataset_rows_per_s", rows / dt)
        t0 = time.perf_counter()
        cfg = load_model_config(run.model)
        load_scheme_config(run.scheme, cfg.component_names)
        add("io.load_configs_s", time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            break

    metrics = {name: (statistics.median(vals), METRICS[name][0])
               for name, vals in samples.items()}
    for s in SHAPES:
        metrics[f"likelihood.integrand_points.{s}"] = (shape_points[s], "count")
    metrics["inference.per_theta_integrand_points"] = (float(per_theta_points), "count")
    metrics["io.dataset_bytes"] = (float(dataset_bytes), "bytes")
    missing = sorted(set(METRICS) - set(metrics))
    if missing:
        run.problems.append(f"trace: no figure for {', '.join(missing)}")
    return metrics
