#!/usr/bin/env python3
"""coarselik benchmark: CLI simulate, loglik and fit, timed in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, single-threaded. With --trace 0 the run repeats whole
rounds of the workload's operations (one fresh-interpreter set-up, REPS
simulate and loglik calls, one fit of each fit cohort) until S seconds have
passed, and reports the end-to-end metrics as medians over the calls. With
--trace 1 it reports per-layer figures instead (see layers.py). Either way
the last line of stdout is one JSON object: correct, attempted, failed,
metrics. See README.md in this directory.

All generated files live in a per-process directory under perfbench/work/,
removed on exit. Exit status 2 means the run could not start (no checkout
here); a finished run exits 0 and reports problems in "correct".
"""

from __future__ import annotations

import os

# one thread per BLAS pool; must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REPS = 3  # simulate and loglik calls per round: many short samples per run

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import coarselik, coarselik.cli
from coarselik.io import load_model_config, load_scheme_config
cfg = load_model_config(sys.argv[2])
load_scheme_config(sys.argv[3], cfg.component_names)
print(coarselik.__file__)
"""


class Gauge:
    """The host's momentary speed, read as the geometric mean of the times
    of four fixed kernels, one per kind of work the program does: Python
    bytecode, many small numpy calls (as on quadrature panels), small
    objects built and sorted (as for records and CSV rows), and one large
    numpy sort.

    On the shared 2-core host this benchmark was written on, one and the
    same CLI call drifted between 0.42 and 0.97 s, in phases lasting tens of
    seconds, and the kernels drifted with it. A run reads the gauge between
    every two calls and divides each call's time by the median read of its
    round (a few seconds; one read alone is too noisy), times REFERENCE_S:
    the time the call takes at the reference speed, REFERENCE_S being about
    the gauge's median on that host. Over 25 s windows of a 4-minute series
    of identical calls, dividing by the gauge cut the spread of the window
    medians from 11% to 4% for `loglik` and from 7% to 4.5% for `simulate`.
    """

    REFERENCE_S = 0.007

    def __init__(self):
        import numpy as np

        self._np = np
        self._big = np.random.default_rng(0).random(500_000)
        self._small = np.random.default_rng(1).random(15)

    def read(self) -> float:
        np = self._np
        marks = [time.perf_counter()]
        acc = 0
        for i in range(100_000):
            acc += i * i
        marks.append(time.perf_counter())
        x = self._small
        for _ in range(1500):
            acc += float(x @ (np.exp(-0.5 * x) * x + 1.0))
        marks.append(time.perf_counter())
        rows = [(i * 7919 % 10007, str(i), {"k": i}) for i in range(5000)]
        rows.sort(key=lambda r: r[0])
        marks.append(time.perf_counter())
        np.sort(self._big)
        marks.append(time.perf_counter())
        return math.exp(sum(math.log(b - a) for a, b in zip(marks, marks[1:])) / 4)


class Run:
    """Files, inputs and call accounting of one benchmark run."""

    def __init__(self, w, seed: int, work: Path):
        from coarselik.io import load_model_config, load_scheme_config, write_dataset
        from workloads import rng_for, sample_cohort, write_configs

        self.w, self.seed, self.work = w, seed, work
        self.model, self.scheme = work / "model.json", work / "scheme.json"
        write_configs(w, self.model, self.scheme)
        cfg = load_model_config(self.model)
        self.cfg = cfg
        self.scheme_obj = load_scheme_config(self.scheme, cfg.component_names)
        self.data = {}
        self.records = {}
        cohorts = [("loglik", w.n_loglik)] + [(f"fit{k}", w.n_fit) for k in range(w.fits)]
        for stream, (name, n) in enumerate(cohorts, 1):
            recs = sample_cohort(w, self.scheme_obj, n, rng_for(w, seed, stream))
            path = work / f"{name}.csv"
            write_dataset(path, recs, component_names=cfg.component_names)
            self.data[name], self.records[name] = path, recs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # wrong outputs: the run is not correct
        self.errors: list[str] = []     # failed operations, counted in `failed`
        self.first: dict[str, str] = {}

    def argv(self, cmd: str, threads: int = 1, tag: str = "") -> list[str]:
        """CLI arguments; `cmd` is simulate, loglik or fit<k> (k-th cohort)."""
        w = self.w
        common = ["--model", str(self.model), "--scheme", str(self.scheme),
                  "--threads", str(threads)]
        if cmd == "simulate":
            return ["simulate", *common, "--n", str(w.n_simulate),
                    "--seed", str(self.seed), "--out", str(self.work / f"sim{tag}.csv"),
                    "--truth", str(self.work / f"truth{tag}.csv")]
        if cmd == "loglik":
            return ["loglik", *common, "--data", str(self.data["loglik"]),
                    "--theta", w.theta_arg()]
        return ["fit", *common, "--data", str(self.data[cmd]),
                "--out", str(self.work / f"{cmd}.json")]

    def call(self, cmd: str, threads: int = 1, tag: str = ""):
        """One in-process CLI call: (seconds, stdout), seconds None on failure."""
        from coarselik.cli import main

        argv = self.argv(cmd, threads, tag)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        dt = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{cmd} exited {rc}: {err.getvalue().strip()[:300]}")
            return None, out.getvalue()
        return dt, out.getvalue()

    def fingerprint(self, cmd: str, stdout: str, tag: str = "") -> str:
        """Digest of everything a command wrote, for byte-identity checks
        (simulate's stdout names its output paths, so only its files count)."""
        if cmd == "simulate":
            files, stdout = [f"sim{tag}.csv", f"truth{tag}.csv"], ""
        else:
            files = [f"{cmd}.json"] if cmd.startswith("fit") else []
        h = hashlib.sha256(stdout.encode())
        for name in files:
            h.update((self.work / name).read_bytes())
        return h.hexdigest()

    def same_as_first(self, cmd: str, stdout: str) -> None:
        fp = self.fingerprint(cmd, stdout)
        if self.first.setdefault(cmd, fp) != fp:
            self.problems.append(f"{cmd}: output differs between identical calls")

    def setup_once(self) -> float | None:
        """Fresh interpreter: import coarselik and its CLI, load both configs."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(self.model), str(self.scheme)],
                              capture_output=True, text=True, env=env, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
            self.failed += 1
            self.errors.append(f"setup failed: {proc.stderr.strip()[-300:]}")
            return None
        return dt


def check_outputs(run: Run) -> None:
    """Correctness of the first outputs, plus thread invariance."""
    import checks
    from workloads import rng_for, sample_times

    w = run.w
    pool = sample_times(w, 20_000, rng_for(w, run.seed, 9))
    run.problems += checks.occupancy(w, pool, "sampler")

    # a failed call is counted in `failed`; only the outputs of calls that
    # did not fail are checked
    sim_ok, sim_text = run.call("simulate")
    ll_ok, ll_text = run.call("loglik")
    sim2_ok, sim2_text = run.call("simulate", threads=2, tag="-t2")
    ll2_ok, ll2_text = run.call("loglik", threads=2)
    if sim_ok is not None:
        truth = checks.read_truth(run.work / "truth.csv", len(run.cfg.component_names))
        run.problems += checks.occupancy(w, truth, "simulate --truth")
        run.same_as_first("simulate", sim_text)
    if ll_ok is not None:
        idx = checks.reference_sample(w, len(run.records["loglik"]), rng_for(w, run.seed, 10))
        run.problems += checks.loglik_output(w, ll_text, run.records["loglik"], idx)
        run.same_as_first("loglik", ll_text)
    if sim_ok is not None and sim2_ok is not None and (
            run.fingerprint("simulate", sim_text)
            != run.fingerprint("simulate", sim2_text, "-t2")):
        run.problems.append("simulate: output differs under --threads 2")
    if ll_ok is not None and ll2_ok is not None and ll_text != ll2_text:
        run.problems.append("loglik: output differs under --threads 2")


def end_to_end(run: Run, seconds: float) -> dict:
    import checks

    w = run.w
    gauge = Gauge()
    fits = [f"fit{k}" for k in range(w.fits)]
    calls = ["setup", *["simulate", "loglik"] * REPS, *fits]
    times = {cmd: [] for cmd in calls}
    raw = {cmd: [] for cmd in calls}
    deadline = time.perf_counter() + seconds
    while True:
        reads = [gauge.read()]
        this_round = []
        for cmd in calls:
            if cmd == "setup":
                # process start-up does not track the gauge: kept unscaled
                dt = run.setup_once()
                times[cmd].append(dt)
                raw[cmd].append(dt)
                continue
            dt, text = run.call(cmd)
            reads.append(gauge.read())
            this_round.append((cmd, dt))
            raw[cmd].append(dt)
            if dt is None:
                continue
            run.same_as_first(cmd, text)
            if cmd in fits and len(raw[cmd]) == 1:
                run.problems += checks.fit_report(w, run.work / f"{cmd}.json")
        scale = Gauge.REFERENCE_S / statistics.median(reads)
        for cmd, dt in this_round:
            times[cmd].append(None if dt is None else dt * scale)
        if time.perf_counter() >= deadline:
            break

    def med(samples):
        ok = [t for t in samples if t is not None]
        return statistics.median(ok) if ok else float("nan")

    print("unscaled medians (s): " + ", ".join(f"{k} {med(v):.4f}" for k, v in raw.items()),
          file=sys.stderr)
    # per round, the mean over the fit cohorts (so the optimizer's path on
    # any one cohort weighs 1/fits, and one slow call 1/fits of a round)
    fit_s = med([None if None in r else statistics.fmean(r)
                 for r in zip(*(times[f] for f in fits))])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (med(times["setup"]), "s"),
        "simulate_paths_per_s": (w.n_simulate / med(times["simulate"]), "paths/s"),
        "loglik_subjects_per_s": (w.n_loglik / med(times["loglik"]), "subjects/s"),
        "fit_s": (fit_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "coarselik" / "__init__.py").is_file():
        print(f"error: no coarselik sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(w, args.seed, work)
        check_outputs(run)
        if args.trace:
            from layers import traced

            metrics = traced(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in run.errors:
        print(f"failed: {msg}", file=sys.stderr)
    for msg in run.problems:
        print(f"incorrect: {msg}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
