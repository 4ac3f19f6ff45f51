"""Command-line interface, exercised in process through main(argv)."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coarselik
import coarselik.cli as cli
from benchmark_workloads import workloads
import coarselik.io
from coarselik.cli import main
from coarselik.inference import per_subject_loglik
from coarselik.io import load_model_config, load_scheme_config, write_dataset, write_truth
from coarselik.observation import Exact, Interval, StatusCodes
from coarselik.simulate import coarsen_cohort, record_from_codes, simulate_cohort

MODEL_JSON = {
    "name": "illness-death",
    "components": ["illness", "death"],
    "intensities": [
        {"component": "illness",
         "baseline": {"family": "constant", "rate": "a01"},
         "gates": ["death"]},
        {"component": "death",
         "baseline": {"family": "constant", "rate": "a02"},
         "modifiers": [{"when": ["illness"], "eta": "eta12"}]},
    ],
    "theta": {"a01": 0.1, "a02": 0.2, "eta12": math.log(2.0)},
}

SCHEME_JSON = {
    "horizon": 2.0,
    "death_component": "death",
    "schedules": [
        {"component": "illness", "visits": [1.0]},
        {"component": "death", "windows": [[0.0, 2.0]]},
    ],
}


@pytest.fixture
def configs(tmp_path):
    model = tmp_path / "model.json"
    scheme = tmp_path / "scheme.json"
    model.write_text(json.dumps(MODEL_JSON))
    scheme.write_text(json.dumps(SCHEME_JSON))
    return str(model), str(scheme)


def test_simulate_is_reproducible_and_thread_invariant(tmp_path, configs):
    model, scheme = configs
    outs = []
    for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 3)):
        out = tmp_path / name
        code = main(["simulate", "--model", model, "--scheme", scheme,
                     "--n", "40", "--seed", "7", "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    truth = tmp_path / "truth.csv"
    code = main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "40", "--seed", "7", "--out", str(tmp_path / "d.csv"),
                 "--truth", str(truth)])
    assert code == 0
    assert len(truth.read_text().splitlines()) == 41


WORKLOADS = workloads.WORKLOADS


def per_row_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def per_row_cohort(records, names, ids=None, covariates=None) -> str:
    """The cohort file as the per-row writer wrote it, record by record."""
    def cells(st):
        if isinstance(st, Exact):
            return ["exact" if st.observed_jump else "exact_censored", repr(float(st.time)), ""]
        if isinstance(st, Interval):
            return ["interval", repr(float(st.lower)), repr(float(st.upper))]
        return ["survived_beyond", repr(float(st.time)), ""]
    ids = list(map(str, range(len(records)))) if ids is None else ids
    covariates = covariates or {}
    cov = sorted(covariates)
    return per_row_csv(["subject_id", "component", "status", "t1", "t2", *cov],
                       ([sid, name, *cells(st), *(repr(float(covariates[c][i])) for c in cov)]
                        for i, (sid, rec) in enumerate(zip(ids, records))
                        for name, st in zip(names, rec.statuses)))


def per_row_truth(times, names, ids=None) -> str:
    """The truth file as the per-row writer wrote it, blank for no jump."""
    ids = list(map(str, range(len(times)))) if ids is None else ids
    return per_row_csv(["subject_id", *names],
                       ([sid] + ["" if t == math.inf else repr(float(t)) for t in row]
                        for sid, row in zip(ids, times)))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_column_outputs_match_the_per_row_reference(tmp_path, capsys, monkeypatch, workload):
    # cohort, truth and loglik bytes of the column writers equal those of
    # per-row formatting, on the benchmark's model and scheme configs; the
    # writers format 300 subjects at a time here, the last block a short one
    monkeypatch.setattr(coarselik.io, "_BLOCK", 300)
    w = WORKLOADS[workload]
    model, scheme = tmp_path / "model.json", tmp_path / "scheme.json"
    model.write_text(json.dumps(w.model))
    scheme.write_text(json.dumps(w.scheme))
    cohort, truth = tmp_path / "cohort.csv", tmp_path / "truth.csv"
    n, seed = 2000, 7001
    assert main(["simulate", "--model", str(model), "--scheme", str(scheme), "--n", str(n),
                 "--seed", str(seed), "--out", str(cohort), "--truth", str(truth)]) == 0
    cfg = load_model_config(model)
    sch = load_scheme_config(scheme, cfg.component_names)
    times = simulate_cohort(cfg.build(), sch.horizon, n, seed)
    kind, x1, x2, flag = coarsen_cohort(sch, times)
    records = [record_from_codes(kind[i], x1[i], x2[i], flag[i]) for i in range(n)]
    assert cohort.read_bytes().decode() == per_row_cohort(records, cfg.component_names)
    assert truth.read_bytes().decode() == per_row_truth(times, cfg.component_names)

    capsys.readouterr()
    assert main(["loglik", "--model", str(model), "--scheme", str(scheme),
                 "--data", str(cohort)]) == 0
    per = per_subject_loglik(cfg.build(), records, sch.horizon)
    lines = ["subject_id,loglik"] + [f"{i},{repr(float(v))}" for i, v in enumerate(per)]
    assert capsys.readouterr().out == "\n".join(lines + [f"total,{repr(float(per.sum()))}"]) + "\n"


# each value at least twice in a block, among them both zeros and repr()'s
# switches between positional and exponent notation
EDGE_VALUES = [-0.0, 0.0, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
               0.30000000000000004, 1.2345678901234567, 2.0 / 3.0, 2.0]


def edge_times(n, rng):
    """(n, 2) jump times drawn from EDGE_VALUES and +inf, one block with
    -0.0 and 0.0 as illness and as death times, and the last subject alone
    in the last block of a writer."""
    times = rng.choice(EDGE_VALUES + [math.inf], size=(n, 2))
    times[:4] = [[-0.0, 0.0], [0.0, -0.0], [1e16, 9999999999999998.0], [1e-4, 1e-4]]
    times[-1] = [9.999999999999999e-05, -0.0]
    return times


def test_writers_match_the_per_row_reference_at_edge_values(tmp_path):
    # the cohort's t1 and t2, its covariate and the truth times share values,
    # 17-digit ones among them, across one block of coarselik.io._BLOCK
    # subjects and a one-subject block after it
    n = coarselik.io._BLOCK + 1
    rng = np.random.default_rng(11)
    times = edge_times(n, rng)
    lo, hi = np.sort(rng.choice(EDGE_VALUES[1:], size=(2, n)), axis=0)
    lo[:2] = [-0.0, 0.0]
    hi = np.where(hi > lo, hi, 1e16 + 2.0 * (lo == 1e16))   # 1e16 + 2 is the next double
    finite = np.isfinite(times[:, 0])
    codes = StatusCodes(np.array([np.where(finite, 0, 2), np.ones(n)], dtype=np.uint8).T,
                        np.array([np.where(finite, times[:, 0], 1.2345678901234567), lo]).T,
                        np.array([np.full(n, np.nan), hi]).T,
                        np.array([rng.random(n) < 0.5, np.zeros(n, dtype=bool)]).T)
    ids = [f'"{i}", q' if i % 3 == 0 else f" {i}" if i % 3 == 1 else str(i) for i in range(n)]
    names = ["ill, early", 'death "d"']
    covariates = {"x,y": rng.choice(EDGE_VALUES, size=n)}
    cohort, truth = tmp_path / "cohort.csv", tmp_path / "truth.csv"
    write_dataset(cohort, codes, subject_ids=ids, component_names=names, covariates=covariates)
    write_truth(truth, times, subject_ids=ids, component_names=names)
    assert cohort.read_bytes().decode() == per_row_cohort(codes.records(), names, ids, covariates)
    assert truth.read_bytes().decode() == per_row_truth(times, names, ids)


def test_simulate_matches_the_per_row_reference_at_edge_values(tmp_path, monkeypatch):
    # the CLI's cohort and truth files, from drawn times at the edge values
    # and visits and a horizon among them
    n = coarselik.io._BLOCK + 1
    times = edge_times(n, np.random.default_rng(12))
    monkeypatch.setattr(cli, "simulate_cohort", lambda model, horizon, n, seed: times)
    model, scheme = tmp_path / "model.json", tmp_path / "scheme.json"
    model.write_text(json.dumps(MODEL_JSON))
    scheme.write_text(json.dumps({
        "horizon": 1e16, "death_component": "death",
        "schedules": [{"component": "illness",
                       "visits": [9.999999999999999e-05, 1e-4, 0.30000000000000004,
                                  1.2345678901234567, 9999999999999998.0]},
                      {"component": "death", "windows": [[0.0, 1e16]]}]}))
    cohort, truth = tmp_path / "cohort.csv", tmp_path / "truth.csv"
    assert main(["simulate", "--model", str(model), "--scheme", str(scheme), "--n", str(n),
                 "--seed", "1", "--out", str(cohort), "--truth", str(truth)]) == 0
    sch = load_scheme_config(scheme, ["illness", "death"])
    records = coarsen_cohort(sch, times).records()
    assert cohort.read_bytes().decode() == per_row_cohort(records, ["illness", "death"])
    assert truth.read_bytes().decode() == per_row_truth(times, ["illness", "death"])


def test_simulate_refuses_a_truth_file_that_is_the_cohort_file(tmp_path, configs, capsys):
    # the two files would interleave; refused before anything is written,
    # under another spelling of the same path too
    model, scheme = configs
    same = tmp_path / "same.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme, "--n", "5", "--seed", "1",
                 "--out", str(same), "--truth", os.path.join(tmp_path, ".", "same.csv")]) == 2
    assert capsys.readouterr() == ("", "error: --truth names the same file as --out\n")
    assert not same.exists()


def test_outputs_never_overwrite_an_input(tmp_path, configs, capsys):
    # an --out naming the cohort, model or scheme file would destroy it
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme, "--n", "20", "--seed", "1",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    files = {"data": str(data), "model": model, "scheme": scheme}
    before = {path: Path(path).read_bytes() for path in files.values()}
    for cmd in ("simulate", "loglik", "fit"):
        inputs = ["--model", model, "--scheme", scheme]
        inputs += (["--n", "5", "--seed", "1"] if cmd == "simulate" else ["--data", str(data)])
        for opt, path in files.items():
            if cmd == "simulate" and opt == "data":
                continue
            other = os.path.join(os.path.dirname(path), ".", os.path.basename(path))
            assert main([cmd, *inputs, "--out", other]) == 2
            assert capsys.readouterr() == ("", f"error: --out names the same file as --{opt}\n")
    assert {path: Path(path).read_bytes() for path in files.values()} == before


def test_loglik_reproduces_worked_total(tmp_path, configs, capsys):
    model, scheme = configs
    data = tmp_path / "one.csv"
    data.write_text(
        "subject_id,component,status,t1,t2\n"
        "s,illness,interval,0.0,1.0\n"
        "s,death,exact_censored,2.0,\n")
    code = main(["loglik", "--model", model, "--scheme", scheme,
                 "--data", str(data), "--theta", "0.1,0.2," + repr(math.log(2.0))])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "subject_id,loglik"
    total = float(lines[-1].split(",")[1])
    assert total == pytest.approx(math.log(math.exp(-0.8) * (math.exp(0.1) - 1.0)),
                                  rel=1e-9)
    assert total == pytest.approx(-3.05219, abs=5e-5)


def test_loglik_out_file_matches_stdout(tmp_path, configs, capsys):
    model, scheme = configs
    data = tmp_path / "one.csv"
    data.write_text(
        "subject_id,component,status,t1,t2\n"
        "s,illness,survived_beyond,1.0,\n"
        "s,death,exact,1.5,\n")
    out = tmp_path / "ll.csv"
    code = main(["loglik", "--model", model, "--scheme", scheme,
                 "--data", str(data), "--out", str(out)])
    assert code == 0
    assert out.read_text() == capsys.readouterr().out


def test_loglik_flags_impossible_subjects(tmp_path, configs, capsys):
    model, scheme = configs
    zero_model = tmp_path / "zero.json"
    zero_model.write_text(json.dumps({
        "components": ["illness", "death"],
        "intensities": [
            {"component": "illness",
             "baseline": {"family": "piecewise", "grid": [6.0], "rates": [0.0, 0.1]}},
            {"component": "death",
             "baseline": {"family": "constant", "rate": 0.2}},
        ],
    }))
    data = tmp_path / "one.csv"
    data.write_text(
        "subject_id,component,status,t1,t2\n"
        "impossible,illness,interval,0.0,1.0\n"
        "impossible,death,exact_censored,2.0,\n")
    code = main(["loglik", "--model", str(zero_model), "--scheme", scheme,
                 "--data", str(data)])
    assert code == 1
    captured = capsys.readouterr()
    assert "-inf" in captured.out
    assert "impossible" in captured.err


def test_loglik_names_nan_subjects_as_nan(tmp_path, configs, capsys):
    # a finite eta whose exp overflows leaves nan log-likelihoods; they are
    # reported as nan, apart from the subjects whose value is minus infinity
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "50", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["loglik", "--model", model, "--scheme", scheme, "--data", str(data),
                 "--theta", "0.1,0.2,800"])
    assert code == 1
    captured = capsys.readouterr()
    values = [float(line.split(",")[1]) for line in captured.out.splitlines()[1:-1]]
    n_nan = sum(math.isnan(v) for v in values)
    n_minus_inf = sum(v == -math.inf for v in values)
    assert n_nan > 0
    expected = [f"log-likelihood is nan for {n_nan} subject(s): "]
    if n_minus_inf:
        expected.insert(0, f"log-likelihood is minus infinity for {n_minus_inf} subject(s): ")
    lines = captured.err.splitlines()
    assert len(lines) == len(expected)
    assert all(line.startswith(head) for line, head in zip(lines, expected))


def test_non_finite_modifier_values_exit_with_two(tmp_path, configs, capsys):
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "20", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "x.csv"
    for theta in ("0.1,0.2,inf", "0.1,0.2,-inf", "0.1,0.2,nan"):
        for argv in (["simulate", "--n", "20", "--seed", "1", "--out", str(out)],
                     ["loglik", "--data", str(data)],
                     ["fit", "--data", str(data)]):
            code = main([*argv, "--model", model, "--scheme", scheme, "--theta", theta])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "finite" in captured.err
    assert not out.exists()


def test_malformed_config_values_exit_with_two(tmp_path, configs, capsys):
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "20", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    bad_scheme = tmp_path / "bad_scheme.json"
    bad_scheme.write_text(json.dumps(dict(SCHEME_JSON, horizon="abc")))
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_text(json.dumps(dict(MODEL_JSON, theta=dict(MODEL_JSON["theta"], a01=None))))
    for m, s, field in ((model, bad_scheme, "'horizon'"), (bad_model, scheme, "'theta.a01'")):
        for cmd in ("loglik", "fit"):
            code = main([cmd, "--model", str(m), "--scheme", str(s), "--data", str(data)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err


STARTUP_GUARD = """\
import sys
import coarselik, coarselik.cli
from coarselik.cli import main
model, scheme, data, fitted = sys.argv[1:]
common = ["--model", model, "--scheme", scheme]
assert main(["simulate", *common, "--n", "60", "--seed", "3", "--out", data]) == 0
assert main(["loglik", *common, "--data", data]) == 0
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert main(["fit", *common, "--data", data, "--out", fitted]) == 0
print("scipy before fit:", before)
print("scipy.optimize after fit:", "scipy.optimize" in sys.modules)
"""


def test_simulate_and_loglik_never_import_scipy(tmp_path, configs):
    # a fresh interpreter: importing the package and running simulate and
    # loglik loads no scipy module; fit then loads scipy.optimize, which
    # shows that the check sees scipy when it is there
    model, scheme = configs
    src = Path(coarselik.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_GUARD, model, scheme,
         str(tmp_path / "cohort.csv"), str(tmp_path / "fit.json")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "scipy before fit: []" in lines
    assert "scipy.optimize after fit: True" in lines


def test_fit_round_trip(tmp_path, configs, capsys):
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "150", "--seed", "3", "--out", str(data)]) == 0
    report_path = tmp_path / "fit.json"
    code = main(["fit", "--model", model, "--scheme", scheme,
                 "--data", str(data), "--out", str(report_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    report = json.loads(report_path.read_text())
    assert report["converged"] is True
    assert report["n_subjects"] == 150
    assert set(report["theta"]) == {"a01", "a02", "eta12"}
    assert set(report["std_errors"]) == {"a01", "a02", "eta12"}
    assert report["loglik"] < 0


def test_fit_reports_tolerance_failures_on_stderr(tmp_path, configs, capsys, monkeypatch):
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "60", "--seed", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    real_fit = cli.fit_mle

    def two_failures(*args, **kwargs):
        res = real_fit(*args, **kwargs)
        res.n_tolerance_failures = 2
        return res

    monkeypatch.setattr(cli, "fit_mle", two_failures)
    code = main(["fit", "--model", model, "--scheme", scheme, "--data", str(data),
                 "--threads", "2"])
    assert code == 0
    assert capsys.readouterr().err == (
        "2 evaluation(s) ran out of quadrature budget and counted as -inf\n")


def test_fit_names_an_impossible_start_by_subject_id(tmp_path, capsys):
    # p7 falls ill after its death, which gates illness: its record has
    # probability zero, and fit names it as loglik does, not by its row
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "components": ["illness", "death"],
        "intensities": [
            {"component": "illness", "baseline": {"family": "constant", "rate": "a01"},
             "gates": ["death"]},
            {"component": "death", "baseline": {"family": "constant", "rate": "a02"}},
        ],
        "theta": {"a01": 0.1, "a02": 0.2},
    }))
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({
        "horizon": 5.0,
        "death_component": "death",
        "schedules": [{"component": "illness", "visits": [1.0, 2.0]},
                      {"component": "death", "windows": [[0.0, 5.0]]}],
    }))
    data = tmp_path / "cohort.csv"
    data.write_text(
        "subject_id,component,status,t1,t2\n"
        "p1,illness,survived_beyond,2.0,\n"
        "p1,death,exact_censored,5.0,\n"
        "p7,illness,interval,1.0,2.0\n"
        "p7,death,exact,0.5,\n")
    args = ["--model", str(model), "--scheme", str(scheme), "--data", str(data)]
    assert main(["loglik", *args]) == 1
    assert "p7" in capsys.readouterr().err
    assert main(["fit", *args]) == 2
    assert "first offending subject: p7)" in capsys.readouterr().err


def test_validate_smoke(capsys):
    code = main(["validate", "--n", "3000", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out
    assert "fail" not in out


def test_errors_exit_with_two(tmp_path, configs, capsys):
    model, scheme = configs
    code = main(["loglik", "--model", model, "--scheme", scheme,
                 "--data", str(tmp_path / "missing.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    code = main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"),
                 "--theta", "alpha"])
    assert code == 2
    assert "--theta" in capsys.readouterr().err

    # the embedded error check needs a finite, positive tolerance
    data = tmp_path / "one.csv"
    data.write_text(
        "subject_id,component,status,t1,t2\n"
        "s,illness,interval,0.0,1.0\n"
        "s,death,exact_censored,2.0,\n")
    for cmd in ("loglik", "fit"):
        for tol in ("0", "-1", "nan", "inf"):
            code = main([cmd, "--model", model, "--scheme", scheme, "--data", str(data),
                         "--tol", tol])
            assert code == 2
            assert "rel_tol" in capsys.readouterr().err

    # an empty cohort is refused by the writer, a negative count by the simulator
    for n in ("0", "-3"):
        code = main(["simulate", "--model", model, "--scheme", scheme,
                     "--n", n, "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_unused_covariate_columns_exit_with_two(tmp_path, configs, capsys):
    # no model slot reads a covariate column, so a cohort carrying one is refused
    model, scheme = configs
    data = tmp_path / "cov.csv"
    data.write_text(
        "subject_id,component,status,t1,t2,age,sex\n"
        "s,illness,interval,0.0,1.0,61.5,1.0\n"
        "s,death,exact_censored,2.0,,61.5,1.0\n")
    for cmd in ("loglik", "fit"):
        code = main([cmd, "--model", model, "--scheme", scheme, "--data", str(data)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "age, sex" in captured.err
