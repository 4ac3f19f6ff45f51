"""Command-line interface, exercised in process through main(argv)."""

import json
import math

import pytest

import coarselik.cli as cli
from coarselik.cli import main

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
