"""Command-line interface, exercised in process through main(argv)."""

import csv
import hashlib
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
from coarselik.errors import InvalidRecordError, InvalidStartError, ToleranceError
from coarselik.inference import fit_mle, per_subject_loglik
from coarselik.io import load_model_config, load_scheme_config, write_dataset, write_truth
from coarselik.observation import Exact, Interval, PseudoAtomRecord, StatusCodes
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


# SHA-256 of the cohort and truth files of CLI simulate at seed 4001, 2 000
# paths, on each benchmark workload's configs. A change to the draw or to the
# writers that moves a byte must update these and say why.
SIMULATE_DIGESTS = {
    "illness-death-panel": (
        "3475b21c08488beeb30d67e949f7cd30fb38cf0924c19e8f7b4b84d746f6ca10",
        "95c31d556290d428b0523b5128358b4ac355246265d6a730e13933f6a636c377"),
    "dementia-visits": (
        "27e4b5d0dec1c469f215df8d23c63bfdb30c82e9d0fb0883a60d6c9328233cd3",
        "b7dd4b8d48ba42e24c30f93b77461124d454ca43e3cf8a49703e8b77d7f9bd27"),
    "weibull-hybrid": (
        "639652abde12d34b62b48b46490e58e50687b022493a91cfa2770c43098cb9c0",
        "0336c1f238e6a7876cf0be0bbd16ecf0240b74bc7be36df73604392f92db7da7"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_simulate_bytes_are_pinned(tmp_path, workload):
    model, scheme = tmp_path / "model.json", tmp_path / "scheme.json"
    workloads.write_configs(WORKLOADS[workload], model, scheme)
    cohort, truth = tmp_path / "cohort.csv", tmp_path / "truth.csv"
    assert main(["simulate", "--model", str(model), "--scheme", str(scheme), "--n", "2000",
                 "--seed", "4001", "--out", str(cohort), "--truth", str(truth)]) == 0
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (cohort, truth)) == SIMULATE_DIGESTS[workload]


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


def test_theta_values_may_start_with_a_minus(tmp_path, capsys):
    # an identity slot (eta, gamma, coef) may be negative: the token after
    # --theta is its value, as after --theta=, also where argparse would
    # take it for an option (-1e-3 and -0.3,0.2 are not bare decimals)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(SCHEME_JSON))
    config = json.loads(json.dumps(MODEL_JSON))
    config["intensities"][0]["baseline"]["rate"] = 0.1
    config["intensities"][1]["baseline"]["rate"] = 0.2
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    one.write_text(json.dumps(dict(config, theta={"eta12": 0.5})))
    config["intensities"][1]["modifiers"][0]["gamma"] = "gamma12"
    two.write_text(json.dumps(dict(config, theta={"eta12": 0.5, "gamma12": 0.0})))
    data = tmp_path / "cohort.csv"
    for model, theta in ((one, "-1e-3"), (two, "-0.3,0.2")):
        common = ["--model", str(model), "--scheme", str(scheme)]
        outputs = []
        for given in (["--theta", theta], [f"--theta={theta}"]):
            assert main(["simulate", *common, "--n", "60", "--seed", "3",
                         "--out", str(data), *given]) == 0
            capsys.readouterr()
            cohort = data.read_bytes()
            assert main(["loglik", *common, "--data", str(data), *given]) == 0
            report = capsys.readouterr().out
            assert main(["fit", *common, "--data", str(data), *given]) in (0, 1)
            outputs.append((cohort, report, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][2].err == ""
        # the report is the log-likelihood at the negative values given
        cfg = load_model_config(model)
        codes = coarselik.io.read_dataset(data, cfg.component_names).codes
        model_at = cfg.build(cfg.theta_from([float(x) for x in theta.split(",")]))
        total = float(per_subject_loglik(model_at, codes, SCHEME_JSON["horizon"]).sum())
        assert outputs[0][1].splitlines()[-1] == f"total,{total!r}"


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


def test_loglik_report_quotes_subject_ids_as_the_cohort_writer_does(tmp_path, configs, capsys):
    # the report reads back as CSV, two fields a row, whatever the ids hold;
    # a plain id keeps its bytes
    model, scheme = configs
    ids = ["a,b", 'say "x"', "", "line\nbreak", " pad", "plain"]
    data = tmp_path / "ids.csv"
    records = [(Interval(0.0, 1.0), Exact(1.5, True))] * len(ids)
    write_dataset(data, [PseudoAtomRecord(r) for r in records], subject_ids=ids,
                  component_names=["illness", "death"])
    # the writers refuse a carriage return in a label; a quoted field can hold one
    with open(data, "a", newline="") as fh:
        fh.write('"cr\rid",illness,interval,0.0,1.0\n"cr\rid",death,exact,1.5,\n')
    ids.append("cr\rid")
    out = tmp_path / "ll.csv"
    assert main(["loglik", "--model", model, "--scheme", scheme, "--data", str(data),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_bytes().decode() == stdout
    rows = list(csv.reader(io.StringIO(stdout, newline="")))
    assert rows[0] == ["subject_id", "loglik"]
    assert [r[0] for r in rows[1:]] == ids + ["total"]
    assert {len(r) for r in rows} == {2}
    value = float(rows[1][1])
    assert [float(r[1]) for r in rows[1:-1]] == [value] * len(ids)
    assert f"\nplain,{value!r}\n" in stdout


def test_loglik_refuses_a_field_over_the_csv_limit(tmp_path, configs, capsys):
    # a field longer than csv.field_size_limit() is malformed input: exit 2,
    # the file and line named, and no traceback
    model, scheme = configs
    data = tmp_path / "long.csv"
    sid = "s" * 200_000
    data.write_text("subject_id,component,status,t1,t2\n"
                    f"{sid},illness,interval,0.0,1.0\n{sid},death,exact_censored,2.0,\n")
    assert main(["loglik", "--model", model, "--scheme", scheme, "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {data}: line 2: field larger than field limit "
                            f"({csv.field_size_limit()})\n")


def test_input_that_is_not_utf8_exits_with_two(tmp_path, configs, capsys):
    # a byte that does not decode, in the cohort or in either config, is
    # malformed input: exit 2, the file and the byte's offset named, and no
    # traceback
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    data.write_bytes(b"subject_id,component,status,t1,t2\n"
                     b"s\xff,illness,interval,0.0,1.0\ns\xff,death,exact_censored,2.0,\n")
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_bytes(json.dumps(dict(MODEL_JSON, name="\u00ff"), ensure_ascii=False).encode("latin-1"))
    bad_scheme = tmp_path / "bad_scheme.json"
    bad_scheme.write_bytes(b"\xff" + json.dumps(SCHEME_JSON).encode())
    good_data = tmp_path / "good.csv"
    good_data.write_text("subject_id,component,status,t1,t2\n"
                         "s,illness,interval,0.0,1.0\ns,death,exact_censored,2.0,\n")
    for m, s, d, bad in ((model, scheme, data, data), (str(bad_model), scheme, good_data, bad_model),
                         (model, str(bad_scheme), good_data, bad_scheme)):
        offset = Path(bad).read_bytes().index(b"\xff")
        for cmd in ("loglik", "fit"):
            assert main([cmd, "--model", m, "--scheme", s, "--data", str(d)]) == 2
            assert capsys.readouterr() == (
                "", f"error: {bad}: byte {offset}: not valid UTF-8 (invalid start byte)\n")


def test_inputs_with_a_byte_order_mark_read_as_without_it(tmp_path, configs, capsys):
    # spreadsheet programs start a "CSV UTF-8" file with U+FEFF: the cohort,
    # the model and the scheme each read as if it were not there
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "150", "--seed", "3", "--out", str(data)]) == 0
    marked = {}
    for path in (model, scheme, str(data)):
        marked[path] = tmp_path / f"bom_{Path(path).name}"
        marked[path].write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    capsys.readouterr()
    for cmd in ("loglik", "fit"):
        plain = [model, scheme, str(data)]
        assert main([cmd, "--model", model, "--scheme", scheme, "--data", str(data)]) == 0
        expected = capsys.readouterr()
        for k in range(3):
            paths = [str(marked[p]) if i == k else p for i, p in enumerate(plain)]
            assert main([cmd, "--model", paths[0], "--scheme", paths[1], "--data", paths[2]]) == 0
            assert capsys.readouterr() == expected, (cmd, paths)
    # a byte that does not decode is still named by its offset in the file
    bad = tmp_path / "bad.csv"
    bad.write_bytes(marked[str(data)].read_bytes().replace(b"\n0,", b"\n\xff,", 1))
    assert main(["loglik", "--model", model, "--scheme", scheme, "--data", str(bad)]) == 2
    offset = bad.read_bytes().index(b"\xff")
    assert capsys.readouterr() == (
        "", f"error: {bad}: byte {offset}: not valid UTF-8 (invalid start byte)\n")


def test_main_builds_its_parser_once_and_prints_what_a_fresh_process_prints(
        tmp_path, configs, capsys, monkeypatch):
    # each run in its own directory, so that the cohort's relative path,
    # which simulate prints, is the same
    model, scheme = configs
    common = ["--model", model, "--scheme", scheme]
    commands = (["simulate", *common, "--n", "30", "--seed", "5", "--out", "cohort.csv"],
                ["loglik", *common, "--data", "cohort.csv"])
    (tmp_path / "in").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "in")
    cli._build_parser.cache_clear()
    printed = []
    for argv in commands:
        assert main(argv) == 0
        printed.append(capsys.readouterr().out.encode())
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    src = Path(coarselik.__file__).resolve().parents[1]
    for argv, stdout in zip(commands, printed):
        proc = subprocess.run([sys.executable, "-m", "coarselik.cli", *argv],
                              capture_output=True, timeout=300, cwd=tmp_path / "fresh",
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout
    assert (tmp_path / "fresh" / "cohort.csv").read_bytes() == \
        (tmp_path / "in" / "cohort.csv").read_bytes()


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
    for theta, value in (("0.1,0.2,inf", "inf"), ("0.1,0.2,-inf", "-inf"),
                         ("0.1,0.2,nan", "nan"), ("nan,0.2,0.3", None)):
        for argv in (["simulate", "--n", "20", "--seed", "1", "--out", str(out)],
                     ["loglik", "--data", str(data)],
                     ["fit", "--data", str(data)]):
            code = main([*argv, "--model", model, "--scheme", scheme, "--theta", theta])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            # refused by the parameter's name, before any model is built
            assert captured.err == ("error: --theta: a01 is nan\n" if value is None
                                    else f"error: --theta: eta12 is {value}\n")
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
assert main(["fit", *common, "--data", data, "--out", fitted]) == 0
print("scipy after fit:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
import scipy.linalg
print("scipy after its import:", "scipy" in sys.modules)
"""


def test_simulate_loglik_and_fit_never_import_scipy(tmp_path, configs):
    # a fresh interpreter: importing the package and running simulate,
    # loglik and fit loads no scipy module; importing scipy then shows that
    # the check sees it when it is there
    model, scheme = configs
    src = Path(coarselik.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_GUARD, model, scheme,
         str(tmp_path / "cohort.csv"), str(tmp_path / "fit.json")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "scipy after fit: []" in lines
    assert "scipy after its import: True" in lines


IMPORT_SETS = """\
import sys
model, scheme, data, command = sys.argv[1:]
import coarselik, coarselik.cli
from coarselik.io import load_model_config, load_scheme_config
cfg = load_model_config(model)
load_scheme_config(scheme, cfg.component_names)
if command != "setup":
    argv = ["--model", model, "--scheme", scheme, "--data", data]
    if command == "simulate":
        argv = [*argv[:4], "--n", "20", "--seed", "3", "--out", data + ".sim"]
    assert coarselik.cli.main([command, *argv]) in (0, 1)
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "coarselik"))
"""

# the submodules that the benchmark's set-up loads: the file formats and the CLI
SETUP_MODULES = {"errors", "baselines", "models", "observation", "io", "cli"}


def test_each_command_loads_only_the_modules_it_uses(tmp_path, configs):
    # a fresh interpreter per command: importing the package and its CLI and
    # loading both configs (the benchmark's set-up) loads the file formats
    # alone, simulate no likelihood code, loglik and fit no simulator
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "60", "--seed", "3", "--out", str(data)]) == 0
    src = Path(coarselik.__file__).resolve().parents[1]
    loaded = {}
    for command in ("setup", "simulate", "loglik", "fit"):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SETS, model, scheme, str(data), command],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.splitlines()[-1].split()
        assert "coarselik" in names
        loaded[command] = {name.partition(".")[2] for name in names} - {""}
    assert loaded["setup"] == SETUP_MODULES
    assert loaded["simulate"] == SETUP_MODULES | {"simulate"}
    assert loaded["loglik"] == loaded["fit"] == SETUP_MODULES | {
        "inference", "likelihood", "quadrature"}


def test_python_m_coarselik_runs_the_command_line(tmp_path, configs):
    # `python -m coarselik` from a source checkout is the installed script
    model, scheme = configs
    src = Path(coarselik.__file__).resolve().parents[1]
    argv = ["simulate", "--model", model, "--scheme", scheme, "--n", "20", "--seed", "3"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "coarselik", *argv,
                           "--out", str(tmp_path / "a.csv")],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    proc = subprocess.run([sys.executable, "-m", "coarselik"],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 2 and proc.stderr.startswith("usage: coarselik ")


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


def test_fit_is_reproducible_and_thread_invariant(tmp_path, configs, capsys):
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "150", "--seed", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    outs = []
    for name, threads in (("a.json", 1), ("b.json", 1), ("c.json", 3)):
        report = tmp_path / name
        assert main(["fit", "--model", model, "--scheme", scheme, "--data", str(data),
                     "--out", str(report), "--threads", str(threads)]) == 0
        outs.append((capsys.readouterr().out, report.read_bytes()))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0][0] and outs[0][1]


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
    # probability zero, and fit names it as loglik does, not by its row;
    # p9 has p7's record, and p2 p1's, so the plan holds one copy of each,
    # and the fault is named by its first subject
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
        "p2,illness,survived_beyond,2.0,\n"
        "p2,death,exact_censored,5.0,\n"
        "p7,illness,interval,1.0,2.0\n"
        "p7,death,exact,0.5,\n"
        "p9,illness,interval,1.0,2.0\n"
        "p9,death,exact,0.5,\n")
    args = ["--model", str(model), "--scheme", str(scheme), "--data", str(data)]
    assert main(["loglik", *args]) == 1
    assert "log-likelihood is minus infinity for 2 subject(s): p7, p9" in capsys.readouterr().err
    assert main(["fit", *args]) == 2
    assert "first offending subject: p7)" in capsys.readouterr().err
    cfg = load_model_config(model)
    codes = coarselik.io.read_dataset(data, cfg.component_names).codes
    with pytest.raises(InvalidStartError) as exc:
        fit_mle(cfg.family, codes, 5.0, cfg.theta_from())
    assert exc.value.subject_index == 2
    assert str(exc.value) == "log-likelihood is -inf at the starting point (first offending subject: 2)"


def test_refused_record_is_named_by_subject_id(tmp_path, capsys):
    # p7 dies at 12, after the horizon of 10: loglik and fit refuse the
    # record and name it by its subject id, not by its row, and the
    # component by its name, not by its index; p9 has p7's record, and p2
    # p1's, and the fault is named by its first subject, in the library too
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
        "horizon": 10.0,
        "death_component": "death",
        "schedules": [{"component": "illness", "visits": [1.0, 2.0]},
                      {"component": "death", "windows": [[0.0, 10.0]]}],
    }))
    data = tmp_path / "cohort.csv"
    data.write_text(
        "subject_id,component,status,t1,t2\n"
        "p1,illness,survived_beyond,2.0,\n"
        "p1,death,exact_censored,10.0,\n"
        "p2,illness,survived_beyond,2.0,\n"
        "p2,death,exact_censored,10.0,\n"
        "p7,illness,survived_beyond,2.0,\n"
        "p7,death,exact,12,\n"
        "p9,illness,survived_beyond,2.0,\n"
        "p9,death,exact,12,\n")
    args = ["--model", str(model), "--scheme", str(scheme), "--data", str(data)]
    for cmd in ("loglik", "fit"):
        assert main([cmd, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {data}: subject p7: component 'death': "
                                "jump time 12.0 outside (0, 10.0]\n")
    cfg = load_model_config(model)
    codes = coarselik.io.read_dataset(data, cfg.component_names).codes
    for call in (lambda: per_subject_loglik(cfg.build(cfg.theta_from()), codes, 10.0),
                 lambda: fit_mle(cfg.family, codes, 10.0, cfg.theta_from())):
        with pytest.raises(InvalidRecordError) as exc:
            call()
        assert (exc.value.record_index, exc.value.component) == (2, 1)
        assert str(exc.value) == "record 2: component 1: jump time 12.0 outside (0, 10.0]"


def test_record_past_the_budget_is_named_by_subject_id(tmp_path, capsys):
    # at rates 1, s2's three intervals of length 6 miss the error check on
    # the coarse plan, and refining them passes the default max_evals: loglik
    # and fit refuse the record by its subject id (at the config's rates the
    # coarse plan settles it); s2b has s2's record, and s1b s1's, and the
    # fault is named by its first subject, in the library too
    w = workloads.WORKLOADS["dementia-visits"]
    workloads.write_configs(w, tmp_path / "model.json", tmp_path / "scheme.json")
    scheme = {**w.scheme, "horizon": 7.0}
    scheme["schedules"] = [*scheme["schedules"][:2], {"component": "death",
                                                      "windows": [[0.0, 7.0]]}]
    (tmp_path / "scheme.json").write_text(json.dumps(scheme))
    data = tmp_path / "cohort.csv"
    data.write_text(
        "subject_id,component,status,t1,t2\n"
        "s1,dementia,interval,1.0,2.0\n"
        "s1,institution,survived_beyond,4.0,\n"
        "s1,death,exact_censored,7.0,\n"
        "s1b,dementia,interval,1.0,2.0\n"
        "s1b,institution,survived_beyond,4.0,\n"
        "s1b,death,exact_censored,7.0,\n"
        "s2,dementia,interval,0.2,6.2\n"
        "s2,institution,interval,0.3,6.3\n"
        "s2,death,interval,0.5,6.5\n"
        "s2b,dementia,interval,0.2,6.2\n"
        "s2b,institution,interval,0.3,6.3\n"
        "s2b,death,interval,0.5,6.5\n")
    args = ["--model", str(tmp_path / "model.json"), "--scheme", str(tmp_path / "scheme.json"),
            "--data", str(data), "--theta", "1,1,1"]
    for cmd in ("loglik", "fit"):
        assert main([cmd, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {data}: subject s2: "
                                "needs more than max_evals = 100000 quadrature nodes\n")
    cfg = load_model_config(tmp_path / "model.json")
    codes = coarselik.io.read_dataset(data, cfg.component_names).codes
    theta = np.ones(3)
    for call in (lambda: per_subject_loglik(cfg.build(theta), codes, 7.0),
                 lambda: fit_mle(cfg.family, codes, 7.0, theta)):
        with pytest.raises(ToleranceError) as exc:
            call()
        assert exc.value.record_index == 2
        assert str(exc.value) == "record 2: needs more than max_evals = 100000 quadrature nodes"


def test_validate_smoke(capsys):
    code = main(["validate", "--n", "3000", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out
    assert "fail" not in out


@pytest.mark.parametrize("theta, field", [("0.1,,0.2,0.693", 2), (",0.1,0.2,0.693", 1),
                                          ("0.1,0.2,0.693,", 4), ("0.1, ,0.2", 2)])
def test_empty_theta_fields_are_refused(tmp_path, configs, capsys, theta, field):
    # an empty field is not skipped: "0.1,,0.2,0.693" is not three values
    model, scheme = configs
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--model", model, "--scheme", scheme,
                 "--n", "20", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    for argv in (["loglik", "--data", str(data)], ["fit", "--data", str(data)]):
        assert main([*argv, "--model", model, "--scheme", scheme, "--theta", theta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --theta: field {field} of {theta.count(',') + 1} "
                                f"is empty in {theta!r}\n")


def test_non_finite_config_numbers_exit_with_two(tmp_path, configs, capsys):
    # json reads NaN: the loader refuses it by file and field, before any
    # model is built or any cohort written
    model, scheme = configs
    out = tmp_path / "out.csv"
    bad = json.loads(json.dumps(MODEL_JSON))
    bad["intensities"][0]["baseline"]["rate"] = math.nan
    bad_model = tmp_path / "nan-model.json"
    bad_model.write_text(json.dumps(bad))
    bad = json.loads(json.dumps(SCHEME_JSON))
    bad["schedules"][0]["visits"] = [0.5, math.nan, 1.5]
    bad_scheme = tmp_path / "nan-scheme.json"
    bad_scheme.write_text(json.dumps(bad))
    for m, s, message in (
            (bad_model, scheme, f"{bad_model}: field 'intensities[0].baseline.rate': nan is not finite"),
            (model, bad_scheme, f"{bad_scheme}: field 'schedules[0].visits[1]': nan is not finite")):
        for argv in (["simulate", "--n", "20", "--seed", "1", "--out", str(out)],
                     ["fit", "--data", str(out)]):
            assert main([*argv, "--model", str(m), "--scheme", str(s)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


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
