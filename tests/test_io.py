"""CSV cohort files and JSON model/scheme configs."""

import json
import math

import numpy as np
import pytest

from coarselik.errors import InvalidInputError
from coarselik.io import (
    load_model_config,
    load_scheme_config,
    read_dataset,
    write_dataset,
    write_truth,
)
from coarselik.observation import Exact, Interval, PseudoAtomRecord, SurvivedBeyond

INF = np.inf

RECORDS = [
    PseudoAtomRecord((Interval(0.0, 1.0), Exact(2.0, False))),
    PseudoAtomRecord((SurvivedBeyond(1.5), Exact(0.7331264357, True))),
    PseudoAtomRecord((Exact(0.25, True), Exact(2.0, False))),
]


def test_dataset_round_trip(tmp_path):
    path = tmp_path / "cohort.csv"
    write_dataset(path, RECORDS, subject_ids=["s1", "s2", "s3"],
                  component_names=["illness", "death"],
                  covariates={"age": [61.5, 70.25, 58.0]})
    ds = read_dataset(path)
    assert ds.subject_ids == ("s1", "s2", "s3")
    assert ds.component_names == ("illness", "death")
    assert ds.records == tuple(RECORDS)
    assert ds.covariates == {"age": (61.5, 70.25, 58.0)}
    # writing the parsed dataset again reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_dataset(again, ds.records, subject_ids=ds.subject_ids,
                  component_names=ds.component_names, covariates=ds.covariates)
    assert again.read_bytes() == path.read_bytes()


def test_dataset_column_order_override(tmp_path):
    path = tmp_path / "cohort.csv"
    write_dataset(path, RECORDS, component_names=["illness", "death"])
    ds = read_dataset(path, component_names=["death", "illness"])
    assert ds.records[0] == PseudoAtomRecord((Exact(2.0, False), Interval(0.0, 1.0)))


def test_dataset_diagnostics_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,0.5,\n"
        "a,y,intervall,0.1,0.2\n")
    with pytest.raises(InvalidInputError, match=r"line 3.*status"):
        read_dataset(path)

    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,fast,\n")
    with pytest.raises(InvalidInputError, match=r"line 2.*'t1'.*fast"):
        read_dataset(path)

    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,0.5,\n"
        "b,x,exact,0.5,\n"
        "b,y,exact_censored,2.0,\n")
    with pytest.raises(InvalidInputError, match=r"subject 'a'.*component set"):
        read_dataset(path, component_names=["x", "y"])


def test_dataset_covariates_must_be_constant_within_subject(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,0.5,\n"
        "a,x,exact,0.6,\n")
    with pytest.raises(InvalidInputError, match="duplicate component"):
        read_dataset(path)

    path.write_text(
        "subject_id,component,status,t1,t2,age\n"
        "a,x,exact,0.5,,60\n"
        "a,y,exact,0.7,,61\n")
    with pytest.raises(InvalidInputError, match="covariate changes within subject"):
        read_dataset(path)


def test_truth_file_blank_means_no_jump(tmp_path):
    path = tmp_path / "truth.csv"
    write_truth(path, np.array([[0.5, INF], [INF, 1.25]]),
                component_names=["illness", "death"])
    assert path.read_text() == (
        "subject_id,illness,death\n"
        "0,0.5,\n"
        "1,,1.25\n")


@pytest.mark.parametrize("labels", [
    {"subject_ids": ["a"]},
    {"subject_ids": ["a", "b", "c"]},
    {"subject_ids": ["a", "a"]},
    {"component_names": ["illness"]},
    {"component_names": ["illness", "illness"]},
])
def test_truth_file_checks_its_labels(tmp_path, labels):
    # one distinct id per row and one distinct name per column, as for cohorts
    path = tmp_path / "truth.csv"
    with pytest.raises(InvalidInputError, match="need one distinct"):
        write_truth(path, np.array([[0.5, INF], [INF, 1.25]]), **labels)
    assert not path.exists()


MODEL_JSON = {
    "name": "progressive pair",
    "units": "years",
    "components": ["illness", "death"],
    "intensities": [
        {"component": "illness",
         "baseline": {"family": "weibull", "a": "shape_a", "b": 1.4},
         "gates": ["death"]},
        {"component": "death",
         "baseline": {"family": "constant", "rate": "base_death"},
         "modifiers": [{"when": ["illness"], "eta": "eta_ill"}]},
    ],
    "theta": {"shape_a": 0.3, "base_death": 0.2, "eta_ill": 0.7},
}


def test_model_config_build_and_theta(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_JSON))
    cfg = load_model_config(path)
    assert cfg.name == "progressive pair"
    assert cfg.component_names == ("illness", "death")
    # parameters appear in first-use order with positivity transforms for
    # baseline magnitudes and free transforms for log-scale effects
    assert cfg.family.param_names == ("shape_a", "base_death", "eta_ill")
    assert cfg.family.transforms == ("log", "log", "identity")

    model = cfg.build()
    t = 0.8
    assert model.rate(0, t, [INF, INF]) == pytest.approx(0.3 * 1.4 * t ** 0.4, rel=1e-12)
    assert model.rate(0, t, [INF, 0.5]) == 0.0
    assert model.rate(1, t, [0.5, INF]) == pytest.approx(0.2 * math.exp(0.7), rel=1e-12)

    theta = cfg.theta_from({"eta_ill": -0.1})
    assert np.allclose(theta, [0.3, 0.2, -0.1])
    theta = cfg.theta_from([0.4, 0.1, 0.0])
    assert np.allclose(theta, [0.4, 0.1, 0.0])
    with pytest.raises(InvalidInputError, match="unknown parameters"):
        cfg.theta_from({"nope": 1.0})
    with pytest.raises(InvalidInputError, match="expected 3 parameter values"):
        cfg.theta_from([0.4, 0.1])


def test_model_config_piecewise_grid_becomes_fixed_breakpoints(tmp_path):
    cfg_json = {
        "components": ["x"],
        "intensities": [
            {"component": "x",
             "baseline": {"family": "piecewise", "grid": [1.0, 2.5],
                          "rates": ["r0", "r1", "r2"]}},
        ],
        "theta": {"r0": 0.1, "r1": 0.2, "r2": 0.05},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg_json))
    cfg = load_model_config(path)
    assert cfg.family.fixed_breakpoints == (1.0, 2.5)
    model = cfg.build()
    assert model.rate(0, 1.7, [INF]) == pytest.approx(0.2)


def test_model_config_rejects_mistakes(tmp_path):
    path = tmp_path / "model.json"

    bad = dict(MODEL_JSON, typo_key=1)
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="unknown top-level keys"):
        load_model_config(path)

    bad = dict(MODEL_JSON, theta={"shape_a": 0.3, "ghost": 1.0})
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="undeclared"):
        load_model_config(path)

    bad = dict(MODEL_JSON)
    bad["intensities"] = [MODEL_JSON["intensities"][0]] * 2
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="duplicate intensity"):
        load_model_config(path)

    # one name cannot be both a positive baseline magnitude and a free effect
    bad = json.loads(json.dumps(MODEL_JSON))
    bad["intensities"][1]["modifiers"][0]["eta"] = "base_death"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="base_death"):
        load_model_config(path)

    path.write_text("{not json")
    with pytest.raises(InvalidInputError, match="invalid JSON"):
        load_model_config(path)


SCHEME_JSON = {
    "horizon": 2.0,
    "death_component": "death",
    "schedules": [
        {"component": "illness", "visits": [0.5, 1.0, 1.5]},
        {"component": "death", "windows": [[0.0, 2.0]]},
    ],
}


def test_scheme_config(tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(SCHEME_JSON))
    scheme = load_scheme_config(path, ["illness", "death"])
    assert scheme.horizon == 2.0
    assert scheme.death_component == 1
    assert scheme.schedules[0].visits == (0.5, 1.0, 1.5)
    assert scheme.schedules[1].windows == ((0.0, 2.0),)


def test_scheme_config_rejects_mistakes(tmp_path):
    path = tmp_path / "scheme.json"

    bad = {k: v for k, v in SCHEME_JSON.items() if k != "horizon"}
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="'horizon'"):
        load_scheme_config(path, ["illness", "death"])

    bad = dict(SCHEME_JSON, extra=1)
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="unknown top-level keys"):
        load_scheme_config(path, ["illness", "death"])

    bad = json.loads(json.dumps(SCHEME_JSON))
    bad["schedules"][1]["component"] = "illness"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="duplicate schedule"):
        load_scheme_config(path, ["illness", "death"])

    bad = json.loads(json.dumps(SCHEME_JSON))
    bad["death_component"] = "ghost"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="unknown component 'ghost'"):
        load_scheme_config(path, ["illness", "death"])

    bad = json.loads(json.dumps(SCHEME_JSON))
    bad["schedules"][0]["visits"] = [1.0, 0.5]
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match=r"schedules\[0\]"):
        load_scheme_config(path, ["illness", "death"])
