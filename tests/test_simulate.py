"""Counter-based simulation: reproducibility, chunk invariance, agreement
with the transition-probability oracle, and the record-probability check."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from benchmark_workloads import workloads
from coarselik.baselines import Constant, PiecewiseConstant, Weibull
from coarselik.catalog import illness_death, panel_death_scheme
from coarselik.errors import InvalidInputError
from coarselik.io import load_model_config
from coarselik.models import (
    IntensityModel,
    ModifierTerm,
    MultiplicativeComponent,
    PatternTableComponent,
)
from coarselik.observation import Exact, Interval, PseudoAtomRecord, coarsen
from coarselik.oracle import transition_matrix
from coarselik import simulate
from coarselik.simulate import (
    coarsen_cohort,
    mc_check,
    record_from_codes,
    simulate_cohort,
    simulate_path,
    subject_uniforms,
)

SPEC, MODEL = illness_death(0.1, 0.2, 0.4)
WEIBULL_MODEL = illness_death(Weibull(0.3, 1.4), Weibull(0.2, 0.8), Weibull(0.5, 1.2))[1]


def _workload_model(name):
    """The model of a benchmark workload, built from its config at its theta."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.json"
        path.write_text(json.dumps(workloads.WORKLOADS[name].model))
        return load_model_config(path).build()


DEMENTIA_MODEL = _workload_model("dementia-visits")


def test_same_seed_same_cohort():
    a = simulate_cohort(MODEL, 10.0, 50, seed=123)
    b = simulate_cohort(MODEL, 10.0, 50, seed=123)
    c = simulate_cohort(MODEL, 10.0, 50, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_stream_is_counter_addressed():
    whole = subject_uniforms(77, 0, 9, MODEL.p)
    part = subject_uniforms(77, 4, 3, MODEL.p)
    assert np.array_equal(part, whole[4:7])


@pytest.mark.parametrize("model", [MODEL, WEIBULL_MODEL, DEMENTIA_MODEL],
                         ids=["constant", "weibull", "dementia"])
def test_chunked_generation_matches_one_shot(model, monkeypatch):
    a = simulate_cohort(model, 10.0, 23, seed=5)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    b = simulate_cohort(model, 10.0, 23, seed=5)
    assert np.array_equal(a, b)
    tail = simulate_cohort(model, 10.0, 9, seed=5, start=14)
    assert np.array_equal(tail, a[14:])


# time-homogeneous models: rates constant between jumps
RACE_MODELS = {
    # illness gated by death, death modified by illness
    "illness-death": _workload_model("illness-death-panel"),
    # three modifiers on death, one of them the dementia-institution interaction
    "dementia": DEMENTIA_MODEL,
    # the death rate scales with the illness time (gamma != 0)
    "duration": IntensityModel([
        MultiplicativeComponent(0, Constant(0.3), gates=(1,)),
        MultiplicativeComponent(1, Constant(0.1), terms=(ModifierTerm((0,), 0.4, 0.25),),
                                log_offset=0.2)]),
    "pattern-table": MODEL,
    # component 1 never jumps, and after component 0 nothing can: a total rate of 0
    "zero-rate": IntensityModel([
        MultiplicativeComponent(0, Constant(0.4)),
        MultiplicativeComponent(1, Constant(0.0), gates=(2,)),
        MultiplicativeComponent(2, Constant(0.3), gates=(0,))]),
}


@pytest.mark.parametrize("name", sorted(RACE_MODELS))
def test_race_draws_the_cohorts_of_the_general_inversion(name, monkeypatch):
    model = RACE_MODELS[name]
    assert model.time_homogeneous
    race = [simulate_cohort(model, 10.0, 3000, seed) for seed in (1, 2, 3)]
    monkeypatch.setattr(IntensityModel, "time_homogeneous", property(lambda self: False))
    general = [simulate_cohort(model, 10.0, 3000, seed) for seed in (1, 2, 3)]
    for a, b in zip(race, general):
        assert np.isfinite(a).any() and np.isinf(a).any()
        assert np.array_equal(a, b)


def _per_path_rates(monkeypatch):
    """Make every race evaluate each path's rates: no model reads a table."""
    monkeypatch.setattr(IntensityModel, "rates_by_pattern", property(lambda self: False))


def _count_tables(monkeypatch):
    """The pattern tables the draws build, as a list: True for each they
    use, False for each dropped."""
    built = []
    make = simulate._pattern_table

    def counted(model, C):
        table = make(model, C)
        built.append(table is not None)
        return table

    monkeypatch.setattr(simulate, "_pattern_table", counted)
    return built


def test_a_gamma_takes_rates_off_the_pattern():
    # the death rate reads the illness time, not only that it has passed
    assert not RACE_MODELS["duration"].rates_by_pattern


@pytest.mark.parametrize("name", sorted(set(RACE_MODELS) - {"duration"}))
def test_pattern_table_draws_the_cohorts_of_per_path_rates(name, monkeypatch):
    model = RACE_MODELS[name]
    assert model.rates_by_pattern
    built = _count_tables(monkeypatch)
    seeds = (1, 2, 3)
    table = [simulate_cohort(model, 10.0, 3000, seed) for seed in seeds]
    assert built == [True] * len(seeds)
    # chunks of 7 paths: a table where 7 >= 2^p, per-path rates elsewhere
    chunk = simulate._CHUNK
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    chunked = simulate_cohort(model, 10.0, 3000, seeds[0])
    paths = [simulate_path(model, 10.0, seeds[0], index=i).times for i in range(0, 3000, 97)]
    _per_path_rates(monkeypatch)
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    per_path = [simulate_cohort(model, 10.0, 3000, seed) for seed in seeds]
    assert len(built) == len(seeds) + len(range(0, 3000, 7)) * (model.p == 2)
    for a, b in zip(table, per_path):
        assert np.isfinite(a).any() and np.isinf(a).any()
        assert np.array_equal(a, b)
    assert np.array_equal(chunked, table[0])
    assert paths == [tuple(row) for row in table[0][::97]]


def test_a_cohort_smaller_than_the_pattern_table_draws_the_same_rows(monkeypatch):
    # twelve components, each gated by the next and raised by the one before:
    # 2^12 patterns, more than 50 paths and fewer than 5 000
    p = 12
    model = IntensityModel([
        MultiplicativeComponent(j, Constant(0.02 + 0.01 * j), gates=((j + 1) % p,),
                                terms=(ModifierTerm(((j - 1) % p,), 0.3),))
        for j in range(p)])
    assert model.rates_by_pattern
    built = _count_tables(monkeypatch)
    small = simulate_cohort(model, 10.0, 50, seed=12)
    assert built == []
    large = simulate_cohort(model, 10.0, 5000, seed=12)
    assert built == [True]
    assert (np.isfinite(large).sum(axis=1) >= 3).any()
    assert np.array_equal(small, large[:50])


def test_a_pattern_no_path_reaches_does_not_warn(monkeypatch):
    # component 0 never jumps, so no path sees death's multiplier, whose
    # rate would overflow: the table is dropped for per-path rates
    model = IntensityModel([
        MultiplicativeComponent(0, Constant(0.0)),
        MultiplicativeComponent(1, Constant(1e300), terms=(ModifierTerm((0,), 700.0),))])
    assert model.rates_by_pattern
    built = _count_tables(monkeypatch)
    a = simulate_cohort(model, 10.0, 50, seed=5)
    assert built == [False]
    assert np.isinf(a[:, 0]).all() and (a[:, 1] < 1e-290).all()
    _per_path_rates(monkeypatch)
    assert np.array_equal(simulate_cohort(model, 10.0, 50, seed=5), a)


def test_weibull_and_piecewise_models_never_take_the_race():
    step = PiecewiseConstant([1.0, 2.5], [0.1, 0.3, 0.2])
    for model in (
            WEIBULL_MODEL,
            _workload_model("weibull-hybrid"),
            illness_death(step, 0.2, 0.4)[1],
            IntensityModel([MultiplicativeComponent(0, step)]),
            # one time-varying component is enough
            IntensityModel([MultiplicativeComponent(0, Constant(0.3), gates=(1,)),
                            MultiplicativeComponent(1, Weibull(0.2, 1.5))]),
            IntensityModel([PatternTableComponent(0, 2, {(0, 0): Constant(0.3)}),
                            PatternTableComponent(1, 2, {(0, 0): Constant(0.2),
                                                         (1, 0): step})])):
        assert not model.time_homogeneous


def _first_jumps(baseline, C, n, seed):
    """One-component jump times and the unit exponential each one inverts."""
    model = IntensityModel([MultiplicativeComponent(0, baseline)])
    times = simulate_cohort(model, C, n, seed)[:, 0]
    return times, -np.log1p(-subject_uniforms(seed, 0, n, 1)[:, 0])


def _assert_roots(times, root, C):
    assert np.array_equal(np.isinf(times), root > C)
    hit = np.isfinite(times)
    assert hit.any() and not hit.all()
    assert np.max(np.abs(times[hit] - root[hit])) <= 1e-13 * C


@pytest.mark.parametrize("shape", [0.3, 0.7, 1.5, 3.0])
def test_weibull_inversion_matches_closed_form_root(shape):
    a, C = 0.5, 2.0
    times, E = _first_jumps(Weibull(a, shape), C, 4000, seed=31)
    _assert_roots(times, (E / a) ** (1.0 / shape), C)


def test_step_inversion_matches_closed_form_root():
    # a zero-rate stretch leaves the cumulative hazard flat: the root is the
    # first time it reaches E, never inside the flat stretch
    edges, rates = np.array([0.0, 0.4, 0.9, 1.5]), np.array([0.5, 0.0, 1.2, 0.3])
    C = 2.0
    times, E = _first_jumps(PiecewiseConstant(edges[1:], rates), C, 4000, seed=32)
    cum = np.concatenate(([0.0], np.cumsum(rates[:-1] * np.diff(edges))))
    i = np.searchsorted(cum, E, side="left") - 1
    _assert_roots(times, edges[i] + (E - cum[i]) / rates[i], C)


def test_single_path_equals_cohort_row():
    cohort = simulate_cohort(MODEL, 10.0, 8, seed=40)
    path = simulate_path(MODEL, 10.0, seed=40, index=5)
    assert path.times == tuple(cohort[5])


def test_occupancy_against_transition_oracle():
    n = 100_000
    times = simulate_cohort(MODEL, 10.0, n, seed=2024)
    t = 1.0
    healthy = np.mean((times[:, 0] > t) & (times[:, 1] > t))
    ill = np.mean((times[:, 0] <= t) & (times[:, 1] > t))
    P = transition_matrix(SPEC, 0.0, t)
    for est, truth in ((healthy, P[0, 0]), (ill, P[0, 1])):
        se = math.sqrt(truth * (1.0 - truth) / n)
        assert abs(est - truth) <= 4.0 * se


def test_vectorized_coarsening_matches_scalar():
    scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    times = simulate_cohort(MODEL, 2.0, 300, seed=9)
    kind, x1, x2, flag = coarsen_cohort(scheme, times)
    for i in range(times.shape[0]):
        assert record_from_codes(kind[i], x1[i], x2[i], flag[i]) == coarsen(scheme, times[i])


def test_record_probability_estimate():
    # illness seen between the only two visits, alive at the horizon: the
    # record probability has a closed form to land on
    scheme = panel_death_scheme([1.0], 2.0)
    atom = PseudoAtomRecord((Interval(0.0, 1.0), Exact(2.0, False)))
    exact = math.exp(-0.8) * (math.exp(0.1) - 1.0)
    est, se, matches = mc_check(MODEL, scheme, atom, n_paths=120_000, seed=17)
    assert matches > 0
    assert abs(est - exact) <= 4.0 * se
    assert se < 0.01 * 5


def test_input_validation():
    with pytest.raises(InvalidInputError):
        simulate_cohort(MODEL, 10.0, -1, seed=0)
    with pytest.raises(InvalidInputError):
        simulate_cohort(MODEL, 10.0, 5, seed=0, start=-2)
    scheme = panel_death_scheme([1.0], 2.0)
    atom = PseudoAtomRecord((Interval(0.0, 1.0), Exact(2.0, False)))
    for n_paths in (0, -5):
        with pytest.raises(InvalidInputError):
            mc_check(MODEL, scheme, atom, n_paths=n_paths, seed=1)
