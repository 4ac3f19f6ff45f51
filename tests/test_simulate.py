"""Counter-based simulation: reproducibility, chunk invariance, agreement
with the transition-probability oracle, and the record-probability check."""

import math

import numpy as np
import pytest

from coarselik.baselines import PiecewiseConstant, Weibull
from coarselik.catalog import illness_death, panel_death_scheme
from coarselik.errors import InvalidInputError
from coarselik.models import IntensityModel, MultiplicativeComponent
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


@pytest.mark.parametrize("model", [MODEL, WEIBULL_MODEL], ids=["constant", "weibull"])
def test_chunked_generation_matches_one_shot(model, monkeypatch):
    a = simulate_cohort(model, 10.0, 23, seed=5)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    b = simulate_cohort(model, 10.0, 23, seed=5)
    assert np.array_equal(a, b)
    tail = simulate_cohort(model, 10.0, 9, seed=5, start=14)
    assert np.array_equal(tail, a[14:])


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
