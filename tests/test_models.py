"""One-jump component intensities: gating, multiplicative modifiers, and the
closed-form cumulative hazards that back them."""

import numpy as np
import pytest

from coarselik.baselines import Constant, PiecewiseConstant, Weibull
from coarselik.errors import InvalidInputError
from coarselik.models import (
    IntensityModel,
    JumpHistory,
    ModifierTerm,
    MultiplicativeComponent,
    PatternTableComponent,
    cumulative_intensity,
    intensity_eval,
)
from coarselik.quadrature import integrate_1d

INF = np.inf


def death_interplay_model():
    """Three components where the first two multiply the third's intensity."""
    dem = MultiplicativeComponent(0, Constant(0.1), gates=(2,))
    inst = MultiplicativeComponent(1, Constant(0.15), gates=(2,))
    death = MultiplicativeComponent(
        2, Constant(0.2),
        terms=(ModifierTerm((0,), 0.2), ModifierTerm((1,), 0.1),
               ModifierTerm((0, 1), 0.05)),
    )
    return IntensityModel((dem, inst, death))


def test_worked_death_intensity_both_events_past():
    model = death_interplay_model()
    lam = intensity_eval(model, 2, 1.0, [0.3, 0.6, INF])
    assert lam == pytest.approx(0.2 * np.exp(0.35), rel=1e-12)
    assert lam == pytest.approx(0.2838135, abs=5e-7)


def test_modifiers_activate_one_at_a_time():
    model = death_interplay_model()
    assert intensity_eval(model, 2, 1.0, [INF, INF, INF]) == pytest.approx(0.2)
    assert intensity_eval(model, 2, 1.0, [0.3, INF, INF]) == pytest.approx(0.2 * np.exp(0.2))
    assert intensity_eval(model, 2, 1.0, [INF, 0.3, INF]) == pytest.approx(0.2 * np.exp(0.1))
    # a modifier switches on strictly after the trigger jump
    assert intensity_eval(model, 2, 0.3, [0.3, INF, INF]) == pytest.approx(0.2)


def test_gate_zeroes_intensity_after_trigger():
    model = death_interplay_model()
    assert intensity_eval(model, 0, 1.0, [INF, INF, 0.4]) == 0.0
    assert intensity_eval(model, 0, 0.4, [INF, INF, 0.4]) == pytest.approx(0.1)


def test_duration_modifier_scales_trigger_time():
    comp = MultiplicativeComponent(
        1, Constant(0.3), terms=(ModifierTerm((0,), 0.1, gamma=0.5),))
    model = IntensityModel((MultiplicativeComponent(0, Constant(0.2)), comp))
    lam = intensity_eval(model, 1, 2.0, [1.2, INF])
    assert lam == pytest.approx(0.3 * np.exp(0.1 + 0.5 * 1.2), rel=1e-12)


def test_modifier_validation():
    with pytest.raises(InvalidInputError):
        ModifierTerm((), 0.1)
    with pytest.raises(InvalidInputError):
        ModifierTerm((0, 0), 0.1)
    with pytest.raises(InvalidInputError):
        ModifierTerm((0, 1), 0.1, gamma=0.4)
    with pytest.raises(InvalidInputError):
        MultiplicativeComponent(0, Constant(0.1), gates=(0,))
    with pytest.raises(InvalidInputError):
        MultiplicativeComponent(1, Constant(0.1), terms=(ModifierTerm((1,), 0.2),))


@pytest.mark.parametrize("eta, gamma", [(INF, 0.0), (-INF, 0.0), (np.nan, 0.0),
                                        (0.1, INF), (0.1, np.nan)])
def test_modifier_values_must_be_finite(eta, gamma):
    with pytest.raises(InvalidInputError, match="finite"):
        ModifierTerm((0,), eta, gamma)


@pytest.mark.parametrize("offset", [INF, -INF, np.nan])
def test_log_offset_must_be_finite(offset):
    with pytest.raises(InvalidInputError, match="log_offset"):
        MultiplicativeComponent(1, Constant(0.1), log_offset=offset)


def test_components_must_sit_at_their_own_index():
    with pytest.raises(InvalidInputError):
        IntensityModel((MultiplicativeComponent(1, Constant(0.1)),))


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_cum_matches_quadrature(seed):
    rng = np.random.default_rng(seed)
    base = [Constant(0.2), Weibull(0.3, 1.4), PiecewiseConstant((1.0,), (0.1, 0.4))][seed % 3]
    comp = MultiplicativeComponent(
        2, base, gates=(0,),
        terms=(ModifierTerm((1,), 0.4, gamma=0.2), ModifierTerm((3,), -0.3)),
    )
    model = IntensityModel((
        MultiplicativeComponent(0, Constant(0.1)),
        MultiplicativeComponent(1, Constant(0.1)),
        comp,
        MultiplicativeComponent(3, Constant(0.1)),
    ))
    T = [rng.uniform(0.1, 3.0) if rng.random() < 0.6 else INF for _ in range(4)]
    t0, t1 = sorted(rng.uniform(0.0, 3.0, 2))
    closed = cumulative_intensity(model, 2, t0, t1, T)
    # rate is the pre-jump intensity, so the reference integral must stop at
    # the component's own jump by hand (cum does that cut internally)
    hi = min(t1, T[2])
    cuts = [x for x in T if np.isfinite(x)] + list(base.breakpoints)
    numeric = 0.0
    if hi > t0:
        numeric = integrate_1d(lambda s: model.rate(2, s, T), t0, hi,
                               breakpoints=cuts, rel_tol=1e-11).value
    assert np.isclose(closed, numeric, rtol=1e-9, atol=1e-12)


def test_cum_cut_at_own_jump():
    comp = MultiplicativeComponent(0, Constant(0.5))
    model = IntensityModel((comp, MultiplicativeComponent(1, Constant(0.1))))
    # integration stops at the component's own jump time
    assert cumulative_intensity(model, 0, 0.0, 4.0, [1.5, INF]) == pytest.approx(0.75)
    assert cumulative_intensity(model, 0, 2.0, 4.0, [1.5, INF]) == 0.0


def test_cum_additivity():
    model = death_interplay_model()
    T = [0.7, INF, INF]
    whole = cumulative_intensity(model, 2, 0.0, 3.0, T)
    split = (cumulative_intensity(model, 2, 0.0, 1.1, T)
             + cumulative_intensity(model, 2, 1.1, 3.0, T))
    assert whole == pytest.approx(split, rel=1e-12)


def test_cum_of_a_modifier_past_exp_overflow():
    # a modifier that switches on inside the range keeps its exact product,
    # inf once exp(eta) overflows; one that never does adds exactly nothing
    T = [np.array([4.0, 10.0]), np.array([INF, INF])]
    for eta, want in ((0.7, 0.2 * 10.0 + (np.exp(0.7) - 1.0) * (0.2 * 10.0 - 0.2 * 4.0)),
                      (800.0, INF)):
        death = MultiplicativeComponent(1, Constant(0.2), terms=(ModifierTerm((0,), eta),))
        with np.errstate(over="ignore"):
            got = death.cum(0.0, 10.0, T)
        assert got.tolist() == [want, 2.0]


def test_pattern_table_matches_multiplicative():
    # the same death intensity written as an explicit pattern table
    table = {
        (0, 0, 0): Constant(0.2),
        (1, 0, 0): Constant(0.2 * np.exp(0.2)),
        (0, 1, 0): Constant(0.2 * np.exp(0.1)),
        (1, 1, 0): Constant(0.2 * np.exp(0.35)),
    }
    tab = PatternTableComponent(2, 3, table)
    mult = death_interplay_model().components[2]
    rng = np.random.default_rng(3)
    for _ in range(200):
        T = [rng.uniform(0.1, 2.0) if rng.random() < 0.5 else INF for _ in range(3)]
        t = rng.uniform(0.05, 2.5)
        np.testing.assert_allclose(tab.rate(t, T), mult.rate(t, T), rtol=1e-12)
        t0, t1 = sorted(rng.uniform(0.0, 2.5, 2))
        np.testing.assert_allclose(tab.cum(t0, t1, T), mult.cum(t0, t1, T), rtol=1e-12)


def test_pattern_table_rejects_own_bit():
    with pytest.raises(InvalidInputError):
        PatternTableComponent(0, 2, {(1, 0): Constant(0.1)})


def test_intensity_nonnegative_and_zero_after_own_jump():
    model = death_interplay_model()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        T = [rng.uniform(0.05, 2.0) if rng.random() < 0.5 else INF for _ in range(3)]
        t = rng.uniform(0.01, 2.5)
        for j in range(3):
            lam = intensity_eval(model, j, t, T)
            assert lam >= 0.0
    # the pre-jump intensity ignores the component's own jump entry
    assert intensity_eval(model, 2, 1.0, [INF, INF, 0.2]) == pytest.approx(0.2)


def test_jump_history_validation_and_eval_times():
    h = JumpHistory(((0.5, True), (2.0, False)), horizon=2.0)
    np.testing.assert_array_equal(h.eval_times(), [0.5, np.inf])
    with pytest.raises(InvalidInputError):
        JumpHistory(((0.5, True), (1.7, False)), horizon=2.0)
    with pytest.raises(InvalidInputError):
        JumpHistory(((2.5, True), (2.0, False)), horizon=2.0)


def test_history_vector_and_jump_history_agree():
    model = death_interplay_model()
    h = JumpHistory(((0.5, True), (2.0, False), (2.0, False)), horizon=2.0)
    a = intensity_eval(model, 2, 1.0, h)
    b = intensity_eval(model, 2, 1.0, [0.5, INF, INF])
    assert a == b
