"""Observed-data likelihood for coarse records: normalized density, corner
expansion over survivor subsets, and conditioning on a jump-free start."""

import math

import numpy as np
import pytest

from coarselik.catalog import illness_death
from coarselik.errors import InconsistentObservationError, InvalidInputError
from coarselik.likelihood import (
    conditional_loglik,
    f_theta,
    loglik_atom,
    loglik_continuous,
)
from coarselik.baselines import Constant, PiecewiseConstant
from coarselik.models import IntensityModel, JumpHistory, MultiplicativeComponent
from coarselik.observation import Exact, Interval, PseudoAtomRecord, SurvivedBeyond

INF = np.inf


def independent_pair(alpha, beta):
    """Two components that never interact: product-exponential law."""
    return IntensityModel((
        MultiplicativeComponent(0, Constant(alpha)),
        MultiplicativeComponent(1, Constant(beta)),
    ))


def test_density_worked_value():
    _, model = illness_death(0.1, 0.2, 0.3)
    val = f_theta(model, (0.5, 1.5), 2.0)
    assert val == pytest.approx(0.1 * 0.3 * math.exp(-0.45), rel=1e-12)
    assert val == pytest.approx(0.0191288, abs=5e-8)


def test_density_no_jump_coordinate():
    # s_j = C drops that component's rate factor but keeps its exposure
    _, model = illness_death(0.1, 0.2, 0.3)
    val = f_theta(model, (0.5, 2.0), 2.0)
    assert val == pytest.approx(0.1 * math.exp(-(0.05 + 0.1 + 0.45)), rel=1e-12)


def test_density_validation():
    _, model = illness_death(0.1, 0.2, 0.3)
    with pytest.raises(InvalidInputError):
        f_theta(model, (0.5,), 2.0)
    with pytest.raises(InvalidInputError):
        f_theta(model, (0.0, 1.0), 2.0)
    with pytest.raises(InvalidInputError):
        f_theta(model, (0.5, 2.5), 2.0)


def test_density_vectorized_matches_scalar():
    _, model = illness_death(0.1, 0.2, 0.3)
    s1 = np.linspace(0.1, 1.4, 7)
    vec = f_theta(model, (s1, 1.5), 2.0)
    for k, x in enumerate(s1):
        assert vec[k] == pytest.approx(f_theta(model, (x, 1.5), 2.0), rel=1e-14)


def test_continuous_path_is_log_density():
    _, model = illness_death(0.1, 0.2, 0.3)
    hist = JumpHistory(((0.5, True), (1.5, True)), 2.0)
    assert loglik_continuous(model, hist) == pytest.approx(
        math.log(f_theta(model, (0.5, 1.5), 2.0)), rel=1e-14)
    # survivor path: no-jump stamps carry the horizon
    hist2 = JumpHistory(((2.0, False), (2.0, False)), 2.0)
    assert loglik_continuous(model, hist2) == pytest.approx(-0.6, rel=1e-12)


def test_all_exact_record_equals_continuous_path():
    _, model = illness_death(0.1, 0.2, 0.4)
    atom = PseudoAtomRecord((Exact(0.5, True), Exact(1.2, True)))
    hist = JumpHistory(((0.5, True), (1.2, True)), 2.0)
    assert loglik_atom(model, atom, 2.0) == pytest.approx(
        loglik_continuous(model, hist), rel=1e-14)


def test_interval_plus_watched_survivor_worked_value():
    # illness only known to land in (0, 1]; death watched throughout, alive at 2
    _, model = illness_death(0.1, 0.2, 0.4)
    atom = PseudoAtomRecord((Interval(0.0, 1.0), Exact(2.0, False)))
    ll = loglik_atom(model, atom, 2.0)
    exact = math.exp(-0.8) * (math.exp(0.1) - 1.0)
    assert math.exp(ll) == pytest.approx(exact, rel=1e-9)
    assert ll == pytest.approx(-3.0521685, abs=5e-7)


def test_visit_survivor_closed_form():
    # illness clean at visit v, death watched and alive at C:
    # P = int_v^C a01 e^{-(a01+a02)s - a12(C-s)} ds + e^{-(a01+a02)C}
    a01, a02, a12 = 0.1, 0.2, 0.4
    _, model = illness_death(a01, a02, a12)
    v, C = 0.7, 2.0
    q = a01 + a02 - a12
    expected = (a01 * math.exp(-a12 * C) * (math.exp(-q * v) - math.exp(-q * C)) / q
                + math.exp(-(a01 + a02) * C))
    atom = PseudoAtomRecord((SurvivedBeyond(v), Exact(C, False)))
    assert math.exp(loglik_atom(model, atom, C)) == pytest.approx(expected, rel=1e-9)


def test_both_intervals_product_law():
    alpha, beta = 0.3, 0.7
    model = independent_pair(alpha, beta)
    atom = PseudoAtomRecord((Interval(0.2, 0.9), Interval(0.5, 1.3)))
    expected = ((math.exp(-alpha * 0.2) - math.exp(-alpha * 0.9))
                * (math.exp(-beta * 0.5) - math.exp(-beta * 1.3)))
    assert math.exp(loglik_atom(model, atom, 2.0)) == pytest.approx(expected, rel=1e-9)


def test_two_survivors_corner_expansion():
    # four corner terms must reassemble the product survival probability
    alpha, beta = 0.25, 0.6
    model = independent_pair(alpha, beta)
    atom = PseudoAtomRecord((SurvivedBeyond(0.8), SurvivedBeyond(1.1)))
    expected = math.exp(-alpha * 0.8) * math.exp(-beta * 1.1)
    assert math.exp(loglik_atom(model, atom, 2.0)) == pytest.approx(expected, rel=1e-9)


def test_survivor_bound_at_zero_is_vacuous():
    model = independent_pair(0.25, 0.6)
    a = loglik_atom(model, PseudoAtomRecord((SurvivedBeyond(0.0), SurvivedBeyond(0.0))), 2.0)
    assert math.exp(a) == pytest.approx(1.0, rel=1e-9)


def test_tighten_matches_untightened():
    # an exact death pins the gate: the illness range is cut at the death
    # time, where the integrand is already zero past the cut
    _, model = illness_death(0.1, 0.2, 0.4)
    atom = PseudoAtomRecord((Interval(0.0, 1.5), Exact(1.0, True)))
    on = loglik_atom(model, atom, 2.0)
    # value: illness density integrated to the death time, death density at 1
    a01, a02, a12 = 0.1, 0.2, 0.4
    q = a01 + a02 - a12
    ref = a12 * math.exp(-a12) * a01 * (1.0 - math.exp(-q)) / q
    assert math.exp(on) == pytest.approx(ref, rel=1e-9)


def test_impossible_record_is_minus_inf():
    # intensity is zero over the whole requested range: log-likelihood -inf,
    # not an exception
    model = IntensityModel((
        MultiplicativeComponent(0, PiecewiseConstant((6.0,), (0.0, 0.1))),
    ))
    ll = loglik_atom(model, PseudoAtomRecord((Interval(0.0, 1.0),)), 2.0)
    assert ll == -INF


def test_record_validation():
    _, model = illness_death(0.1, 0.2, 0.4)
    with pytest.raises(InvalidInputError):
        loglik_atom(model, PseudoAtomRecord((Exact(1.0, True),)), 2.0)
    with pytest.raises(InvalidInputError):
        # a no-jump stamp before the horizon should have been SurvivedBeyond
        loglik_atom(model, PseudoAtomRecord((Exact(1.0, False), Exact(2.0, False))), 2.0)
    with pytest.raises(InvalidInputError):
        loglik_atom(model, PseudoAtomRecord((Interval(0.0, 2.5), Exact(2.0, False))), 2.0)
    with pytest.raises(InvalidInputError):
        loglik_atom(model, PseudoAtomRecord((SurvivedBeyond(2.5), Exact(2.0, False))), 2.0)


def test_conditional_adds_initial_exposure():
    _, model = illness_death(0.1, 0.2, 0.4)
    atom = PseudoAtomRecord((Exact(2.0, False), Exact(2.0, False)))
    base = loglik_atom(model, atom, 2.0)
    cond = conditional_loglik(model, atom, 2.0, 1.0)
    assert cond == pytest.approx(base + 0.3, rel=1e-12)


def test_conditional_clips_interval_at_start():
    _, model = illness_death(0.1, 0.2, 0.4)
    straddle = PseudoAtomRecord((Interval(0.5, 1.5), Exact(2.0, False)))
    clipped = PseudoAtomRecord((Interval(1.0, 1.5), Exact(2.0, False)))
    assert conditional_loglik(model, straddle, 2.0, 1.0) == pytest.approx(
        conditional_loglik(model, clipped, 2.0, 1.0), rel=1e-12)


def test_conditional_rejects_contradictions():
    _, model = illness_death(0.1, 0.2, 0.4)
    with pytest.raises(InconsistentObservationError):
        conditional_loglik(
            model, PseudoAtomRecord((Exact(0.5, True), Exact(2.0, False))), 2.0, 1.0)
    with pytest.raises(InconsistentObservationError):
        conditional_loglik(
            model, PseudoAtomRecord((Interval(0.2, 0.8), Exact(2.0, False))), 2.0, 1.0)
    with pytest.raises(InvalidInputError):
        conditional_loglik(
            model, PseudoAtomRecord((Exact(2.0, False), Exact(2.0, False))), 2.0, 2.0)
