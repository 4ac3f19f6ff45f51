"""Closed-form hazard families: rates, integrated hazards, edge behavior."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coarselik.baselines import Constant, PiecewiseConstant, Weibull
from coarselik.errors import InvalidInputError


def numeric_cum(base, t0, t1, n=200_001):
    grid = np.linspace(t0, t1, n)
    mid = 0.5 * (grid[:-1] + grid[1:])
    return float(np.sum(base.rate(mid)) * (t1 - t0) / (n - 1))


def test_constant_values():
    b = Constant(0.3)
    assert b.rate(0.0) == 0.3
    assert b.rate(7.2) == 0.3
    assert b.cum0(5.0) == pytest.approx(1.5)
    assert b.cum(2.0, 5.0) == pytest.approx(0.9)
    assert b.breakpoints == ()
    assert b.time_constant


def test_constant_rejects_bad_rate():
    with pytest.raises(InvalidInputError):
        Constant(-0.1)
    with pytest.raises(InvalidInputError):
        Constant(np.inf)


@pytest.mark.parametrize("value", [np.full((3, 1), 0.2), np.array([0.2]), [0.2], "0.2", True])
def test_values_must_be_one_real_number(value):
    # a (B, 1) stack of values, a 1-element array, a string and a boolean
    # are each refused, not read as a number
    with pytest.raises(InvalidInputError, match="constant rate must be one real number"):
        Constant(value)
    with pytest.raises(InvalidInputError, match="weibull a must be one real number"):
        Weibull(value, 1.5)
    with pytest.raises(InvalidInputError, match="weibull b must be one real number"):
        Weibull(0.3, value)
    with pytest.raises(InvalidInputError):
        PiecewiseConstant((1.0,), (0.1, value))
    # numpy scalars are numbers
    assert Constant(np.float64(0.2)).value == 0.2 and Constant(np.asarray(0.2)).value == 0.2


def test_weibull_closed_form_matches_numeric():
    b = Weibull(0.4, 1.7)
    assert b.rate(2.0) == pytest.approx(0.4 * 1.7 * 2.0 ** 0.7)
    assert b.cum0(3.0) == pytest.approx(0.4 * 3.0 ** 1.7)
    assert b.cum(0.5, 3.0) == pytest.approx(numeric_cum(b, 0.5, 3.0), rel=1e-8)


def test_weibull_shape_below_one_time_zero():
    b = Weibull(0.5, 0.6)
    # hazard blows up at the origin but its integral stays finite
    assert b.rate(0.0) == np.inf
    assert np.isfinite(b.cum0(1.0))
    assert b.cum(0.0, 1.0) == pytest.approx(0.5)


def test_weibull_shape_above_one_time_zero():
    assert Weibull(0.5, 2.0).rate(0.0) == 0.0


def test_weibull_shape_one_is_constant():
    b = Weibull(0.25, 1.0)
    assert b.time_constant
    assert b.rate(0.0) == 0.25
    assert b.rate(9.0) == 0.25


def test_piecewise_segment_attribution():
    # rates[i] applies on the half-open stretch ending at grid[i]
    b = PiecewiseConstant((1.0, 2.0), (0.1, 0.5, 0.9))
    assert b.rate(0.5) == 0.1
    assert b.rate(1.0) == 0.1
    assert b.rate(1.5) == 0.5
    assert b.rate(2.0) == 0.5
    assert b.rate(2.5) == 0.9
    assert b.breakpoints == (1.0, 2.0)


def test_piecewise_cum_spans_segments():
    b = PiecewiseConstant((1.0, 2.0), (0.1, 0.5, 0.9))
    assert b.cum0(1.0) == pytest.approx(0.1)
    assert b.cum0(1.5) == pytest.approx(0.1 + 0.25)
    assert b.cum(0.5, 2.5) == pytest.approx(0.05 + 0.5 + 0.45)
    assert b.cum(0.5, 2.5) == pytest.approx(numeric_cum(b, 0.5, 2.5), rel=1e-4)


def test_piecewise_validation():
    with pytest.raises(InvalidInputError):
        PiecewiseConstant((2.0, 1.0), (0.1, 0.2, 0.3))
    with pytest.raises(InvalidInputError):
        PiecewiseConstant((1.0,), (0.1,))
    with pytest.raises(InvalidInputError):
        PiecewiseConstant((1.0,), (0.1, -0.2))


def test_scaled_multiplies_rates():
    for b in (Constant(0.3), Weibull(0.4, 1.7), PiecewiseConstant((1.0,), (0.1, 0.5))):
        s = b.scaled(2.5)
        for t in (0.3, 1.2, 4.0):
            assert s.rate(t) == pytest.approx(2.5 * b.rate(t))
        assert s.cum(0.2, 3.0) == pytest.approx(2.5 * b.cum(0.2, 3.0))


def test_vectorized_evaluation_matches_scalars():
    t = np.array([0.2, 0.9, 1.0, 1.7, 3.5])
    for b in (Constant(0.3), Weibull(0.4, 1.7), PiecewiseConstant((1.0, 2.0), (0.1, 0.5, 0.9))):
        np.testing.assert_allclose(b.rate(t), [b.rate(float(x)) for x in t])
        np.testing.assert_allclose(b.cum0(t), [b.cum0(float(x)) for x in t])


@given(st.floats(0.05, 2.0), st.floats(0.3, 3.0),
       st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_cum_additive_over_adjacent_stretches(a, b, t0, t1, t2):
    lo, mid, hi = sorted((t0, t1, t2))
    base = Weibull(a, b)
    total = base.cum(lo, hi)
    split = base.cum(lo, mid) + base.cum(mid, hi)
    assert np.isclose(total, split, rtol=1e-12, atol=1e-12)


@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_cum_never_negative(t0, t1):
    base = PiecewiseConstant((1.0, 3.0), (0.2, 0.0, 0.7))
    assert base.cum(t0, t1) >= 0.0
