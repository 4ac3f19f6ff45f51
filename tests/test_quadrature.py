"""Adaptive Gauss-Kronrod panels and nested integration over boxes whose
inner bounds may depend on the outer variables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarselik.errors import DomainError, InvalidInputError, ToleranceError
from coarselik.quadrature import (
    Dim,
    G_INDEX,
    G_WEIGHTS,
    IntegrationRegion,
    K_NODES,
    K_WEIGHTS,
    integrate_1d,
    integrate_nested,
)


def test_gauss_subset_matches_legendre():
    nodes7, weights7 = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(np.sort(K_NODES[G_INDEX]), np.sort(nodes7), atol=1e-15)
    np.testing.assert_allclose(G_WEIGHTS[np.argsort(K_NODES[G_INDEX])],
                               weights7[np.argsort(nodes7)], atol=1e-15)


def test_kronrod_weights_sum_to_two():
    assert np.sum(K_WEIGHTS) == pytest.approx(2.0, abs=1e-15)
    assert np.sum(G_WEIGHTS) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("k", range(0, 23))
def test_single_panel_exact_for_monomials(k):
    # a 15-point Kronrod rule integrates polynomials up to degree 22 exactly
    val = np.sum(K_WEIGHTS * K_NODES ** k)
    exact = 0.0 if k % 2 else 2.0 / (k + 1)
    assert val == pytest.approx(exact, abs=5e-15)


def test_exponential_integral():
    res = integrate_1d(np.exp, 0.0, 1.0)
    assert res.value == pytest.approx(np.e - 1.0, rel=1e-13)
    assert res.error <= max(1e-8 * res.value, 1e-12)


def test_kinked_integrand_with_breakpoint():
    f = lambda x: np.where(x < 0.3, 1.0, 5.0)
    res = integrate_1d(f, 0.0, 1.0, breakpoints=[0.3])
    assert res.value == pytest.approx(0.3 + 0.7 * 5.0, rel=1e-14)


def test_breakpoints_outside_range_ignored():
    res = integrate_1d(np.cos, 0.0, 1.0, breakpoints=[-2.0, 7.0])
    assert res.value == pytest.approx(np.sin(1.0), rel=1e-13)


def test_endpoints_never_sampled():
    # integrands may be singular at the closed ends of (a, b]
    def f(x):
        assert np.all(x > 0.0) and np.all(x < 1.0)
        return 1.0 / np.sqrt(x)

    res = integrate_1d(f, 0.0, 1.0, rel_tol=1e-6, max_evals=50_000)
    assert res.value == pytest.approx(2.0, rel=1e-5)


def test_empty_and_reversed_ranges():
    assert integrate_1d(np.exp, 2.0, 2.0).value == 0.0
    with pytest.raises(InvalidInputError):
        integrate_1d(np.exp, 3.0, 2.0)


def test_nonfinite_sample_names_abscissa():
    def f(x):
        return np.where(np.abs(x - 0.437) < 0.2, np.nan, 1.0)

    with pytest.raises(DomainError) as exc:
        integrate_1d(f, 0.0, 1.0)
    assert exc.value.abscissa is not None
    assert abs(exc.value.abscissa - 0.437) < 0.21


def test_budget_failure_carries_estimate():
    rng = np.random.default_rng(5)
    jumps = np.sort(rng.uniform(0, 1, 400))

    def nasty(x):
        return 1.0 + np.searchsorted(jumps, x).astype(float)

    with pytest.raises(ToleranceError) as exc:
        integrate_1d(nasty, 0.0, 1.0, rel_tol=1e-13, abs_tol=0.0, max_evals=600)
    est = exc.value.value
    ref = integrate_1d(nasty, 0.0, 1.0, rel_tol=1e-6, max_evals=100_000).value
    # the error object carries the best estimate so far and a bound on it
    assert exc.value.error_estimate > 0.0
    assert abs(est - ref) <= max(5e-2 * abs(ref), exc.value.error_estimate)


def test_determinism():
    f = lambda x: np.sin(3.0 * x) * np.exp(-x)
    a = integrate_1d(f, 0.0, 4.0, breakpoints=[1.1])
    b = integrate_1d(f, 0.0, 4.0, breakpoints=[1.1])
    assert a.value == b.value and a.evaluations == b.evaluations


def test_nested_rectangle_matches_product():
    # f(x, y) = exp(x) * cos(y) over a plain rectangle
    region = IntegrationRegion((Dim(0.0, 1.0), Dim(0.0, 0.5)))
    res = integrate_nested(lambda x, y: np.exp(x) * np.cos(y), region)
    assert res.value == pytest.approx((np.e - 1.0) * np.sin(0.5), rel=1e-9)


def test_nested_triangle_with_dependent_bound():
    # integral over 0 < y < x < 1 of 1 equals 1/2
    region = IntegrationRegion((Dim(0.0, 1.0), Dim(0.0, lambda outer: outer[0])))
    res = integrate_nested(lambda x, y: np.ones_like(y), region)
    assert res.value == pytest.approx(0.5, rel=1e-12)


def test_nested_diagonal_kink_split_at_outer():
    # inner integrand jumps exactly at the outer variable's value
    def f(x, y):
        return np.where(y <= x, 1.0, 3.0)

    region = IntegrationRegion((Dim(0.0, 1.0), Dim(0.0, 1.0)))
    res = integrate_nested(f, region)
    assert res.value == pytest.approx(0.5 + 3.0 * 0.5, rel=1e-12)


def test_nested_three_levels():
    region = IntegrationRegion((Dim(0.0, 1.0), Dim(0.0, 1.0), Dim(0.0, 1.0)))
    res = integrate_nested(lambda x, y, z: x * y * z, region)
    assert res.value == pytest.approx(0.125, rel=1e-10)


def test_nested_budget_shared():
    region = IntegrationRegion((Dim(0.0, 1.0), Dim(0.0, 1.0)))
    with pytest.raises(ToleranceError):
        integrate_nested(lambda x, y: np.exp(10 * np.sin(40 * x) * y),
                         region, rel_tol=1e-12, max_evals=900)


@pytest.mark.parametrize("max_evals", [500, 2000, 5000, 20000])
def test_nested_budget_failure_bounds_the_whole_integral(max_evals):
    # the budget runs out inside an inner level (or, at 5000 and up, while
    # the outer level refines); the error carried must still cover the
    # distance to the true integral, not describe one inner integral
    f = lambda x, y: np.exp(x + y) * (1.0 + np.sin(40.0 * x) * np.sin(40.0 * y))
    s = (np.e * (np.sin(40.0) - 40.0 * np.cos(40.0)) + 40.0) / 1601.0
    true = (np.e - 1.0) ** 2 + s * s   # 2.9576...
    with pytest.raises(ToleranceError) as exc:
        integrate_nested(f, (Dim(0.0, 1.0), Dim(0.0, 1.0)), max_evals=max_evals)
    assert exc.value.error_estimate >= abs(exc.value.value - true)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_linearity(c1, c2):
    f = lambda x: c1 * x ** 3 + c2 * np.exp(-x)
    v = integrate_1d(f, 0.0, 2.0).value
    expect = c1 * 4.0 + c2 * (1.0 - np.exp(-2.0))
    assert np.isclose(v, expect, rtol=1e-9, atol=1e-9)


@given(st.floats(0.1, 3.9))
@settings(max_examples=25, deadline=None)
def test_interval_additivity(mid):
    f = lambda x: np.sqrt(x) * np.cos(x)
    whole = integrate_1d(f, 0.0, 4.0).value
    parts = integrate_1d(f, 0.0, mid).value + integrate_1d(f, mid, 4.0).value
    assert np.isclose(whole, parts, rtol=1e-7, atol=1e-10)
