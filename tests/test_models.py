"""One-jump component intensities: gating, multiplicative modifiers, and the
closed-form cumulative hazards that back them."""

import numpy as np
import pytest

from coarselik.baselines import Constant, PiecewiseConstant, Weibull
from coarselik.catalog import illness_death
from coarselik.errors import InvalidInputError
from coarselik.likelihood import _density_at, _density_geometry
from coarselik.markov import markov_to_ojc
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


def _baseline_from(base, v):
    return PiecewiseConstant(base.grid, v) if isinstance(base, PiecewiseConstant) else type(base)(*v)


def _rebuilt(comp, v):
    """comp built again from another `values` vector v."""
    if isinstance(comp, PatternTableComponent):
        table, start = {}, 0
        for bits, base in comp.entries:
            table[bits] = _baseline_from(base, v[start:start + len(base.values)])
            start += len(base.values)
        return PatternTableComponent(comp.own, comp.p, table)
    n = len(comp.baseline.values)
    terms = tuple(ModifierTerm(trm.comps, v[n + 2 * i], v[n + 2 * i + 1])
                  for i, trm in enumerate(comp.terms))
    return MultiplicativeComponent(comp.own, _baseline_from(comp.baseline, v[:n]),
                                   comp.gates, terms, v[-1])


def _fixed(comp):
    """Which of comp's values have no difference to take: an interaction
    term's gamma, which stays 0."""
    fixed = np.zeros(len(comp.values), dtype=bool)
    if isinstance(comp, MultiplicativeComponent):
        n = len(comp.baseline.values)
        for i, trm in enumerate(comp.terms):
            fixed[n + 2 * i + 1] = len(trm.comps) > 1
    return fixed


GRAD_CASES = {
    "constant": MultiplicativeComponent(2, Constant(0.3), log_offset=0.2),
    **{f"weibull-{b}": MultiplicativeComponent(2, Weibull(0.4, b), log_offset=-0.1)
       for b in (0.7, 1.0, 1.3)},
    # the middle piece is a literal zero rate, and nodes sit on both cuts
    "piecewise": MultiplicativeComponent(2, PiecewiseConstant((1.0, 2.0), (0.3, 0.0, 0.5)),
                                         log_offset=0.1),
    "modifier-gamma": MultiplicativeComponent(
        2, Weibull(0.4, 1.3), terms=(ModifierTerm((0,), 0.3, gamma=-0.4),), log_offset=0.1),
    "interaction": MultiplicativeComponent(
        2, Constant(0.2), terms=(ModifierTerm((0,), 0.2, gamma=0.1),
                                 ModifierTerm((1,), -0.1, gamma=-0.2),
                                 ModifierTerm((0, 1), 0.15)), log_offset=0.1),
    # three modifier subsets sum the baseline's second derivatives in
    # (a, b), each with its own increment
    "weibull-modifiers": MultiplicativeComponent(
        2, Weibull(0.4, 1.3), terms=(ModifierTerm((0,), 0.3, gamma=-0.4),
                                     ModifierTerm((1,), -0.2, gamma=0.3)), log_offset=0.1),
    "gated": MultiplicativeComponent(2, Constant(0.2), gates=(1,),
                                     terms=(ModifierTerm((0,), 0.3, gamma=0.2),), log_offset=0.1),
    "pattern-table": PatternTableComponent(2, 3, {
        (0, 0, 0): Constant(0.2), (1, 0, 0): Weibull(0.3, 1.2),
        (1, 1, 0): PiecewiseConstant((1.5,), (0.4, 0.6))}),
}


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("case", sorted(GRAD_CASES))
def test_derivatives_match_central_differences(case):
    comp = GRAD_CASES[case]
    t = np.array([0.2, 0.5, 1.0, 1.3, 2.0, 2.0, 2.5, 3.0, 3.0])
    T = [np.array([INF, 0.3, 0.3, 1.1, 1.5, INF, 0.7, 2.9, 0.4]),
         np.array([INF, INF, 0.6, 0.2, 1.8, 1.2, INF, 1.0, 2.0]),
         np.array([INF, 0.4, INF, 1.2, INF, 1.9, 2.2, INF, 2.5])]
    t0 = np.array([0.0, 0.1, 0.5, 0.0, 1.0, 0.3, 2.0, 0.0, 1.5])
    v = np.array(comp.values)
    fixed = _fixed(comp)
    need = (~fixed).tolist()
    rate_geometry, cum_geometry = comp.rate_geometry(t, T), comp.cum_geometry(t0, t, T)
    rate, log_rate_grad, _ = comp.rate_at(rate_geometry, need)
    cum, cum_grad, _ = comp.cum_at(cum_geometry, need)
    # the value comes with the same bits whatever is asked for beside it
    for (value, grads, hess), full_value in ((comp.rate_at(rate_geometry), rate),
                                             (comp.cum_at(cum_geometry), cum)):
        assert grads is None and hess is None and _bits(value) == _bits(full_value)
    # log rate exists where the rate is positive
    positive = rate > 0
    assert positive.sum() >= 3
    for m in range(v.size):
        if fixed[m]:
            assert log_rate_grad[m] is None and cum_grad[m] is None
            continue
        h = 1e-5 * max(abs(v[m]), 0.1)
        # the zero rate takes a forward difference: cum is linear in it, and
        # log rate does not depend on it where the rate is positive
        up, down = v.copy(), v.copy()
        up[m] += h
        down[m] -= h if v[m] else 0.0
        width = up[m] - down[m]
        hi_comp, lo_comp = _rebuilt(comp, up), _rebuilt(comp, down)
        log_rate_diff = (np.log(hi_comp.rate_at(rate_geometry)[0][positive])
                         - np.log(lo_comp.rate_at(rate_geometry)[0][positive])) / width
        cum_diff = (hi_comp.cum_at(cum_geometry)[0] - lo_comp.cum_at(cum_geometry)[0]) / width
        np.testing.assert_allclose(np.broadcast_to(log_rate_grad[m], t.shape)[positive],
                                   log_rate_diff, rtol=1e-6, atol=1e-9, err_msg=f"value {m}")
        np.testing.assert_allclose(np.broadcast_to(cum_grad[m], t.shape), cum_diff,
                                   rtol=1e-6, atol=1e-9, err_msg=f"value {m}")
        # a value asked for alone gets the same bits, and nothing else is formed
        alone = [k == m for k in range(v.size)]
        for (value, grads, _), full_value, full in ((comp.rate_at(rate_geometry, alone), rate,
                                                     log_rate_grad),
                                                    (comp.cum_at(cum_geometry, alone), cum,
                                                     cum_grad)):
            assert _bits(value) == _bits(full_value)
            assert [k for k, g in enumerate(grads) if g is not None] == [m]
            assert np.array_equal(grads[m], full[m])
    for (value, grads, _), full_value in ((comp.rate_at(rate_geometry, [False] * v.size), rate),
                                          (comp.cum_at(cum_geometry, [False] * v.size), cum)):
        assert _bits(value) == _bits(full_value) and grads == [None] * v.size


@pytest.mark.parametrize("case", sorted(GRAD_CASES))
def test_second_derivatives_match_differences_of_the_first(case):
    # with a need, rate_at and cum_at give the second derivatives of log
    # rate and of cum, the pairs of flagged values that can be nonzero; the
    # value keeps its bits. cum starts at an array t0, and at the scalar 0.0
    # that the plan passes, where the range provably starts at 0
    comp = GRAD_CASES[case]
    t = np.array([0.2, 0.5, 1.0, 1.3, 2.0, 2.0, 2.5, 3.0, 3.0])
    T = [np.array([INF, 0.3, 0.3, 1.1, 1.5, INF, 0.7, 2.9, 0.4]),
         np.array([INF, INF, 0.6, 0.2, 1.8, 1.2, INF, 1.0, 2.0]),
         np.array([INF, 0.4, INF, 1.2, INF, 1.9, 2.2, INF, 2.5])]
    t0 = np.array([0.0, 0.1, 0.5, 0.0, 1.0, 0.3, 2.0, 0.0, 1.5])
    v = np.array(comp.values)
    free = ~_fixed(comp)
    need = free.tolist()
    rate_geometry = comp.rate_geometry(t, T)
    cum_geometries = [comp.cum_geometry(t0, t, T), comp.cum_geometry(0.0, t, T)]
    positive = comp.rate_at(rate_geometry)[0] > 0
    n_pairs = 0
    for name, geometry, where in (("rate_at", rate_geometry, positive),
                                  *(("cum_at", g, np.ones(t.shape, dtype=bool))
                                    for g in cum_geometries)):
        value, _, hess = getattr(comp, name)(geometry, need)
        assert _bits(value) == _bits(getattr(comp, name)(geometry)[0])
        assert all(a <= b and need[a] and need[b] for a, b in hess)
        n_pairs += len(hess)
        for l in np.flatnonzero(free):
            h = 1e-5 * max(abs(v[l]), 0.1)
            up, down = v.copy(), v.copy()
            up[l] += h
            down[l] -= h if v[l] else 0.0
            width = up[l] - down[l]
            g_up = getattr(_rebuilt(comp, up), name)(geometry, need)[1]
            g_down = getattr(_rebuilt(comp, down), name)(geometry, need)[1]
            for m in np.flatnonzero(free):
                # a zero rate's log-derivative is inf, off `where`
                with np.errstate(invalid="ignore"):
                    diff = (np.asarray(g_up[m], dtype=float)
                            - np.asarray(g_down[m], dtype=float)) * np.ones(t.shape) / width
                got = np.broadcast_to(hess.get((min(m, l), max(m, l)), 0.0), t.shape)
                np.testing.assert_allclose(got[where], diff[where], rtol=1e-6, atol=1e-8,
                                           err_msg=f"{name} values {m}, {l}")
    assert n_pairs > 0
    for name, geometry in (("rate_at", rate_geometry), *(("cum_at", g) for g in cum_geometries)):
        assert getattr(comp, name)(geometry, [False] * v.size)[2] == {}


@pytest.mark.parametrize("case", sorted(GRAD_CASES))
def test_every_kernel_layer_returns_value_first_and_second(case):
    # one contract at each layer, for every baseline and component kind:
    # (value, None, None) without a need (a baseline: without derivatives),
    # and with one the value's bits, a list of first derivatives and a
    # dict of second ones
    comp = GRAD_CASES[case]
    t = np.array([0.2, 1.0, 1.3, 2.5])
    T = [np.array([INF, 0.3, 1.1, 0.7]), np.array([INF, 0.6, 0.2, INF]),
         np.array([INF, INF, 1.2, 2.2])]
    bases = ([comp.baseline] if isinstance(comp, MultiplicativeComponent)
             else [base for _, base in comp.entries])
    for base in bases:
        for terms in (base.rate_terms, base.cum0_terms):
            for x in (t, 1.3):
                value, grads, hess = terms(x)
                assert grads is None and hess is None
                value_d, grads, hess = terms(x, True)
                assert _bits(value_d) == _bits(value)
                assert len(grads) == len(base.values) and isinstance(hess, dict)
    others = [MultiplicativeComponent(j, Constant(0.1 + j)) for j in range(2)]
    model = IntensityModel(others + [comp])
    need = [True] * model.values.size
    s = [np.where(np.isfinite(x), x, 3.0) for x in T]
    layers = ((comp.rate_at, comp.rate_geometry(t, T), need[-len(comp.values):]),
              (comp.cum_at, comp.cum_geometry(0.0, t, T), need[-len(comp.values):]),
              (lambda g, *need: _density_at(model, g, *need),
               _density_geometry(model, s, [x < 3.0 for x in s], 3.0), need))
    for layer, geometry, wanted in layers:
        value, grads, hess = layer(geometry)
        assert grads is None and hess is None
        value_d, grads, hess = layer(geometry, wanted)
        assert _bits(value_d) == _bits(value)
        assert len(grads) == len(wanted) and isinstance(hess, dict) and hess


def _density_cases():
    """Per case, a function of one point's values and the points to take:
    every component kind, and points that take a special path beside
    points that do not."""
    def constant(a, b):
        return IntensityModel((MultiplicativeComponent(0, Constant(a)),
                               MultiplicativeComponent(1, Constant(b))))

    def weibull(a, b):
        return IntensityModel((MultiplicativeComponent(0, Weibull(a, b), gates=(1,)),
                               MultiplicativeComponent(1, Weibull(0.2, b))))

    def piecewise(r0, r1, r2):
        return IntensityModel((MultiplicativeComponent(0, PiecewiseConstant((0.5, 1.2), (r0, r1, r2))),
                               MultiplicativeComponent(1, Constant(0.3))))

    def modifier(eta, gamma, offset):
        # illness gated by death; illness multiplies death by exp(eta + gamma T)
        return IntensityModel((
            MultiplicativeComponent(0, Constant(0.4), gates=(1,)),
            MultiplicativeComponent(1, Weibull(0.3, 1.2), terms=(ModifierTerm((0,), eta, gamma),),
                                    log_offset=offset)))

    def interaction(e0, e1, e01):
        return IntensityModel((
            MultiplicativeComponent(0, Constant(0.1), gates=(2,)),
            MultiplicativeComponent(1, Constant(0.15), gates=(2,)),
            MultiplicativeComponent(2, Constant(0.2), terms=(
                ModifierTerm((0,), e0), ModifierTerm((1,), e1), ModifierTerm((0, 1), e01)))))

    def pattern(a01, a02, a12):
        return markov_to_ojc(illness_death(a01, a02, a12)[0])

    return {
        "constant": (constant, [(0.3, 0.2), (0.05, 1.7)]),
        "weibull_b_1": (weibull, [(0.4, 1.0), (0.4, 0.7), (1.3, 2.5)]),
        "piecewise_zero_piece": (piecewise, [(0.2, 0.0, 0.4), (0.3, 0.5, 0.1)]),
        "modifier_gamma_0": (modifier, [(0.5, 0.0, 0.0), (0.5, 0.3, 0.2), (-0.4, 0.0, -0.1)]),
        "interaction": (interaction, [(0.2, 0.1, 0.05), (-0.3, 0.4, 0.0)]),
        "pattern_table": (pattern, [(0.3, 0.2, 0.5), (0.1, 0.4, 0.05)]),
        # exp(800) overflows to inf; where illness never happens its
        # modifier never switches on and adds nothing (and no nan)
        "eta_800": (modifier, [(800.0, 0.0, 0.0), (0.5, 0.0, 0.0), (800.0, 0.0, 0.1)]),
    }


@pytest.mark.parametrize("case", sorted(_density_cases()))
def test_density_at_matches_rates_cums_and_differences(case):
    # at each point the kernel's density is the flagged rates times
    # exp(-total cum), with the same bits whatever is asked beside it; its
    # derivatives are the differences of log f, and its second derivatives
    # those of the first
    build, rows = _density_cases()[case]
    rng = np.random.default_rng(3)
    C, N = 3.0, 400
    p = build(*rows[0]).p
    s = rng.uniform(0.0, C, (p, N))
    s[rng.random((p, N)) < 0.4] = C      # no jump by the horizon
    s[:, :5] = C
    flags = s < C
    never_ill = s[0] == C
    # past exp overflow, a node where the modifier does switch on gives
    # inf * exp(-inf), nan
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows:
            model = build(*row)
            geometry = _density_geometry(model, s, flags, C)
            v = model.values
            free = ~np.concatenate([_fixed(comp) for comp in model.components])
            f, grads, hess = _density_at(model, geometry, [True] * v.size)
            assert _bits(f) == _bits(_density_at(model, geometry)[0])
            rates = np.ones(N)
            for j in range(p):
                rates = rates * np.where(flags[j], model.rate(j, s[j], s), 1.0)
            np.testing.assert_allclose(f, rates * np.exp(-model.total_cum(0.0, C, s)),
                                       rtol=1e-13, atol=0.0)
            assert np.isfinite(f[never_ill]).all() and (f[:5] > 0).all(), row
            for l in np.flatnonzero(free):
                h = 1e-5 * max(abs(v[l]), 0.1)
                up, down = v.copy(), v.copy()
                up[l] += h
                down[l] -= h
                try:
                    lower = model.with_values(down)
                except InvalidInputError:     # a zero rate takes a forward difference
                    down[l] = v[l]
                    lower = model.with_values(down)
                width = up[l] - down[l]
                f_up, g_up, _ = _density_at(model.with_values(up), geometry, [True] * v.size)
                f_down, g_down, _ = _density_at(lower, geometry, [True] * v.size)
                with np.errstate(divide="ignore"):
                    on = ((f > 0) & (f_up > 0) & (f_down > 0) & np.isfinite(f)
                          & np.isfinite(f_up) & np.isfinite(f_down))
                    diff = (np.log(f_up) - np.log(f_down)) / width
                assert on.sum() >= 3, (row, l)
                np.testing.assert_allclose(np.broadcast_to(grads[l], f.shape)[on], diff[on],
                                           rtol=1e-6, atol=1e-8, err_msg=f"{row}: value {l}")
                for m in np.flatnonzero(free):
                    diff = (np.broadcast_to(g_up[m], f.shape)
                            - np.broadcast_to(g_down[m], f.shape)) / width
                    got = np.broadcast_to(hess.get((min(m, l), max(m, l)), 0.0), f.shape)
                    np.testing.assert_allclose(got[on], diff[on], rtol=1e-6, atol=1e-8,
                                               err_msg=f"{row}: values {m}, {l}")
