"""Maximum likelihood over parametric intensity families."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import coarselik.inference as inference
from coarselik.baselines import Constant, PiecewiseConstant, Weibull
from coarselik.catalog import (
    DementiaParams,
    dementia_family,
    dementia_model,
    illness_death,
    illness_death_family,
    panel_death_scheme,
)
from coarselik.errors import InvalidInputError, InvalidStartError, ToleranceError
from coarselik.inference import (
    DatasetEvaluator,
    ParametricFamily,
    dataset_loglik,
    fit_mle,
    per_subject_loglik,
)
from coarselik.likelihood import loglik_atom
from coarselik.models import IntensityModel, MultiplicativeComponent
from coarselik.observation import Exact, Interval, PseudoAtomRecord, SurvivedBeyond
from coarselik.simulate import coarsen_cohort, record_from_codes, simulate_cohort


def exponential_family():
    return ParametricFamily(
        ("rate",), ("log",),
        lambda th: IntensityModel((MultiplicativeComponent(0, Constant(th[0])),)),
    )


def panel_records(model, scheme, n, seed):
    times = simulate_cohort(model, scheme.horizon, n, seed)
    kind, x1, x2, flag = coarsen_cohort(scheme, times)
    return [record_from_codes(kind[i], x1[i], x2[i], flag[i]) for i in range(n)]


def test_exponential_mle_closed_form():
    # exactly observed exponential data: the optimum and its standard error
    # are events over exposure, known in closed form
    fam = exponential_family()
    C, truth = 2.0, 0.5
    times = simulate_cohort(fam.build([truth]), C, 200, seed=11)[:, 0]
    records = [PseudoAtomRecord((Exact(float(t), True),)) if np.isfinite(t)
               else PseudoAtomRecord((Exact(C, False),)) for t in times]
    events = int(np.isfinite(times).sum())
    exposure = float(np.minimum(times, C).sum())
    a_hat = events / exposure

    res = fit_mle(fam, records, C, [0.2])
    assert res.converged
    assert res.theta["rate"] == pytest.approx(a_hat, rel=1e-6)
    assert res.loglik == pytest.approx(events * math.log(a_hat) - a_hat * exposure, rel=1e-10)
    assert res.std_errors["rate"] == pytest.approx(a_hat / math.sqrt(events), rel=1e-3)


def test_evaluator_matches_direct_loglik():
    fam = illness_death_family("constant")
    _, model = illness_death(0.35, 0.25, 0.8)
    scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    records = panel_records(model, scheme, 80, seed=3)
    theta = np.array([0.3, 0.3, 0.6])
    ev = DatasetEvaluator(fam, records, scheme.horizon)
    direct = [loglik_atom(fam.build(theta), rec, scheme.horizon) for rec in records]
    assert np.allclose(ev.per_subject(theta), direct, rtol=1e-7, atol=1e-10)
    assert ev.total(theta) == pytest.approx(
        dataset_loglik(fam.build(theta), records, scheme.horizon), rel=1e-7)


def test_impossible_start_names_the_subject():
    fam = ParametricFamily(
        ("late_rate",), ("log",),
        lambda th: IntensityModel(
            (MultiplicativeComponent(0, PiecewiseConstant((6.0,), (0.0, th[0]))),)),
        fixed_breakpoints=(6.0,),
    )
    records = [PseudoAtomRecord((Exact(2.0, False),)),
               PseudoAtomRecord((Interval(0.0, 1.0),))]
    with pytest.raises(InvalidStartError) as exc:
        fit_mle(fam, records, 2.0, [0.1])
    assert exc.value.subject_index == 1


def test_panel_fit_recovers_truth():
    fam = illness_death_family("constant")
    truth = np.array([0.35, 0.25, 0.8])
    scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    records = panel_records(fam.build(truth), scheme, 500, seed=21)
    res = fit_mle(fam, records, scheme.horizon, {"a01": 0.2, "a02": 0.2, "a12": 0.5})
    assert res.converged
    for name, true_val in zip(fam.param_names, truth):
        assert abs(res.theta[name] - true_val) <= 4.0 * res.std_errors[name]


def test_family_transform_round_trip():
    fam = illness_death_family("constant")
    theta = np.array([0.3, 0.2, 0.5])
    assert np.allclose(fam.from_search(fam.to_search(theta)), theta)
    with pytest.raises(InvalidInputError):
        fam.to_search([0.3, -0.2, 0.5])
    with pytest.raises(InvalidInputError):
        fam.build([0.3, 0.2])
    with pytest.raises(InvalidInputError):
        ParametricFamily(("a",), ("sqrt",), lambda th: None)


def test_fit_init_mapping_checked():
    fam = illness_death_family("constant")
    scheme = panel_death_scheme([1.0], 2.0)
    records = panel_records(fam.build([0.3, 0.2, 0.5]), scheme, 20, seed=2)
    with pytest.raises(InvalidInputError):
        fit_mle(fam, records, scheme.horizon, {"a01": 0.2, "a02": 0.2})


def _rec(*statuses):
    return PseudoAtomRecord(statuses)


DEMENTIA = dementia_model(DementiaParams(
    0.3, 0.2, 0.25, eta_inst_dem=0.4, eta_dem_inst=0.5, eta_dem_death=0.6,
    eta_inst_death=0.3, eta_both_death=-0.2))

# (model, horizon, records, how many records the fixed panels must hand to
# loglik_atom); illness (component 0) is switched off by death (component 1)
AGREEMENT_CASES = {
    "exact": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Exact(0.4, True), Exact(1.2, True)),
        _rec(Exact(0.7, True), Exact(3.0, False)),
        _rec(Exact(3.0, False), Exact(2.5, True)),
        _rec(Exact(3.0, False), Exact(3.0, False)),
    ], 0),
    "interval_1d": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Interval(0.5, 1.0), Exact(3.0, False)),
        _rec(Interval(0.0, 2.5), Exact(3.0, False)),
        _rec(Interval(1.0, 2.0), Exact(2.6, True)),
    ], 0),
    "corner": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(SurvivedBeyond(1.0), Exact(3.0, False)),
        _rec(SurvivedBeyond(0.0), Exact(3.0, False)),
        _rec(Exact(1.5, True), SurvivedBeyond(2.0)),
    ], 0),
    "death_gated_cut": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Interval(1.0, 2.5), Exact(1.8, True)),
        _rec(SurvivedBeyond(0.5), Exact(2.2, True)),
        _rec(Interval(2.0, 3.0), Exact(1.5, True)),   # impossible: -inf
    ], 0),
    "coarse_2d": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Interval(0.5, 1.0), SurvivedBeyond(2.0)),
        _rec(Interval(0.0, 1.0), Interval(1.0, 2.0)),
        _rec(SurvivedBeyond(1.0), SurvivedBeyond(1.5)),
    ], 0),
    # the inner range's lower bound 1.2 and the breakpoint 0.75 lie inside the
    # outer range, where the inner integral has kinks
    "coarse_2d_inner_bound": (illness_death(PiecewiseConstant((0.75, 1.6), (0.2, 0.6, 0.3)),
                                            PiecewiseConstant((0.75, 1.6), (0.1, 0.4, 0.2)),
                                            0.8)[1], 3.0, [
        _rec(Interval(0.0, 2.0), SurvivedBeyond(1.2)),
        _rec(Interval(0.5, 1.5), Interval(1.2, 2.5)),
    ], 0),
    "piecewise": (illness_death(PiecewiseConstant((0.75, 1.6), (0.2, 0.6, 0.3)),
                                PiecewiseConstant((0.75, 1.6), (0.1, 0.4, 0.2)),
                                0.8)[1], 3.0, [
        _rec(Interval(0.5, 2.0), Exact(3.0, False)),
        _rec(SurvivedBeyond(0.6), Exact(3.0, False)),
        _rec(Interval(0.0, 1.0), Exact(1.7, True)),
        _rec(Exact(1.2, True), SurvivedBeyond(0.5)),    # illness time inside the range
        _rec(Exact(1.6, True), SurvivedBeyond(0.5)),    # ... and on a breakpoint
    ], 0),
    "weibull_from_zero": (illness_death(Weibull(0.4, 0.7), 0.2, 0.5)[1], 2.0, [
        _rec(Interval(0.0, 1.0), Exact(2.0, False)),
    ], 1),
    # dementia and institution are switched off by death (component 2): a
    # survivor cut by the death time has only its no-jump term left
    "dementia_death_cut": (DEMENTIA, 3.0, [
        _rec(Interval(0.0, 1.0), SurvivedBeyond(2.2), Exact(2.2, True)),
        _rec(Interval(1.0, 2.0), SurvivedBeyond(2.5), Exact(2.5, True)),
        _rec(SurvivedBeyond(1.5), SurvivedBeyond(1.5), Exact(1.5, True)),
    ], 0),
    # two survivors both live until the death: a term of two free coordinates
    "dementia_2d": (DEMENTIA, 3.0, [
        _rec(SurvivedBeyond(0.5), SurvivedBeyond(1.0), Exact(2.5, True)),
        _rec(SurvivedBeyond(1.0), SurvivedBeyond(1.0), Exact(2.8, True)),
        _rec(SurvivedBeyond(0.0), SurvivedBeyond(0.5), Exact(1.7, True)),
    ], 0),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_per_subject_loglik_agrees_with_loglik_atom(case, monkeypatch):
    model, C, records, n_fallback = AGREEMENT_CASES[case]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return loglik_atom(*args, **kwargs)

    monkeypatch.setattr(inference, "loglik_atom", counted)
    got = per_subject_loglik(model, records, C)
    ref = np.array([loglik_atom(model, rec, C) for rec in records])
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)
    assert len(calls) == n_fallback
    assert dataset_loglik(model, records, C) == pytest.approx(ref.sum(), rel=1e-9)


def test_per_subject_loglik_passes_max_evals_to_the_fallback():
    model, C, records, _ = AGREEMENT_CASES["weibull_from_zero"]
    with pytest.raises(ToleranceError):
        loglik_atom(model, records[0], C, max_evals=300)
    with pytest.raises(ToleranceError):
        per_subject_loglik(model, records, C, max_evals=300)


def test_per_subject_loglik_checks_record_width():
    model = illness_death(0.35, 0.25, 0.8)[1]
    assert per_subject_loglik(model, [], 2.0).shape == (0,)
    with pytest.raises(InvalidInputError):
        per_subject_loglik(model, [_rec(Exact(0.5, True))], 2.0)


def test_evaluator_counts_tolerance_failures():
    # three interval components need about a million evaluations here, more
    # than the default budget; the failure is scored -inf, and counted
    fam = dementia_family()
    record = _rec(Interval(0.2, 1), Interval(0.3, 1.5), Interval(0.5, 1.8))
    ev = DatasetEvaluator(fam, [record], 2.0)
    theta = fam.from_search(np.zeros(fam.k))
    assert ev.total(theta) == -np.inf
    assert ev.total(theta) == -np.inf   # cached: not evaluated twice
    assert (ev.n_evaluations, ev.n_tolerance_failures) == (1, 1)


def shared_rate_pair():
    """Two independent components with one shared rate, and three records;
    the last integrates a Weibull singularity at 0, which the fixed panels
    cannot meet the tolerance on, so it always takes the fallback."""
    fam = ParametricFamily(
        ("rate",), ("log",),
        lambda th: IntensityModel((MultiplicativeComponent(0, Weibull(th[0], 0.7)),
                                   MultiplicativeComponent(1, Constant(th[0])))),
    )
    records = [_rec(Exact(0.2, True), Exact(0.3, True)),
               _rec(Exact(0.5, True), Exact(2.0, False)),
               _rec(Interval(0.0, 1.0), Exact(2.0, False))]
    return fam, records


def test_fit_reports_tolerance_failures(monkeypatch):
    # the fallback's third call here runs out of budget
    fam, records = shared_rate_pair()
    calls = []

    def third_call_fails(model, atom, C, **quad_opts):
        calls.append(atom)
        if len(calls) == 3:
            raise ToleranceError("budget spent", value=0.0, error_estimate=np.inf)
        return loglik_atom(model, atom, C, **quad_opts)

    res = fit_mle(fam, records, 2.0, [0.5])
    assert res.n_tolerance_failures == 0
    assert "quadrature budget" not in res.message
    monkeypatch.setattr(inference, "loglik_atom", third_call_fails)
    res = fit_mle(fam, records, 2.0, [0.5])
    assert res.converged
    assert res.n_tolerance_failures == 1
    assert res.message.endswith("; 1 evaluation(s) ran out of quadrature budget "
                                "and counted as -inf")


def test_fit_survives_non_finite_search_points(monkeypatch):
    # the fallback runs out of budget above rate 0.6, so the likelihood is
    # -inf there; a 3-point gradient step into it comes back with a nan
    # search point, which is scored +inf without building a model
    fam, records = shared_rate_pair()

    def fails_above(model, atom, C, **quad_opts):
        if model.components[1].baseline.value > 0.6:
            raise ToleranceError("budget spent", value=0.0, error_estimate=np.inf)
        return loglik_atom(model, atom, C, **quad_opts)

    monkeypatch.setattr(inference, "loglik_atom", fails_above)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit_mle(fam, records, 2.0, [0.5])
    # the optimizer's inf - inf arithmetic stays quiet
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert res.theta["rate"] <= 0.6
    assert np.isfinite(res.loglik)
    assert res.n_tolerance_failures > 0
    # the Hessian stencil reaches past 0.6: no standard error can be had
    assert res.std_errors is None


def test_record_past_the_node_budget_takes_the_fallback(monkeypatch):
    # three intervals of length 6 would need 1.5 million plan nodes; the
    # record leaves the plan before they are built
    fam = dementia_family()
    record = _rec(Interval(0.2, 6.2), Interval(0.3, 6.3), Interval(0.5, 6.5))
    calls = []

    def stand_in(model, atom, C, **quad_opts):
        calls.append(atom)
        return -7.0

    monkeypatch.setattr(inference, "loglik_atom", stand_in)
    tracemalloc.start()
    try:
        ev = DatasetEvaluator(fam, [record], 7.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert ev.per_subject(fam.from_search(np.zeros(fam.k))).tolist() == [-7.0]
    assert calls == [record]


def test_per_subject_makes_one_kernel_pass(monkeypatch):
    # points, lines and a term of two free coordinates share one node set
    model = illness_death(0.35, 0.25, 0.8)[1]
    records = [_rec(Exact(0.4, True), Exact(1.2, True)),
               _rec(Interval(0.5, 1.0), Exact(3.0, False)),
               _rec(SurvivedBeyond(1.0), SurvivedBeyond(1.5))]
    ev = DatasetEvaluator(ParametricFamily((), (), lambda _: model), records, 3.0)
    calls = []
    real = IntensityModel.total_cum

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    def no_fallback(*args, **kwargs):
        raise AssertionError("no record should take the fallback")

    monkeypatch.setattr(IntensityModel, "total_cum", counted)
    monkeypatch.setattr(inference, "loglik_atom", no_fallback)
    got = ev.per_subject(())
    assert len(calls) == 1
    monkeypatch.undo()
    np.testing.assert_allclose(got, [loglik_atom(model, rec, 3.0) for rec in records],
                               rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("name, value", [
    *[(tol, v) for tol in ("rel_tol", "abs_tol") for v in (0.0, -1.0, np.nan, np.inf)],
    ("max_evals", 0),
])
def test_evaluator_rejects_bad_quadrature_options(name, value):
    # the embedded error check is the only way to the fallback, so its
    # options must mean something
    fam = exponential_family()
    records = [PseudoAtomRecord((Interval(0.0, 1.0),))]
    with pytest.raises(InvalidInputError, match=name):
        DatasetEvaluator(fam, records, 2.0, **{name: value})
    with pytest.raises(InvalidInputError, match=name):
        per_subject_loglik(fam.build([0.5]), records, 2.0, **{name: value})
    if name != "max_evals":
        with pytest.raises(InvalidInputError, match=name):
            fit_mle(fam, records, 2.0, [0.5], **{name: value})
