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
from coarselik.io import load_model_config, load_scheme_config
from coarselik.likelihood import _density, _layout, _layout_codes, loglik_atom
from coarselik.models import IntensityModel, ModifierTerm, MultiplicativeComponent
from coarselik.observation import (
    ComponentSchedule,
    Exact,
    Interval,
    ObservationScheme,
    PseudoAtomRecord,
    StatusCodes,
    SurvivedBeyond,
)
from coarselik.simulate import coarsen_cohort, record_from_codes, simulate_cohort

from benchmark_workloads import workloads


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


def test_fit_runs_one_kernel_pass_per_evaluation(monkeypatch):
    # the start is checked through the counted total: no pass of its own
    fam = exponential_family()
    records = [PseudoAtomRecord((Exact(0.5, True),)), PseudoAtomRecord((Exact(2.0, False),))]
    calls = []
    per_subject = DatasetEvaluator.per_subject

    def counted(self, theta):
        calls.append(theta)
        return per_subject(self, theta)

    monkeypatch.setattr(DatasetEvaluator, "per_subject", counted)
    res = fit_mle(fam, records, 2.0, [0.2])
    assert len(calls) == res.n_evaluations


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


def per_record_terms(model, records, C):
    """The plan's term arrays as the per-record build made them: one
    _layout call per record, its terms appended in order."""
    term_rec, term_s, term_f, term_n, term_free = [], [], [], [], []
    for i, rec in enumerate(records):
        for s, flags, free in _layout(model, rec, C):
            term_rec.append(i)
            term_s.append(s)
            term_f.append(flags)
            term_n.append(len(free))
            term_free.extend(free)
    p = model.p
    S = np.ascontiguousarray(np.array(term_s, dtype=float).reshape(-1, p).T)
    F = np.ascontiguousarray(np.array(term_f, dtype=bool).reshape(-1, p).T)
    nfree = np.array(term_n, dtype=int)
    R = np.full((nfree.max(initial=0), nfree.size, 3), [-1.0, 0.0, 0.0])
    R[np.arange(len(term_free)) - np.repeat(np.cumsum(nfree) - nfree, nfree),
      np.repeat(np.arange(nfree.size), nfree)] = np.array(term_free, dtype=float).reshape(-1, 3)
    return np.array(term_rec, dtype=int), S, F, R


# two survivors read at visits and a timed death: records with 0, 1 and 2
# live survivors, some cut by the death time
_TWO_VISITED = ObservationScheme(
    (ComponentSchedule(visits=(1.0, 2.0)), ComponentSchedule(visits=(1.5,)),
     ComponentSchedule(windows=((0.0, 3.0),))), 3.0, death_component=2)
PLAN_CASES = {
    **{case: (model, C, records) for case, (model, C, records, _) in AGREEMENT_CASES.items()},
    "three_d": (DEMENTIA, 2.0, [_rec(Interval(0.2, 1), Interval(0.3, 1.5), Interval(0.5, 1.8))]),
    "node_budget": (DEMENTIA, 7.0, [_rec(Interval(0.2, 6.2), Interval(0.3, 6.3),
                                         Interval(0.5, 6.5))]),
    "dementia_cohort": (DEMENTIA, 3.0, panel_records(DEMENTIA, _TWO_VISITED, 200, seed=5)),
}


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plan_from_codes_matches_the_per_record_plan(case, monkeypatch):
    # the array layout of the codes gives the per-record plan, bit for bit
    model, C, records = PLAN_CASES[case]
    codes = StatusCodes.from_records(records)
    for got, ref in zip(_layout_codes(model, codes, C), per_record_terms(model, records, C)):
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
    fam = ParametricFamily((), (), lambda _: model, tuple(model.breakpoints))
    got = DatasetEvaluator(fam, codes, C)
    monkeypatch.setattr(inference, "_layout_codes",
                        lambda probe, codes, C: per_record_terms(probe, codes.records(), C))
    ref = DatasetEvaluator(fam, records, C)
    for name in ("_rec", "_s", "_f", "_w", "_over_budget"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


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


# three interval components under dementia_family(): 10 125 to 67 575 plan
# nodes a record, within the default max_evals
THREE_D = [_rec(Interval(0.2, 1), Interval(0.3, 1.5), Interval(0.5, 1.8)),
           _rec(Interval(0.0, 0.5), Interval(0.25, 0.75), Interval(0.5, 1.0)),
           _rec(Interval(0.1, 0.6), Interval(0.1, 0.6), Interval(0.1, 0.6)),
           _rec(Interval(1.0, 1.5), Interval(0.2, 0.9), Interval(1.2, 1.9))]


def test_three_d_records_stay_on_the_plan(monkeypatch):
    # a record stays on the plan while its nodes fit in max_evals: no
    # fallback, and the values of loglik_atom given a far larger budget
    fam = dementia_family()
    model = fam.build(fam.from_search(np.zeros(fam.k)))
    calls = []
    monkeypatch.setattr(inference, "loglik_atom", lambda *args, **kw: calls.append(args[1]))
    got = per_subject_loglik(model, THREE_D, 2.0)
    assert calls == []
    ref = [loglik_atom(model, rec, 2.0, max_evals=2_000_000) for rec in THREE_D]
    np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0.0)
    assert got[0] == pytest.approx(-2.752668734764821, rel=1e-12)


def test_evaluator_counts_tolerance_failures():
    # three intervals of length 6 pass the default budget as plan nodes, and
    # the fallback cannot settle them in it either; the failure is scored
    # -inf, and counted
    fam = dementia_family()
    record = _rec(Interval(0.2, 6.2), Interval(0.3, 6.3), Interval(0.5, 6.5))
    ev = DatasetEvaluator(fam, [record], 7.0)
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
    # three intervals of length 6 would need 1.5 million plan nodes, more
    # than the default max_evals; the record leaves the plan before they
    # are built
    fam = dementia_family()
    record = _rec(Interval(0.2, 6.2), Interval(0.3, 6.3), Interval(0.5, 6.5))
    calls = []

    def stand_in(model, atom, C, **quad_opts):
        calls.append((atom, quad_opts["max_evals"]))
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
    assert calls == [(record, 100_000)]

    # the budget is the user's: an interval of one panel has 15 nodes, and
    # leaves the plan when max_evals is smaller; an exact record has one
    model = illness_death(0.35, 0.25, 0.8)[1]
    records = [_rec(Interval(0.5, 1.0), Exact(3.0, False)),
               _rec(Exact(0.4, True), Exact(1.2, True))]
    ref = per_subject_loglik(model, records, 3.0)
    calls.clear()
    assert per_subject_loglik(model, records, 3.0, max_evals=15).tolist() == ref.tolist()
    assert calls == []
    got = per_subject_loglik(model, records, 3.0, max_evals=14)
    assert got.tolist() == [-7.0, ref[1]]
    assert calls == [(records[0], 14)]


def test_per_subject_makes_one_kernel_pass(monkeypatch):
    # points, lines and a term of two free coordinates share one node set;
    # its geometry is built once, with the evaluator, and each theta is one
    # evaluation pass over it
    model = illness_death(0.35, 0.25, 0.8)[1]
    records = [_rec(Exact(0.4, True), Exact(1.2, True)),
               _rec(Interval(0.5, 1.0), Exact(3.0, False)),
               _rec(SurvivedBeyond(1.0), SurvivedBeyond(1.5))]
    builds, passes = [], []

    def counted(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    def no_fallback(*args, **kwargs):
        raise AssertionError("no record should take the fallback")

    def no_total_cum(*args, **kwargs):
        raise AssertionError("the per-theta pass reads the geometry, not total_cum")

    monkeypatch.setattr(inference, "_density_geometry",
                        counted(builds, inference._density_geometry))
    monkeypatch.setattr(inference, "_density_at", counted(passes, inference._density_at))
    monkeypatch.setattr(inference, "loglik_atom", no_fallback)
    ev = DatasetEvaluator(ParametricFamily((), (), lambda _: model), records, 3.0)
    assert (len(builds), len(passes)) == (1, 0)
    monkeypatch.setattr(IntensityModel, "total_cum", no_total_cum)
    got = ev.per_subject(())
    assert (len(builds), len(passes)) == (1, 1)
    ev.per_subject(())
    assert (len(builds), len(passes)) == (1, 2)
    monkeypatch.undo()
    np.testing.assert_allclose(got, [loglik_atom(model, rec, 3.0) for rec in records],
                               rtol=1e-9, atol=0.0)


def _moved(theta, names, **values):
    theta = theta.copy()
    for name, value in values.items():
        theta[names.index(name)] = value
    return theta


@pytest.mark.parametrize("workload, n, moves", [
    ("weibull-hybrid", 60, [
        {}, {"gamma12": 0.3}, {"gamma12": -0.3}, {"eta12": -0.5},
        {"b01": 1.3, "b02": 0.8, "gamma12": 0.3}, {"b01": 1.0, "b02": 1.0},
    ]),
    ("dementia-visits", 12, [{}, {"a01": 0.3, "a02": 0.05, "a04": 0.4}]),
])
def test_geometry_holds_for_every_theta(workload, n, moves, tmp_path, monkeypatch):
    # the geometry is built once, at a theta with gamma12 exactly 0; every
    # other theta must give the bits of the density built afresh on the
    # same plan arrays
    w = workloads.WORKLOADS[workload]
    workloads.write_configs(w, tmp_path / "model.json", tmp_path / "scheme.json")
    cfg = load_model_config(tmp_path / "model.json")
    scheme = load_scheme_config(tmp_path / "scheme.json", cfg.component_names)
    records = workloads.sample_cohort(w, scheme, n, workloads.rng_for(w, 1, 2))
    fam, theta = cfg.family, cfg.theta_from()
    ev = DatasetEvaluator(fam, records, w.horizon)
    names = list(fam.param_names)
    thetas = [theta * 1.1, theta * 0.9] + [_moved(theta, names, **m) for m in moves]
    for th in thetas:
        got = ev.per_subject(th)
        with monkeypatch.context() as m:
            m.setattr(inference, "_density_at",
                      lambda model, _: _density(model, ev._s, ev._f, ev.C))
            ref = ev.per_subject(th)
        assert np.array_equal(got, ref), th


def switching_family(gated_from_the_start):
    """Illness and death race independently on one side of eta = 0.25; on
    the other, death switches illness off and illness multiplies death by
    exp(eta). The probe, eta = 0, builds the one side or the other."""
    def build(th):
        a01, a02, eta = th
        if (eta <= 0.25) != gated_from_the_start:
            return IntensityModel((MultiplicativeComponent(0, Constant(a01)),
                                   MultiplicativeComponent(1, Constant(a02))))
        return IntensityModel((
            MultiplicativeComponent(0, Constant(a01), gates=(1,)),
            MultiplicativeComponent(1, Constant(a02), terms=(ModifierTerm((0,), eta),))))
    return ParametricFamily(("a01", "a02", "eta"), ("log", "log", "identity"), build)


@pytest.mark.parametrize("gated_from_the_start", [False, True])
def test_structure_change_builds_its_own_plan(gated_from_the_start):
    # the third record's illness range holds the death time, where a gate
    # cuts it
    fam = switching_family(gated_from_the_start)
    records = [_rec(Exact(0.7, True), Exact(2.5, True)),
               _rec(Interval(0.5, 1.5), Exact(2.0, True)),
               _rec(Interval(1.0, 2.5), Exact(1.8, True)),
               _rec(SurvivedBeyond(1.0), Exact(3.0, False)),
               _rec(Interval(0.0, 1.0), SurvivedBeyond(2.0))]
    ev = DatasetEvaluator(fam, records, 3.0)
    for eta in (0.1, 0.7, 0.1, 0.7):
        theta = np.array([0.35, 0.25, eta])
        got = ev.per_subject(theta)
        assert np.array_equal(got, DatasetEvaluator(fam, records, 3.0).per_subject(theta))
        ref = [loglik_atom(fam.build(theta), rec, 3.0) for rec in records]
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("eta", [0.7, 700.0, 800.0, 1e300])
def test_modifier_that_never_switches_on_cannot_overflow(eta):
    # exp(eta) is inf above about 709; the never-ill record's death
    # modifier never switches on, so the record keeps its closed form
    model = IntensityModel((
        MultiplicativeComponent(0, Constant(0.1), gates=(1,)),
        MultiplicativeComponent(1, Constant(0.2), terms=(ModifierTerm((0,), eta),))))
    record = _rec(Exact(10.0, False), Exact(10.0, False))
    with np.errstate(over="ignore"):
        assert loglik_atom(model, record, 10.0) == -3.0
        assert per_subject_loglik(model, [record], 10.0).tolist() == [-3.0]


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
    with pytest.raises(InvalidInputError, match=name):
        per_subject_loglik(fam.build([0.5]), [], 2.0, **{name: value})
    if name != "max_evals":
        with pytest.raises(InvalidInputError, match=name):
            fit_mle(fam, records, 2.0, [0.5], **{name: value})
