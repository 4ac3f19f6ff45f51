"""Maximum likelihood over parametric intensity families."""

import dataclasses
import functools
import json
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import coarselik.inference as inference
from coarselik.baselines import Constant, PiecewiseConstant, Weibull
from coarselik.catalog import (
    DementiaParams,
    dementia_family,
    dementia_model,
    dementia_visit_scheme,
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
from coarselik.likelihood import _density, _layout_codes, conditional_loglik, loglik_atom
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
from coarselik.oracle import illness_death_mixed_loglik
from coarselik.simulate import coarsen_cohort, record_from_codes, simulate_cohort

from benchmark_workloads import workloads
from nested_reference import nested_loglik


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
    # the Markov oracle: illness read at visits, death timed
    spec = illness_death(*theta)[0]
    direct = [illness_death_mixed_loglik(spec, *workloads.as_oracle_args(rec)) for rec in records]
    assert np.allclose(ev.per_subject(theta), direct, rtol=1e-7, atol=1e-10)
    assert ev.information(theta, curvature=False)[0] == pytest.approx(
        dataset_loglik(fam.build(theta), records, scheme.horizon), rel=1e-7)


def test_impossible_start_names_the_subject():
    fam = ParametricFamily(
        ("late_rate",), ("log",),
        lambda th: IntensityModel(
            (MultiplicativeComponent(0, PiecewiseConstant((6.0,), (0.0, th[0]))),)),
        fixed_breakpoints=(6.0,),
    )
    # the impossible record comes twice, after a possible one twice: the
    # first of its subjects is named
    records = [PseudoAtomRecord((Exact(2.0, False),)),
               PseudoAtomRecord((Interval(0.0, 1.0),))]
    with pytest.raises(InvalidStartError) as exc:
        fit_mle(fam, [records[0], records[0], records[1], records[1]], 2.0, [0.1])
    assert exc.value.subject_index == 2


def test_overflowing_start_is_rejected_without_warnings():
    # a start far out overflows the cumulative hazards: the fit rejects it
    # as a -inf start, the suite's warning filter raising nothing before
    fam = illness_death_family("constant")
    scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    records = panel_records(fam.build([0.35, 0.25, 0.8]), scheme, 20, seed=3)
    with pytest.raises(InvalidStartError):
        fit_mle(fam, records, scheme.horizon, [1e308, 0.2, 0.3])


def test_fit_runs_one_kernel_pass_per_evaluation(tmp_path, monkeypatch):
    # one geometry per fit; each Newton trial point, the start's included,
    # is one kernel pass for the values, the score and the information,
    # and no pass follows the last iterate. A config family has a value
    # map: a pass's theta map is one build of the point and one value-map
    # call for it and its 2k stencil points, and the map's curvature, at
    # the estimate alone, one value-map call for the 1 + 2k^2 points of its
    # second differences, with no model built
    fam, records, C, theta = _workload_case("illness-death-panel", 40, tmp_path)
    assert fam.value_map is not None
    builds, passes, models, maps = [], [], [], []

    def counted(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(inference, "_density_geometry",
                        counted(builds, inference._density_geometry))

    def kernel(*args, real=inference._density_at):
        passes.append((args, real(*args)))
        return passes[-1][1]

    monkeypatch.setattr(inference, "_density_at", kernel)
    family = dataclasses.replace(fam, builder=counted(models, fam.builder),
                                 value_map=counted(maps, fam.value_map))
    res = fit_mle(family, records, C, theta)
    assert res.converged and res.std_errors is not None
    assert len(builds) == 1
    assert len(passes) == res.n_evaluations
    assert all(args[2] is not None for args, _ in passes)
    # every pass is on a model of numbers, with second derivatives
    assert all(args[0].values.shape == (len(args[2]),) for args, _ in passes)
    assert all(isinstance(out[2], dict) and out[2] for _, out in passes)
    # the plan's probe and one build per pass, each of one point
    assert len(models) == 1 + res.n_evaluations
    assert all(m[0].shape == (fam.k,) for m in models)
    # one value-map call per pass, and the curvature's last
    assert len(maps) == res.n_evaluations + 1
    assert all(m[0].shape == (2 * fam.k + 1, fam.k) for m in maps[:-1])
    assert maps[-1][0].shape == (1 + 2 * fam.k ** 2, fam.k)


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


def count_plan_builds(monkeypatch):
    """A list that gets an entry for each DatasetEvaluator plan build: one
    with the evaluator, and one more for each refinement round."""
    builds, real = [], DatasetEvaluator._build_plan
    monkeypatch.setattr(DatasetEvaluator, "_build_plan",
                        lambda self, probe: builds.append(probe) or real(self, probe))
    return builds


DEMENTIA = dementia_model(DementiaParams(
    0.3, 0.2, 0.25, eta_inst_dem=0.4, eta_dem_inst=0.5, eta_dem_death=0.6,
    eta_inst_death=0.3, eta_both_death=-0.2))

# (model, horizon, records, whether a record needs a refined plan); illness
# (component 0) is switched off by death (component 1)
AGREEMENT_CASES = {
    "exact": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Exact(0.4, True), Exact(1.2, True)),
        _rec(Exact(0.7, True), Exact(3.0, False)),
        _rec(Exact(3.0, False), Exact(2.5, True)),
        _rec(Exact(3.0, False), Exact(3.0, False)),
    ], False),
    "interval_1d": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Interval(0.5, 1.0), Exact(3.0, False)),
        _rec(Interval(0.0, 2.5), Exact(3.0, False)),
        _rec(Interval(1.0, 2.0), Exact(2.6, True)),
    ], False),
    "corner": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(SurvivedBeyond(1.0), Exact(3.0, False)),
        _rec(SurvivedBeyond(0.0), Exact(3.0, False)),
        _rec(Exact(1.5, True), SurvivedBeyond(2.0)),
    ], False),
    "death_gated_cut": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Interval(1.0, 2.5), Exact(1.8, True)),
        _rec(SurvivedBeyond(0.5), Exact(2.2, True)),
        _rec(Interval(2.0, 3.0), Exact(1.5, True)),   # impossible: -inf
    ], False),
    "coarse_2d": (illness_death(0.35, 0.25, 0.8)[1], 3.0, [
        _rec(Interval(0.5, 1.0), SurvivedBeyond(2.0)),
        _rec(Interval(0.0, 1.0), Interval(1.0, 2.0)),
        _rec(SurvivedBeyond(1.0), SurvivedBeyond(1.5)),
    ], False),
    # the inner range's lower bound 1.2 and the breakpoint 0.75 lie inside the
    # outer range, where the inner integral has kinks
    "coarse_2d_inner_bound": (illness_death(PiecewiseConstant((0.75, 1.6), (0.2, 0.6, 0.3)),
                                            PiecewiseConstant((0.75, 1.6), (0.1, 0.4, 0.2)),
                                            0.8)[1], 3.0, [
        _rec(Interval(0.0, 2.0), SurvivedBeyond(1.2)),
        _rec(Interval(0.5, 1.5), Interval(1.2, 2.5)),
    ], False),
    "piecewise": (illness_death(PiecewiseConstant((0.75, 1.6), (0.2, 0.6, 0.3)),
                                PiecewiseConstant((0.75, 1.6), (0.1, 0.4, 0.2)),
                                0.8)[1], 3.0, [
        _rec(Interval(0.5, 2.0), Exact(3.0, False)),
        _rec(SurvivedBeyond(0.6), Exact(3.0, False)),
        _rec(Interval(0.0, 1.0), Exact(1.7, True)),
        _rec(Exact(1.2, True), SurvivedBeyond(0.5)),    # illness time inside the range
        _rec(Exact(1.6, True), SurvivedBeyond(0.5)),    # ... and on a breakpoint
    ], False),
    "weibull_from_zero": (illness_death(Weibull(0.4, 0.7), 0.2, 0.5)[1], 2.0, [
        _rec(Interval(0.0, 1.0), Exact(2.0, False)),
    ], True),
    # dementia and institution are switched off by death (component 2): a
    # survivor cut by the death time has only its no-jump term left
    "dementia_death_cut": (DEMENTIA, 3.0, [
        _rec(Interval(0.0, 1.0), SurvivedBeyond(2.2), Exact(2.2, True)),
        _rec(Interval(1.0, 2.0), SurvivedBeyond(2.5), Exact(2.5, True)),
        _rec(SurvivedBeyond(1.5), SurvivedBeyond(1.5), Exact(1.5, True)),
    ], False),
    # two survivors both live until the death: a term of two free coordinates
    "dementia_2d": (DEMENTIA, 3.0, [
        _rec(SurvivedBeyond(0.5), SurvivedBeyond(1.0), Exact(2.5, True)),
        _rec(SurvivedBeyond(1.0), SurvivedBeyond(1.0), Exact(2.8, True)),
        _rec(SurvivedBeyond(0.0), SurvivedBeyond(0.5), Exact(1.7, True)),
    ], False),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_per_subject_loglik_agrees_with_nested_quadrature(case, monkeypatch):
    model, C, records, refined = AGREEMENT_CASES[case]
    builds = count_plan_builds(monkeypatch)
    got = per_subject_loglik(model, records, C)
    assert (len(builds) > 1) == refined
    ref = np.array([nested_loglik(model, rec, C) for rec in records])
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)
    assert dataset_loglik(model, records, C) == pytest.approx(ref.sum(), rel=1e-9)


def per_record_terms(model, records, C):
    """A cohort's term arrays as a plan of one record lays them out (that
    of loglik_atom): one _layout_codes call per record, its terms appended
    in order."""
    parts = [_layout_codes(model, StatusCodes.from_records([rec]), C) for rec in records]
    rec = np.concatenate([i + part[0] for i, part in enumerate(parts)])
    S, F = (np.ascontiguousarray(np.concatenate([part[k] for part in parts], axis=1))
            for k in (1, 2))
    R = np.full((max(len(part[3]) for part in parts), rec.size, 3), [-1.0, 0.0, 0.0])
    start = 0
    for *_, terms in parts:
        R[:len(terms), start:start + terms.shape[1]] = terms
        start += terms.shape[1]
    return rec, S, F, R


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
def test_plan_from_codes_matches_the_per_record_plan(case):
    # the array layout of a cohort's codes is that of its records one by
    # one, bit for bit: the cohort's plan has each record's own terms
    model, C, records = PLAN_CASES[case]
    codes = StatusCodes.from_records(records)
    for got, ref in zip(_layout_codes(model, codes, C), per_record_terms(model, records, C)):
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_loglik_atom_is_the_plan_on_one_record(case):
    # one likelihood route: loglik_atom gives each record the bits the
    # cohort's plan gives it
    model, C, records = PLAN_CASES[case]
    ref = per_subject_loglik(model, records, C)
    got = np.array([loglik_atom(model, rec, C) for rec in records])
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["constant", "weibull"])
def test_conditional_loglik_is_the_plan_on_the_clipped_record(kind):
    # validate's conditioned Markov shape, and two records the conditioning
    # clips: the plan's value of the clipped record plus the exposure before
    # v0, bit for bit
    rates = ((0.35, 0.25, 0.8) if kind == "constant" else
             (Weibull(0.4, 1.5), Weibull(0.3, 0.8), Weibull(0.7, 1.2)))
    model = illness_death(*rates)[1]
    C, v0 = 2.0, 0.5
    pairs = [(_rec(Interval(v0, 0.9), Exact(1.7, True)), _rec(Interval(v0, 0.9), Exact(1.7, True))),
             (_rec(Interval(0.2, 0.9), Exact(1.7, True)), _rec(Interval(v0, 0.9), Exact(1.7, True))),
             (_rec(SurvivedBeyond(0.3), Exact(C, False)), _rec(SurvivedBeyond(v0), Exact(C, False)))]
    exposure = float(model.total_cum(0.0, v0, [np.inf] * 2))
    ref = per_subject_loglik(model, [clipped for _, clipped in pairs], C) + exposure
    got = np.array([conditional_loglik(model, rec, C, v0) for rec, _ in pairs])
    assert got.tobytes() == ref.tobytes()


# one record's corner terms written out as (s, flags, free): the all-free
# term first, then one for each subset of the live survivors pinned at C, by
# size; free ranges list the intervals first, then the unpinned survivors.
# DEMENTIA's dementia and institution are switched off by death (component 2).
HAND_LAYOUTS = {
    "no_live_survivor": (3.0, _rec(Interval(0.0, 1.0), SurvivedBeyond(2.2), Exact(2.2, True)), [
        ([3.0, 3.0, 2.2], [1, 0, 1], [(0, 0.0, 1.0)]),
    ]),
    "one_survivor_cut_by_death": (3.0, _rec(Interval(1.0, 2.0), SurvivedBeyond(1.5),
                                            Exact(2.5, True)), [
        ([3.0, 3.0, 2.5], [1, 1, 1], [(0, 1.0, 2.0), (1, 1.5, 2.5)]),
        ([3.0, 3.0, 2.5], [1, 0, 1], [(0, 1.0, 2.0)]),
    ]),
    "one_survivor_to_horizon": (3.0, _rec(SurvivedBeyond(1.0), Interval(0.0, 1.5),
                                          Exact(3.0, False)), [
        ([3.0, 3.0, 3.0], [1, 1, 0], [(1, 0.0, 1.5), (0, 1.0, 3.0)]),
        ([3.0, 3.0, 3.0], [0, 1, 0], [(1, 0.0, 1.5)]),
    ]),
    "two_survivors": (3.0, _rec(SurvivedBeyond(0.5), SurvivedBeyond(1.0), Exact(2.5, True)), [
        ([3.0, 3.0, 2.5], [1, 1, 1], [(0, 0.5, 2.5), (1, 1.0, 2.5)]),
        ([3.0, 3.0, 2.5], [0, 1, 1], [(1, 1.0, 2.5)]),
        ([3.0, 3.0, 2.5], [1, 0, 1], [(0, 0.5, 2.5)]),
        ([3.0, 3.0, 2.5], [0, 0, 1], []),
    ]),
    # the death at 1.5 cuts the interval (2, 3] empty: no terms
    "impossible_interval": (3.0, _rec(Interval(2.0, 3.0), SurvivedBeyond(1.0),
                                      Exact(1.5, True)), []),
    "three_d": (2.0, _rec(Interval(0.2, 1.0), Interval(0.3, 1.5), Interval(0.5, 1.8)), [
        ([2.0, 2.0, 2.0], [1, 1, 1], [(0, 0.2, 1.0), (1, 0.3, 1.5), (2, 0.5, 1.8)]),
    ]),
}


@pytest.mark.parametrize("case", sorted(HAND_LAYOUTS))
def test_layout_codes_gives_the_hand_written_terms(case):
    C, record, terms = HAND_LAYOUTS[case]
    n = len(terms)
    R = np.full((max((len(free) for *_, free in terms), default=0), n, 3), [-1.0, 0.0, 0.0])
    for t, (*_, free) in enumerate(terms):
        R[:len(free), t] = np.reshape(free, (-1, 3))
    ref = (np.zeros(n, dtype=int), np.reshape([s for s, _, _ in terms], (n, 3)).T,
           np.reshape(np.array([f for _, f, _ in terms], dtype=bool), (n, 3)).T, R)
    for got, want in zip(_layout_codes(DEMENTIA, StatusCodes.from_records([record]), C), ref):
        np.testing.assert_array_equal(got, want, strict=True)


def test_per_subject_loglik_passes_max_evals_to_the_plan():
    model, C, records, _ = AGREEMENT_CASES["weibull_from_zero"]
    with pytest.raises(ToleranceError):
        loglik_atom(model, records[0], C, max_evals=300)
    with pytest.raises(ToleranceError, match="^record 0: ") as exc:
        per_subject_loglik(model, records, C, max_evals=300)
    assert exc.value.record_index == 0


def test_per_subject_loglik_checks_record_width():
    model = illness_death(0.35, 0.25, 0.8)[1]
    assert per_subject_loglik(model, [], 2.0).shape == (0,)
    with pytest.raises(InvalidInputError):
        per_subject_loglik(model, [_rec(Exact(0.5, True))], 2.0)


# three interval components under dementia_family(): 10 125 to 50 625 plan
# nodes a record, within the default max_evals
THREE_D = [_rec(Interval(0.2, 1), Interval(0.3, 1.5), Interval(0.5, 1.8)),
           _rec(Interval(0.0, 0.5), Interval(0.25, 0.75), Interval(0.5, 1.0)),
           _rec(Interval(0.1, 0.6), Interval(0.1, 0.6), Interval(0.1, 0.6)),
           _rec(Interval(1.0, 1.5), Interval(0.2, 0.9), Interval(1.2, 1.9))]


def test_three_d_records_stay_on_the_plan(monkeypatch):
    # the coarse plan settles these records: no refinement, and the values
    # of nested adaptive quadrature given a far larger budget
    fam = dementia_family()
    model = fam.build(fam.from_search(np.zeros(fam.k)))
    builds = count_plan_builds(monkeypatch)
    got = per_subject_loglik(model, THREE_D, 2.0)
    assert len(builds) == 1
    ref = [nested_loglik(model, rec, 2.0, max_evals=2_000_000) for rec in THREE_D]
    np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0.0)
    assert got[0] == pytest.approx(-2.752668734764821, rel=1e-12)
    # loglik_atom settles the first at default options too, where nested
    # adaptive quadrature ran out of its 100 000 evaluations
    assert loglik_atom(model, THREE_D[0], 2.0) == got[0]


def test_evaluator_counts_tolerance_failures():
    # three intervals of length 6 take 50 625 nodes on the coarse plan and
    # miss the error check there, and refining them passes the default
    # budget; the failure is scored -inf, counted, and leaves the plan as it
    # was
    fam = dementia_family()
    record = _rec(Interval(0.2, 6.2), Interval(0.3, 6.3), Interval(0.5, 6.5))
    ev = DatasetEvaluator(fam, [record], 7.0)
    nodes = ev._rec.size
    theta = fam.from_search(np.zeros(fam.k))
    assert ev.information(theta, curvature=False)[0] == -np.inf
    assert (ev.n_evaluations, ev.n_tolerance_failures) == (1, 1)
    assert (nodes, ev._rec.size, ev._cuts.size) == (50_625, 50_625, 0)


def shared_rate_pair(shape=lambda rate: 0.7):
    """Two independent components with one shared rate, and three records;
    the last integrates a Weibull singularity at 0 (illness's shape, 0.7 by
    default), which the coarse plan cannot meet the tolerance on, so it is
    always refined."""
    fam = ParametricFamily(
        ("rate",), ("log",),
        lambda th: IntensityModel((MultiplicativeComponent(0, Weibull(th[0], shape(th[0]))),
                                   MultiplicativeComponent(1, Constant(th[0])))),
    )
    records = [_rec(Exact(0.2, True), Exact(0.3, True)),
               _rec(Exact(0.5, True), Exact(2.0, False)),
               _rec(Interval(0.0, 1.0), Exact(2.0, False))]
    return fam, records


def test_singular_record_settles_on_the_plan(monkeypatch):
    # the rate t^-0.3 at 0 is settled by bisecting the panel at 0 about 30
    # times; nested adaptive quadrature is only the reference
    assert not hasattr(inference, "loglik_atom")
    fam, records = shared_rate_pair()
    builds = count_plan_builds(monkeypatch)
    ev = DatasetEvaluator(fam, records, 2.0)
    got = ev.per_subject([0.5])
    assert len(builds) > 20 and ev._rec.size < 1_000
    np.testing.assert_allclose(got, [nested_loglik(fam.build([0.5]), rec, 2.0) for rec in records],
                               rtol=1e-9, atol=0.0)
    # the cuts stay: a nearby point needs no more
    rounds = len(builds)
    ev.per_subject([0.55])
    assert len(builds) == rounds


def test_record_whose_refinement_overflows_is_refused():
    # at shape 0.01 the panel at 0 is bisected about a thousand times until
    # its nodes are subnormal and the rate t^-0.99 overflows there: the
    # record is refused, not given the +inf sum
    fam, records = shared_rate_pair(lambda rate: 0.01)
    ev = DatasetEvaluator(fam, records, 2.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ToleranceError) as exc:
        ev.per_subject([0.5])
    assert (exc.value.record_index, exc.value.detail) == (2, "its integrand overflows")
    assert ev._cuts.size == 0


def _random_three_d(n, seed, C):
    """n records of three intervals (a, b], a ~ U(0, 2), b ~ U(a + 0.2, C)."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        statuses = []
        for _ in range(3):
            a = rng.uniform(0, 2)
            statuses.append(Interval(a, rng.uniform(a + 0.2, C)))
        records.append(PseudoAtomRecord(tuple(statuses)))
    return records


def test_random_three_d_cohort_settles_at_default_options(monkeypatch):
    # 20 random 3-D records once took 1.27 million nodes on fixed panels of
    # length at most 1, and two of them passed max_evals; on panels between
    # cuts they take 901 125, at most 94 500 a record, and pass the check
    # unrefined. The references are nested adaptive quadrature's
    # (nested_loglik) at max_evals=3_000_000, seconds each
    fam = dementia_family()
    model = fam.build(fam.from_search(np.zeros(fam.k)))
    builds = count_plan_builds(monkeypatch)
    got = per_subject_loglik(model, _random_three_d(20, 5, 3.0), 3.0)
    assert len(builds) == 1
    # dementia wholly after death: impossible
    assert np.flatnonzero(got == -np.inf).tolist() == [0, 5, 18]
    np.testing.assert_allclose(got[[8, 19]], [-1.7263579007554737, -6.816830915585585],
                               rtol=1e-8, atol=0.0)


def shape_switching(rate_above, shape):
    """Illness's Weibull shape: 0.7, and `shape` for a rate above
    rate_above."""
    return lambda rate: shape if rate > rate_above else 0.7


def test_fit_reports_tolerance_failures(monkeypatch):
    # at a budget of 500 nodes the singular record settles at shape 0.7, and
    # not at shape 0.3, which the family takes above rate 0.9: the full
    # Newton step from 0.2 lands there, is refused and counted, and the
    # halved step goes on to the optimum at 0.70
    fam, records = shared_rate_pair()
    res = fit_mle(fam, records, 2.0, [0.5])
    assert res.n_tolerance_failures == 0
    assert "quadrature budget" not in res.message
    fam, records = shared_rate_pair(shape_switching(0.9, 0.3))
    evaluator = functools.partial(DatasetEvaluator, max_evals=500)
    # the first trial in u = log rate: u + g_u / I_u, with g_u = rate s and
    # I_u = rate^2 I - g_u
    _, score, info = evaluator(fam, records, 2.0).information([0.2], curvature=False)
    g = 0.2 * score.sum()
    assert 0.2 * np.exp(g / (0.04 * info[0, 0] - g)) > 0.9
    monkeypatch.setattr(inference, "DatasetEvaluator", evaluator)
    res = fit_mle(fam, records, 2.0, [0.2])
    assert res.converged
    assert res.n_tolerance_failures == 1
    assert res.message.endswith("; 1 evaluation(s) ran out of quadrature budget "
                                "and counted as -inf")


def weibull_pair():
    """shared_rate_pair with illness's Weibull shape a second parameter."""
    return ParametricFamily(
        ("rate", "shape"), ("log", "log"),
        lambda th: IntensityModel((MultiplicativeComponent(0, Weibull(th[0], th[1])),
                                   MultiplicativeComponent(1, Constant(th[0])))),
    )


def test_point_out_of_budget_sinks_alone(monkeypatch):
    # at a budget of 500 nodes the singular record is settled at shape 0.7
    # and not at shape 0.3: that point is -inf and counted, its failed
    # refinement leaves the plan of the point before, and the point after it
    # keeps the bits of an evaluator that never met it
    fam, records = weibull_pair(), shared_rate_pair()[1]
    points = np.array([[0.5, 1.0], [0.6, 0.7], [0.65, 0.3], [0.7, 0.7]])
    ref = DatasetEvaluator(fam, records, 2.0, max_evals=500)
    ref = [ref.information(theta, curvature=False)[:2] for theta in points[[0, 1, 3]]]
    ev = DatasetEvaluator(fam, records, 2.0, max_evals=500)
    got = [ev.information(theta, curvature=False)[:2] for theta in points[:2]]
    plan, cuts = ev._rec.size, ev._cuts
    assert plan > 15 + 2
    builds = count_plan_builds(monkeypatch)
    got.append(ev.information(points[2], curvature=False)[:2])
    assert (ev._rec.size, ev._cuts.tobytes()) == (plan, cuts.tobytes())
    n_builds = len(builds)
    got.append(ev.information(points[3], curvature=False)[:2])
    assert len(builds) == n_builds
    assert (ev.n_evaluations, ev.n_tolerance_failures) == (4, 1)
    assert got[2][0] == -np.inf and np.isnan(got[2][1]).all()
    for (total, score), (total_ref, score_ref) in zip(got[:2] + got[3:], ref):
        assert np.float64(total).tobytes() == np.float64(total_ref).tobytes()
        assert score.tobytes() == score_ref.tobytes()


def test_stencil_across_a_structure_change():
    # at eta = 0.25 the model does not depend on eta, and the stencil's
    # point above it has another structure: the score in eta is the
    # one-sided difference, 0, and each point has the bits of a fresh
    # evaluator's, however many structure changes the evaluator has met
    fam = switching_family(False)
    records = [_rec(Exact(0.7, True), Exact(2.5, True)),
               _rec(Interval(0.5, 1.5), Exact(2.0, True)),
               _rec(Interval(1.0, 2.5), Exact(1.8, True)),
               _rec(SurvivedBeyond(1.0), Exact(3.0, False)),
               _rec(Interval(0.0, 1.0), SurvivedBeyond(2.0))]
    ev = DatasetEvaluator(fam, records, 3.0)
    for eta in (0.1, 0.7, 0.25, 0.2, 0.9):
        theta = np.array([0.35, 0.25, eta])
        total, score = ev.information(theta, curvature=False)[:2]
        total_ref, score_ref = DatasetEvaluator(fam, records, 3.0).information(
            theta, curvature=False)[:2]
        assert np.float64(total).tobytes() == np.float64(total_ref).tobytes()
        assert score.tobytes() == score_ref.tobytes()
        assert np.isfinite(total) and np.isfinite(score).all()
    assert ev.n_evaluations == 5
    total, score = ev.information([0.35, 0.25, 0.25], curvature=False)[:2]
    assert (score[:, 2] == 0.0).all()
    # the information's second differences in eta meet the other structure:
    # its eta row is unknown, the rest matches the score's differences
    _, _, info = ev.information([0.35, 0.25, 0.25])
    assert np.isnan(info[2]).all() and np.isnan(info[:, 2]).all()
    ref = _information_reference(ev, np.array([0.35, 0.25, 0.25]))
    _assert_information_close(info[:2, :2], ref[:2, :2])


def test_fit_survives_non_finite_search_points(monkeypatch):
    # at a budget of 500 nodes the singular record is refused above rate 0.6,
    # where its shape is 0.3, so the likelihood is -inf there, short of the
    # optimum at 0.70; the steps that reach it are halved, and the fit stops
    # at the edge once such a trial has cut the step of 3 iterations in a
    # row
    fam, records = shared_rate_pair(shape_switching(0.6, 0.3))
    monkeypatch.setattr(inference, "DatasetEvaluator",
                        functools.partial(DatasetEvaluator, max_evals=500))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit_mle(fam, records, 2.0, [0.5])
    # trials at -inf stay quiet
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert res.theta["rate"] <= 0.6
    assert np.isfinite(res.loglik)
    assert res.n_tolerance_failures > 0
    # stopped at the edge, not at a stationary point: no standard error
    assert res.std_errors is None
    assert not res.converged and "3 iterations in a row" in res.message
    # no more evaluations than a BFGS fit made here, 25; halving the step
    # down to the edge iteration after iteration takes over 100
    assert res.n_evaluations <= 25


def test_record_past_the_node_budget_is_refused():
    # three intervals of length 6 take 50 625 nodes on the coarse plan: past
    # a budget of 50 000 the record leaves the plan before they are built,
    # and is refused by its index
    fam = dementia_family()
    record = _rec(Interval(0.2, 6.2), Interval(0.3, 6.3), Interval(0.5, 6.5))
    tracemalloc.start()
    try:
        ev = DatasetEvaluator(fam, [record], 7.0, max_evals=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    with pytest.raises(ToleranceError, match=r"^record 0: needs more than max_evals = 50000 "):
        ev.per_subject(fam.from_search(np.zeros(fam.k)))

    # the budget is the user's: an interval of one panel has 15 nodes, and
    # is refused when max_evals is smaller; an exact record has one
    model = illness_death(0.35, 0.25, 0.8)[1]
    records = [_rec(Exact(0.4, True), Exact(1.2, True)),
               _rec(Interval(0.5, 1.0), Exact(3.0, False))]
    ref = per_subject_loglik(model, records, 3.0)
    assert per_subject_loglik(model, records, 3.0, max_evals=15).tolist() == ref.tolist()
    with pytest.raises(ToleranceError) as exc:
        per_subject_loglik(model, records, 3.0, max_evals=14)
    assert (exc.value.record_index, exc.value.detail) == (
        1, "needs more than max_evals = 14 quadrature nodes")


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

    def no_total_cum(*args, **kwargs):
        raise AssertionError("the per-theta pass reads the geometry, not total_cum")

    monkeypatch.setattr(inference, "_density_geometry",
                        counted(builds, inference._density_geometry))
    monkeypatch.setattr(inference, "_density_at", counted(passes, inference._density_at))
    ev = DatasetEvaluator(ParametricFamily((), (), lambda _: model), records, 3.0)
    assert (len(builds), len(passes)) == (1, 0)
    monkeypatch.setattr(IntensityModel, "total_cum", no_total_cum)
    got = ev.per_subject(())
    assert (len(builds), len(passes)) == (1, 1)
    ev.per_subject(())
    assert (len(builds), len(passes)) == (1, 2)
    monkeypatch.undo()
    np.testing.assert_allclose(got, [nested_loglik(model, rec, 3.0) for rec in records],
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
                      lambda model, _, need: (_density(model, ev._s, ev._f, ev.C), None, None))
            ref = ev.per_subject(th)
        assert np.array_equal(got, ref), th


def _workload_case(name, n, tmp_path, seed=1, stream=2, **moves):
    """The workload's config family, n records of its cohort sampler, its
    horizon and its config theta with `moves` applied."""
    w = workloads.WORKLOADS[name]
    workloads.write_configs(w, tmp_path / "model.json", tmp_path / "scheme.json")
    cfg = load_model_config(tmp_path / "model.json")
    scheme = load_scheme_config(tmp_path / "scheme.json", cfg.component_names)
    records = workloads.sample_cohort(w, scheme, n, workloads.rng_for(w, seed, stream))
    return (cfg.family, records, w.horizon,
            _moved(cfg.theta_from(), list(cfg.family.param_names), **moves))


def _dementia_case(tmp_path):
    _, records, C, _ = _workload_case("dementia-visits", 12, tmp_path)
    return dementia_family(), records, C, np.array([0.15, 0.18, 0.12, 0.4, 0.5, 0.6, 0.3, -0.2])


def _piecewise_case(tmp_path):
    fam = illness_death_family("piecewise", grid=(0.8,))
    truth = np.array([0.3, 0.4, 0.2, 0.3, 0.6, 0.9])
    scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    return fam, panel_records(fam.build(truth), scheme, 40, seed=5), 2.0, truth * 1.2


def _refined_case(tmp_path):
    # illness on Interval(0, 3] integrates its Weibull singularity at 0
    # (shape 0.7), which the coarse plan cannot settle
    fam, records, C, theta = _workload_case("weibull-hybrid", 30, tmp_path)
    return fam, records + [_rec(Interval(0.0, 3.0), Exact(6.0, True))], C, theta


def _offset_case(tmp_path):
    # death's log offset is a covariate coefficient times a known scale
    _, records, C, _ = _workload_case("illness-death-panel", 40, tmp_path)
    model = workloads.WORKLOADS["illness-death-panel"].model
    illness, death = model["intensities"]
    offset = {**death, "log_offset": {"coef": "beta", "scale": 0.7}}
    (tmp_path / "offset.json").write_text(json.dumps(
        {**model, "intensities": [illness, offset], "theta": {**model["theta"], "beta": 0.4}}))
    cfg = load_model_config(tmp_path / "offset.json")
    return cfg.family, records, C, cfg.theta_from()


SCORE_CASES = {
    "illness-death-panel": lambda tmp: _workload_case("illness-death-panel", 40, tmp, a01=0.15),
    "dementia-visits": lambda tmp: _workload_case("dementia-visits", 12, tmp),
    "weibull-hybrid": lambda tmp: _workload_case("weibull-hybrid", 40, tmp),
    "dementia-family": _dementia_case,
    "gamma12": lambda tmp: _workload_case("weibull-hybrid", 40, tmp, gamma12=0.3, b01=1.2),
    "piecewise": _piecewise_case,
    "offset": _offset_case,
    "refined": _refined_case,
}


@pytest.mark.parametrize("case", sorted(SCORE_CASES))
def test_score_matches_differences_of_the_total(case, tmp_path, monkeypatch):
    fam, records, C, theta = SCORE_CASES[case](tmp_path)
    builds = count_plan_builds(monkeypatch)
    ev = DatasetEvaluator(fam, records, C)
    total, score = ev.information(theta, curvature=False)[:2]
    assert (len(builds) > 1) == (case == "refined")
    assert np.isfinite(total) and score.shape == (len(records), fam.k)
    h = 1e-6 * np.maximum(np.abs(theta), 0.1)
    diffs = [(ev.per_subject(theta + step).sum() - ev.per_subject(theta - step).sum())
             / (2 * hk) for hk, step in zip(h, h * np.eye(fam.k))]
    np.testing.assert_allclose(score.sum(axis=0), diffs, rtol=1e-6)


def test_score_pass_builds_no_rate_or_cum_beyond_the_values_pass(tmp_path, monkeypatch):
    # the score differentiates log rates, and forms a cum only for a free
    # offset, which the dementia config has not
    fam, records, C, theta = _workload_case("dementia-visits", 12, tmp_path)
    ev = DatasetEvaluator(fam, records, C)
    calls = Counter()
    for name in ("rate_at", "cum_at"):
        real = getattr(MultiplicativeComponent, name)
        monkeypatch.setattr(MultiplicativeComponent, name,
                            lambda self, g, need=None, name=name, real=real:
                            calls.update([name]) or real(self, g, need))
    ev.per_subject(theta)
    values = dict(calls)
    calls.clear()
    ev.information(theta, curvature=False)
    assert dict(calls) == values == {"rate_at": 3, "cum_at": 3}


def _information_reference(ev, theta):
    """Minus the central differences of the exact total score at relative
    step h = 1e-5 (at least 1e-5 on an identity parameter), symmetrized."""
    h = 1e-5 * np.where(ev.family.is_log, np.abs(theta), np.maximum(np.abs(theta), 1.0))
    rows = [(ev.information(theta - step, curvature=False)[1].sum(axis=0)
             - ev.information(theta + step, curvature=False)[1].sum(axis=0)) / (2 * hk)
            for hk, step in zip(h, h * np.eye(theta.size))]
    return 0.5 * (np.array(rows) + np.array(rows).T)


def _assert_information_close(info, ref, tol=2e-6):
    """info equals ref to tol, each entry on the scale sqrt(ref_jj ref_ll);
    the reference's own rounding reaches 6e-7 on these cases (against 5e-8
    for a Richardson extrapolation at h = 1e-4)."""
    scale = 1.0 / np.sqrt(np.diag(ref))
    np.testing.assert_array_less(np.abs((info - ref) * scale[:, None] * scale), tol)


def _gamma_offset_case(tmp_path):
    # death's hazard after illness has a duration effect gamma12, and its
    # log offset a covariate coefficient times a known scale
    _, records, C, _ = _workload_case("weibull-hybrid", 40, tmp_path)
    model = workloads.WORKLOADS["weibull-hybrid"].model
    illness, death = model["intensities"]
    offset = {**death, "log_offset": {"coef": "beta", "scale": 0.7}}
    (tmp_path / "offset.json").write_text(json.dumps(
        {**model, "intensities": [illness, offset],
         "theta": {**model["theta"], "gamma12": 0.3, "beta": 0.4}}))
    cfg = load_model_config(tmp_path / "offset.json")
    return cfg.family, records, C, cfg.theta_from()


def _catalog_case(baseline, truth, theta, grid=None):
    def case(tmp_path):
        fam = illness_death_family(baseline, grid=grid)
        scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
        records = panel_records(fam.build(truth), scheme, 60, seed=7)
        return fam, records, 2.0, np.array(theta)
    return case


def _curved_case(tmp_path):
    # a user builder whose model values are not affine in theta, with
    # mixed second derivatives: the map's own curvature counts
    fam = ParametricFamily(
        ("r", "s", "t"), ("log", "log", "identity"),
        lambda th: illness_death(th[0] ** 2, th[0] * th[1], np.exp(th[2]))[1])
    scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    records = panel_records(fam.build([0.6, 0.4, -0.2]), scheme, 60, seed=8)
    return fam, records, 2.0, np.array([0.55, 0.45, -0.1])


def weibull_modifiers_family():
    """Dementia and institution, each switched off by death, and death's
    Weibull(a, b) baseline multiplied by exp(eta) after each of them."""
    def build(th):
        a01, a02, a, b, eta_dem, eta_inst = th
        return IntensityModel((
            MultiplicativeComponent(0, Constant(a01), gates=(2,)),
            MultiplicativeComponent(1, Constant(a02), gates=(2,)),
            MultiplicativeComponent(2, Weibull(a, b), terms=(ModifierTerm((0,), eta_dem),
                                                             ModifierTerm((1,), eta_inst)))))
    return ParametricFamily(("a01", "a02", "a", "b", "eta_dem", "eta_inst"),
                            ("log",) * 4 + ("identity",) * 2, build)


def _weibull_modifiers_case(tmp_path):
    # death's cum sums three modifier subsets, each adding its own second
    # derivatives in (a, b) to those of the baseline from 0; a whole shape
    # keeps every record on the coarse plan
    fam = weibull_modifiers_family()
    truth = np.array([0.3, 0.2, 0.25, 2.0, 0.6, 0.4])
    records = panel_records(fam.build(truth), dementia_visit_scheme([0.5, 1.0, 1.5], 2.0), 60,
                            seed=9)
    return fam, records, 2.0, truth


INFORMATION_CASES = {
    "illness-death-panel": SCORE_CASES["illness-death-panel"],
    "dementia-visits": SCORE_CASES["dementia-visits"],
    "weibull-hybrid": SCORE_CASES["weibull-hybrid"],
    "catalog-constant": _catalog_case("constant", [0.35, 0.25, 0.8], [0.4, 0.3, 0.7]),
    # whole shapes keep every record on the coarse plan (a rate like t^0.3
    # at the panel's start, 0, is refined)
    "catalog-weibull": _catalog_case("weibull", [0.4, 2.0, 0.2, 1.0, 0.6, 2.0],
                                     [0.5, 2.0, 0.25, 1.0, 0.5, 3.0]),
    "catalog-piecewise": _catalog_case("piecewise", [0.3, 0.4, 0.2, 0.3, 0.6, 0.9],
                                       [0.35, 0.45, 0.2, 0.35, 0.7, 1.0], grid=(0.8,)),
    "dementia-family": _dementia_case,
    "gamma-and-offset": _gamma_offset_case,
    "curved-builder": _curved_case,
    "refined": _refined_case,
    "weibull-modifiers": _weibull_modifiers_case,
}


@pytest.mark.parametrize("case", sorted(INFORMATION_CASES))
def test_information_matches_differences_of_the_score(case, tmp_path, monkeypatch):
    fam, records, C, theta = INFORMATION_CASES[case](tmp_path)
    builds = count_plan_builds(monkeypatch)
    ev = DatasetEvaluator(fam, records, C)
    total, score, info = ev.information(theta)
    assert (len(builds) > 1) == (case == "refined")
    assert ev.n_evaluations == 1
    # the information's pass gives the values of the value-only pass, and
    # the scores of a pass without the map's own curvature
    ref = DatasetEvaluator(fam, records, C)
    assert total == ref.per_subject(theta).sum()
    assert score.tobytes() == ref.information(theta, curvature=False)[1].tobytes()
    assert np.array_equal(info, info.T) and np.isfinite(info).all()
    _assert_information_close(info, _information_reference(ev, theta))


def test_fit_standard_errors_from_the_information(tmp_path, monkeypatch):
    # one record is refined; the standard errors are the delta method's on
    # the search variables, from the information at the estimate
    fam, records, C, theta = _refined_case(tmp_path)
    builds = count_plan_builds(monkeypatch)
    res = fit_mle(fam, records, C, theta)
    assert res.converged and len(builds) > 1
    theta_hat = np.array(list(res.theta.values()))
    ev = DatasetEvaluator(fam, records, C)
    ref = _information_reference(ev, theta_hat)
    score = ev.information(theta_hat, curvature=False)[1].sum(axis=0)
    scale = np.where(fam.is_log, theta_hat, 1.0)
    info_u = scale[:, None] * ref * scale - np.diag(np.where(fam.is_log, theta_hat * score, 0.0))
    se = scale * np.sqrt(np.diag(np.linalg.inv(info_u)))
    np.testing.assert_allclose(list(res.std_errors.values()), se, rtol=1e-5)


@pytest.mark.parametrize("init, message", [
    ([0.35, 0.25], r"expected 3 parameter values \(a01, a02, a12\), got shape \(2,\)"),
    ([0.35, 0.25, 0.8, 0.1], r"expected 3 parameter values \(a01, a02, a12\), got shape \(4,\)"),
    ([[0.35, 0.25, 0.8]], r"expected 3 parameter values \(a01, a02, a12\), got shape \(1, 3\)"),
    ({"a01": 0.35, "a02": 0.25, "a12": 0.8, "zzz": 1.0}, r"unknown parameters \['zzz'\]"),
])
def test_fit_refuses_a_wrong_init(init, message):
    # a wrong length or shape once raised IndexError or ValueError, and an
    # unknown name was ignored
    fam = illness_death_family("constant")
    scheme = panel_death_scheme([1.0], 2.0)
    records = panel_records(fam.build([0.3, 0.2, 0.5]), scheme, 20, seed=2)
    with pytest.raises(InvalidInputError, match=message):
        fit_mle(fam, records, scheme.horizon, init)


@pytest.mark.parametrize("stream", [4, 6])
def test_newton_keeps_weibull_fits_on_the_plan(stream, tmp_path, monkeypatch):
    # a step far out of the data's range of theta (as BFGS's first unit
    # step once was, unscaled) makes many of these records miss the plan's
    # error check there; the Newton steps stay in range, so the plan is
    # never refined
    fam, records, C, theta = _workload_case("weibull-hybrid", 200, tmp_path, 4001, stream)
    builds = count_plan_builds(monkeypatch)
    res = fit_mle(fam, records, C, theta)
    assert res.converged and res.std_errors is not None
    assert len(builds) == 1


def test_fit_takes_bhhh_steps_where_the_information_is_not_positive_definite(monkeypatch):
    # far from the estimate the observed information is not positive
    # definite, and there the step is the BHHH step; the fit still reaches
    # the estimate of the fit started at the truth
    fam = illness_death_family("constant")
    scheme = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    records = panel_records(fam.build([0.35, 0.25, 0.8]), scheme, 500, seed=21)
    ref = fit_mle(fam, records, scheme.horizon, [0.35, 0.25, 0.8])
    solved, real = [], inference._solve
    monkeypatch.setattr(inference, "_solve", lambda A, g: solved.append(real(A, g)) or solved[-1])
    res = fit_mle(fam, records, scheme.horizon, [2.0, 0.01, 5.0])
    assert res.converged
    # a None is an information that did not factor, and a BHHH step taken
    assert any(x is None for x in solved)
    se = np.array(list(ref.std_errors.values()))
    np.testing.assert_array_less(
        np.abs(np.array(list(res.theta.values())) - list(ref.theta.values())), 1e-6 * se)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_score_in_one_product_matches_the_per_parameter_loop(workload, tmp_path):
    # the score sums the stacked d rows by record in one _by_record call,
    # each row in the order of the loop that summed one parameter a pass:
    # the same bits, on each workload's first benchmark fit cohort, each
    # plan record's score given to every subject with that record
    w = workloads.WORKLOADS[workload]
    fam, records, C, theta = _workload_case(workload, w.n_fit, tmp_path, 4001, 2)
    ev = DatasetEvaluator(fam, records, C)
    for th in (theta, theta * 1.1):
        score = ev.information(th, curvature=False)[1]
        model, J = ev._theta_map(th)
        _, f, grads, _, total = ev._on_plan(model, J.any(axis=1).tolist())
        wf = ev._w[0] * f
        ref = np.empty((total.size, fam.k))
        for j in range(fam.k):
            gj = 0
            for v in np.flatnonzero(J[:, j]):
                gj = gj + J[v, j] * grads[v]
            ref[:, j] = ev._by_record(np.where(wf != 0.0, wf * gj, 0.0)[None])[0] / total
        assert score.shape == (ev.n, fam.k)
        assert score.tobytes() == ref[ev._inverse].tobytes()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_repeated_records_take_their_own_loglik_atom_values(workload, tmp_path):
    # a cohort written three times over and shuffled: the plan keeps one
    # copy of each record, and every subject gets its record's loglik_atom
    # value, bit for bit
    fam, records, C, theta = _workload_case(workload, 20, tmp_path, 4001, 1)
    model = fam.build(theta)
    atoms = [loglik_atom(model, rec, C) for rec in records]
    order = np.random.default_rng(5).permutation(3 * len(records)) % len(records)
    got = per_subject_loglik(model, [records[i] for i in order], C)
    assert got.tobytes() == np.array(atoms)[order].tobytes()


def test_records_a_bit_apart_stay_apart():
    # a -0.0 survival bound against 0.0, and a death time against the next
    # float after it: three records, each with its own copy on the plan and
    # its own value
    model = illness_death(0.3, 0.2, 0.5)[1]
    fixed = ParametricFamily((), (), lambda _: model)
    t = 1.3
    records = [_rec(SurvivedBeyond(0.0), Exact(t, True)),
               _rec(SurvivedBeyond(-0.0), Exact(t, True)),
               _rec(SurvivedBeyond(0.0), Exact(float(np.nextafter(t, 2.0)), True))]
    ev = DatasetEvaluator(fixed, records, 2.0)
    assert ev._first.tolist() == [0, 1, 2]
    assert ev._rec.size == sum(DatasetEvaluator(fixed, [rec], 2.0)._rec.size for rec in records)
    got = ev.per_subject(())
    assert got.tobytes() == np.array([loglik_atom(model, rec, 2.0) for rec in records]).tobytes()


@pytest.mark.parametrize("case", [
    lambda tmp_path: _workload_case("dementia-visits", 100, tmp_path, 4001, 1),
    _refined_case,
], ids=["dementia_cohort", "refined"])
def test_a_doubled_cohort_builds_the_plan_of_the_single(case, tmp_path):
    # every record written twice adds no node, before refinement and after,
    # and each subject gets its record's value
    fam, records, C, theta = case(tmp_path)
    single = DatasetEvaluator(fam, records, C)
    double = DatasetEvaluator(fam, list(records) * 2, C)
    assert double._rec.size == single._rec.size
    per = single.per_subject(theta)
    assert double.per_subject(theta).tobytes() == np.tile(per, 2).tobytes()
    assert double._rec.size == single._rec.size
    assert double._cuts.tobytes() == single._cuts.tobytes()


@pytest.mark.parametrize("workload", ["illness-death-panel", "weibull-hybrid"])
def test_a_doubled_cohort_doubles_the_information(workload, tmp_path):
    # D+D, every record of D written twice: its scores repeat D's, bit for
    # bit, and its information is twice D's, its plan nodes weighed by their
    # multiplicity; the fit finds D's estimate, with standard errors over
    # sqrt(2)
    w = workloads.WORKLOADS[workload]
    fam, records, C, theta = _workload_case(workload, w.n_fit, tmp_path, 4001, 2)
    single = DatasetEvaluator(fam, records, C)
    double = DatasetEvaluator(fam, list(records) * 2, C)
    for th in (theta, theta * 1.1):
        _, score, info = single.information(th)
        _, score2, info2 = double.information(th)
        assert score2.tobytes() == np.concatenate([score, score]).tobytes()
        assert np.max(np.abs(info2 - 2 * info)) <= 1e-12 * np.max(np.abs(info))
    res = fit_mle(fam, records, C, theta)
    res2 = fit_mle(fam, list(records) * 2, C, theta)
    assert res.converged and res2.converged
    np.testing.assert_allclose(list(res2.theta.values()), list(res.theta.values()), rtol=1e-9)
    np.testing.assert_allclose(list(res2.std_errors.values()),
                               np.array(list(res.std_errors.values())) / math.sqrt(2), rtol=1e-9)


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
        ref = [nested_loglik(fam.build(theta), rec, 3.0) for rec in records]
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
    # the embedded error check decides refinement, so its options must mean
    # something; loglik_atom checks them too (a nan abs_tol once gave it a
    # wrong value, max_evals=0 a ToleranceError)
    fam = exponential_family()
    records = [PseudoAtomRecord((Interval(0.0, 1.0),))]
    with pytest.raises(InvalidInputError, match=name):
        loglik_atom(fam.build([0.5]), records[0], 2.0, **{name: value})
    with pytest.raises(InvalidInputError, match=name):
        conditional_loglik(fam.build([0.5]), records[0], 2.0, 0.5, **{name: value})
    with pytest.raises(InvalidInputError, match=name):
        DatasetEvaluator(fam, records, 2.0, **{name: value})
    with pytest.raises(InvalidInputError, match=name):
        per_subject_loglik(fam.build([0.5]), records, 2.0, **{name: value})
    with pytest.raises(InvalidInputError, match=name):
        per_subject_loglik(fam.build([0.5]), [], 2.0, **{name: value})
    if name != "max_evals":
        with pytest.raises(InvalidInputError, match=name):
            fit_mle(fam, records, 2.0, [0.5], **{name: value})
