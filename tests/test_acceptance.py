"""End-to-end acceptance checks.

Each test prints one summary line (run with -s to see them all). Together
they pin the engine against every independent route available: closed-form
transition-probability products, direct iterated-integral transcriptions,
the dementia reference formulas, Monte Carlo record probabilities, a total
probability identity, parameter recovery, censoring invariance, worked
constants, and byte-level determinism.
"""

import json
import math
import time

import numpy as np
import pytest

from coarselik.baselines import Constant, Weibull
from coarselik.catalog import (
    DementiaParams,
    dementia_model,
    dementia_visit_scheme,
    hybrid_scheme,
    illness_death,
    illness_death_family,
    panel_death_scheme,
)
from coarselik.cli import main
from coarselik.inference import fit_mle, per_subject_loglik
from coarselik.likelihood import conditional_loglik, f_theta, loglik_atom
from coarselik.models import IntensityModel, ModifierTerm, MultiplicativeComponent
from coarselik.observation import (
    ComponentSchedule,
    Exact,
    Interval,
    ObservationScheme,
    PseudoAtomRecord,
    SurvivedBeyond,
    coarsen,
)
from coarselik.oracle import illness_death_mixed_loglik, transition_matrix
from coarselik.quadrature import integrate_1d
from coarselik.simulate import (
    coarsen_cohort,
    mc_check,
    record_from_codes,
    simulate_cohort,
)
from coarselik.validate import dementia_reference_suite

INF = np.inf


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPT {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


# -------------------------------------------------------------------------
# 1. engine vs transition-probability products on mixed panel-plus-death
#    records, randomized constant and time-varying three-state models


def test_mixed_scheme_oracle_equivalence():
    rng = np.random.default_rng(20260401)
    t0 = time.time()
    worst = 0.0
    C = 2.0
    for trial in range(100):
        if trial % 2 == 0:
            rates = tuple(rng.uniform(0.08, 0.9, size=3))
        else:
            rates = tuple(Weibull(rng.uniform(0.15, 0.8), rng.uniform(0.5, 2.0))
                          for _ in range(3))
        spec, model = illness_death(*rates)
        v0 = 0.0 if trial % 4 < 2 else float(rng.uniform(0.0, 0.3))
        m = int(rng.integers(2, 6))
        visits = [v0] + sorted(rng.uniform(v0 + 0.05, 1.6, size=m).tolist())
        for case in ("never seen ill", "first seen ill"):
            delta = bool(rng.integers(0, 2))
            T = float(rng.uniform(visits[-1] + 0.05, C)) if delta else C
            if case == "never seen ill":
                atom = PseudoAtomRecord((SurvivedBeyond(visits[-1]), Exact(T, delta)))
                oracle = illness_death_mixed_loglik(spec, visits, None, T, delta)
            else:
                l = int(rng.integers(1, len(visits)))
                atom = PseudoAtomRecord((Interval(visits[l - 1], visits[l]),
                                         Exact(T, delta)))
                oracle = illness_death_mixed_loglik(spec, visits, l, T, delta)
            eng = conditional_loglik(model, atom, C, v0, rel_tol=1e-9)
            worst = max(worst, abs(math.exp(eng - oracle) - 1.0))
    took = time.time() - t0
    _report("mixed-scheme oracle equivalence",
            worst <= 1e-6 and took <= 60.0,
            f"100 models x 2 record shapes, worst rel err {worst:.2e}, {took:.1f}s")


# -------------------------------------------------------------------------
# 2. engine vs direct iterated-integral transcriptions for one and two
#    coarse components (everything else exactly observed)


def _random_baseline(rng):
    if rng.integers(0, 2) == 0:
        return Constant(float(rng.uniform(0.1, 0.9)))
    return Weibull(float(rng.uniform(0.15, 0.7)), float(rng.uniform(0.6, 1.9)))


def _random_model(rng, p):
    comps = []
    for j in range(p):
        gates = ()
        terms = []
        for k in range(p):
            if k == j:
                continue
            r = rng.integers(0, 3)
            if r == 0:
                gates = gates + (k,)
            elif r == 1:
                gamma = float(rng.normal(0, 0.2)) if rng.integers(0, 3) == 0 else 0.0
                terms.append(ModifierTerm((k,), float(rng.normal(0, 0.5)), gamma))
        comps.append(MultiplicativeComponent(j, _random_baseline(rng), gates=gates,
                                             terms=tuple(terms)))
    return IntensityModel(tuple(comps))


def _single_coarse_value(model, statuses, C):
    """One coarse component: plain integral of the joint density over its
    bracket, plus the no-jump corner when the bracket is a survival tail."""
    (j, st), = [(j, s) for j, s in enumerate(statuses) if not isinstance(s, Exact)]
    fixed = [s.time if isinstance(s, Exact) else None for s in statuses]
    bps = tuple(model.breakpoints) + tuple(
        s.time for s in statuses if isinstance(s, Exact) and s.observed_jump)

    def f(x):
        coords = list(fixed)
        coords[j] = x
        return f_theta(model, coords, C)

    if isinstance(st, Interval):
        return integrate_1d(f, st.lower, st.upper, breakpoints=bps, rel_tol=1e-10).value
    tail = (integrate_1d(f, st.time, C, breakpoints=bps, rel_tol=1e-10).value
            if st.time < C else 0.0)
    corner = list(fixed)
    corner[j] = C
    return tail + float(f_theta(model, corner, C))


def _double_coarse_value(model, statuses, C):
    """Two coarse components: iterated integrals over both brackets, with a
    single corner per survival tail and a double corner when both survive."""
    (j1, st1), (j2, st2) = [(j, s) for j, s in enumerate(statuses)
                            if not isinstance(s, Exact)]
    fixed = [s.time if isinstance(s, Exact) else None for s in statuses]
    bps = tuple(model.breakpoints) + tuple(
        s.time for s in statuses if isinstance(s, Exact) and s.observed_jump)

    def f(x1, x2):
        coords = list(fixed)
        coords[j1] = x1
        coords[j2] = x2
        return f_theta(model, coords, C)

    def bracket(st):
        return (st.lower, st.upper) if isinstance(st, Interval) else (st.time, C)

    a1, b1 = bracket(st1)
    a2, b2 = bracket(st2)

    def resolved_in_2(x1):
        val = (integrate_1d(lambda x2: f(x1, x2), a2, b2, breakpoints=bps + (x1,),
                            rel_tol=1e-10).value if b2 > a2 else 0.0)
        if isinstance(st2, SurvivedBeyond):
            val += float(f(x1, C))
        return val

    total = (integrate_1d(lambda xs: np.array([resolved_in_2(float(x)) for x in np.atleast_1d(xs)]),
                          a1, b1, breakpoints=bps, rel_tol=1e-9).value
             if b1 > a1 else 0.0)
    if isinstance(st1, SurvivedBeyond):
        def pinned_1(xs):
            return np.array([float(f(C, float(x))) for x in np.atleast_1d(xs)])
        total += (integrate_1d(pinned_1, a2, b2, breakpoints=bps,
                               rel_tol=1e-10).value if b2 > a2 else 0.0)
        if isinstance(st2, SurvivedBeyond):
            total += float(f(C, C))
    return total


def test_iterated_integral_transcriptions():
    rng = np.random.default_rng(8675309)
    t0 = time.time()
    C = 2.0

    def coarse_status():
        if rng.integers(0, 2) == 0:
            a, b = sorted(rng.uniform(0.05, 1.95, size=2).tolist())
            return Interval(a, b)
        return SurvivedBeyond(float(rng.uniform(0.0, 1.8)))

    def exact_status():
        if rng.integers(0, 2) == 0:
            return Exact(float(rng.uniform(0.1, 1.9)), True)
        return Exact(C, False)

    worst1 = worst2 = 0.0
    for trial in range(100):
        p = 2 if trial % 2 == 0 else 3
        model = _random_model(rng, p)

        st = [coarse_status()] + [exact_status() for _ in range(p - 1)]
        eng = math.exp(loglik_atom(model, PseudoAtomRecord(tuple(st)), C, rel_tol=1e-10))
        ref = _single_coarse_value(model, st, C)
        if ref > 0:
            worst1 = max(worst1, abs(eng / ref - 1.0))

        st = [coarse_status(), coarse_status()] + [exact_status() for _ in range(p - 2)]
        eng = math.exp(loglik_atom(model, PseudoAtomRecord(tuple(st)), C, rel_tol=1e-10))
        ref = _double_coarse_value(model, st, C)
        if ref > 0:
            worst2 = max(worst2, abs(eng / ref - 1.0))
    took = time.time() - t0
    _report("iterated-integral transcriptions",
            worst1 <= 1e-6 and worst2 <= 1e-6,
            f"100 single-coarse (worst {worst1:.2e}) + 100 double-coarse "
            f"(worst {worst2:.2e}) atoms, {took:.1f}s")


# -------------------------------------------------------------------------
# 3. engine vs the dementia iterated-integral reference on every record
#    shape of its visit scheme


def test_dementia_reference_transcription():
    t0 = time.time()
    results = dementia_reference_suite(draws=200)
    took = time.time() - t0
    worst = max(r.observed for r in results)
    _report("dementia reference transcription",
            all(r.passed for r in results),
            f"{len(results)} record shapes x 200 parameter draws, "
            f"worst rel err {worst:.2e}, {took:.1f}s")


# -------------------------------------------------------------------------
# 4. Monte Carlo record probabilities across 100 frozen cells


def _progressive_cells():
    cells = []
    param_sets = [
        (0.1, 0.2, 0.4), (0.35, 0.25, 0.8), (0.6, 0.15, 0.3),
        (0.2, 0.5, 1.0), (0.8, 0.3, 0.6),
        (Weibull(0.3, 1.4), Weibull(0.2, 0.8), Weibull(0.5, 1.2)),
        (Weibull(0.5, 0.7), Weibull(0.25, 1.5), Weibull(0.6, 1.0)),
    ]
    panel = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    hyb = hybrid_scheme(1.0, [1.5], 2.0)
    alive = Exact(2.0, False)
    for rates in param_sets:
        _, model = illness_death(*rates)
        for atom in (
            PseudoAtomRecord((Interval(0.0, 0.5), alive)),
            PseudoAtomRecord((Interval(0.5, 1.0), alive)),
            PseudoAtomRecord((SurvivedBeyond(1.5), alive)),
            PseudoAtomRecord((SurvivedBeyond(1.0), Exact(1.2, True))),
            PseudoAtomRecord((Interval(0.0, 0.5), Exact(1.7, True))),
        ):
            cells.append((model, panel, atom))
        for atom in (
            PseudoAtomRecord((Exact(0.6, True), alive)),
            PseudoAtomRecord((Interval(1.0, 1.5), alive)),
            PseudoAtomRecord((SurvivedBeyond(1.5), alive)),
            PseudoAtomRecord((Exact(0.4, True), Exact(1.1, True))),
            PseudoAtomRecord((SurvivedBeyond(0.45), Exact(0.45, True))),
        ):
            cells.append((model, hyb, atom))
    return cells


def _dementia_cells():
    cells = []
    base = dict(eta_inst_dem=0.4, eta_dem_inst=0.5, eta_dem_death=0.6,
                eta_inst_death=0.3, eta_both_death=-0.2)
    param_sets = [
        DementiaParams(0.3, 0.35, 0.25, **base),
        DementiaParams(0.5, 0.2, 0.4, **base),
        DementiaParams(0.25, 0.4, 0.3, eta_inst_dem=-0.3, eta_dem_inst=0.2,
                       eta_dem_death=0.8, eta_inst_death=0.5, eta_both_death=0.1),
        DementiaParams(0.4, 0.3, 0.5, gamma_dem_death=0.15,
                       gamma_inst_death=-0.1, **base),
        DementiaParams(0.45, 0.15, 0.35, gamma_dem_inst=0.2, **base),
    ]
    scheme = dementia_visit_scheme([0.5, 1.0, 1.5], 2.0)
    alive = Exact(2.0, False)
    for params in param_sets:
        model = dementia_model(params)
        for atom in (
            PseudoAtomRecord((Interval(0.5, 1.0), SurvivedBeyond(1.5), alive)),
            PseudoAtomRecord((Interval(0.0, 0.5), Exact(0.8, True), alive)),
            PseudoAtomRecord((SurvivedBeyond(1.5), SurvivedBeyond(1.5), alive)),
            PseudoAtomRecord((SurvivedBeyond(1.0), SurvivedBeyond(1.2), Exact(1.2, True))),
            PseudoAtomRecord((Interval(0.5, 1.0), SurvivedBeyond(1.3), Exact(1.3, True))),
            PseudoAtomRecord((Interval(0.0, 0.5), Exact(0.7, True), Exact(1.6, True))),
        ):
            cells.append((model, scheme, atom))
    return cells


@pytest.mark.slow
def test_monte_carlo_record_probabilities():
    cells = _progressive_cells() + _dementia_cells()
    assert len(cells) == 100
    t0 = time.time()
    failures = []
    for i, (model, scheme, atom) in enumerate(cells):
        exact = math.exp(loglik_atom(model, atom, scheme.horizon))
        est, se, matches = mc_check(model, scheme, atom, 1_000_000, 9000 + i)
        if abs(est - exact) > 3.0 * se:
            failures.append((i, exact, est, se, matches))
    took = time.time() - t0
    _report("monte carlo record probabilities",
            len(failures) <= 1 and took <= 600.0,
            f"{len(cells)} cells at 1e6 paths, {len(failures)} outside 3 SE, "
            f"{took:.0f}s{'; ' + repr(failures) if failures else ''}")


# -------------------------------------------------------------------------
# 5. the likelihood over the complete outcome partition of a two-visit
#    panel scheme integrates to one


def test_total_probability_partition():
    _, model = illness_death(0.12, 0.2, 0.35)
    v1, v2, C = 0.8, 1.6, 2.4
    scheme = panel_death_scheme([v1, v2], C)
    alive = Exact(C, False)
    prob_records = [
        PseudoAtomRecord((Interval(0.0, v1), alive)),
        PseudoAtomRecord((Interval(v1, v2), alive)),
        PseudoAtomRecord((SurvivedBeyond(v2), alive)),
    ]
    total = sum(math.exp(loglik_atom(model, r, C)) for r in prob_records)

    families = [
        (lambda t: SurvivedBeyond(0.0), 0.0, v1),
        (lambda t: Interval(0.0, v1), v1, v2),
        (lambda t: SurvivedBeyond(v1), v1, v2),
        (lambda t: Interval(0.0, v1), v2, C),
        (lambda t: Interval(v1, v2), v2, C),
        (lambda t: SurvivedBeyond(v2), v2, C),
    ]
    for st_fn, lo, hi in families:
        def g(ts):
            return np.array([math.exp(loglik_atom(
                model, PseudoAtomRecord((st_fn(float(t)), Exact(float(t), True))), C))
                for t in np.atleast_1d(ts)])
        total += integrate_1d(g, lo, hi, rel_tol=1e-8).value

    # the enumeration really is the full partition: every simulated record
    # must land in exactly one listed family
    times = simulate_cohort(model, C, 20_000, seed=99)
    kind, x1, x2, flag = coarsen_cohort(scheme, times)
    unmatched = 0
    for i in range(times.shape[0]):
        rec = record_from_codes(kind[i], x1[i], x2[i], flag[i])
        ill, death = rec.statuses
        if death == alive:
            ok = rec in prob_records
        else:
            ok = any(lo < death.time <= hi and st_fn(death.time) == ill
                     for st_fn, lo, hi in families)
        unmatched += not ok
    err = abs(total - 1.0)
    _report("total probability partition",
            err <= 1e-4 and unmatched == 0,
            f"sum over 9 record families = 1 {'+' if total >= 1 else '-'} {err:.1e}, "
            f"{unmatched} of 20000 simulated records unclassified")


# -------------------------------------------------------------------------
# 6. parameter recovery with reported standard errors


RECOVERY_TRUTH = (0.1, 0.2, 0.4)
RECOVERY_SCHEME = panel_death_scheme([float(v) for v in range(1, 11)], 10.0)


def _recovery_cohort(seed: int):
    model = illness_death(*RECOVERY_TRUTH)[1]
    times = simulate_cohort(model, 10.0, 2000, seed)
    kind, x1, x2, flag = coarsen_cohort(RECOVERY_SCHEME, times)
    records = [record_from_codes(kind[i], x1[i], x2[i], flag[i])
               for i in range(times.shape[0])]
    return times, records


def test_parameter_recovery_coverage():
    fam = illness_death_family("constant")
    t0 = time.time()
    hits = np.zeros(3, dtype=int)
    for rep in range(20):
        _, records = _recovery_cohort(1000 + rep)
        res = fit_mle(fam, records, 10.0, [0.2, 0.3, 0.3])
        assert res.converged, f"seed {1000 + rep} did not converge: {res.message}"
        for k, name in enumerate(fam.param_names):
            hits[k] += abs(res.theta[name] - RECOVERY_TRUTH[k]) <= 3.0 * res.std_errors[name]
    took = time.time() - t0
    _report("parameter recovery coverage",
            bool(np.all(hits >= 19)),
            f"20 cohorts of 2000, per-parameter 3-SE coverage "
            f"{'/'.join(str(h) for h in hits)} of 20, {took:.0f}s")


# -------------------------------------------------------------------------
# 7. records and log-likelihoods are identical whether post-death visits
#    are scheduled (and cancelled by the death) or never scheduled


def test_death_censoring_invariance():
    times, records_planned = _recovery_cohort(1000)
    model = illness_death(*RECOVERY_TRUTH)[1]
    scheme = RECOVERY_SCHEME
    records_reduced = []
    for i in range(times.shape[0]):
        t_death = times[i, 1]
        sched = scheme.schedules[0]
        if np.isfinite(t_death) and t_death <= scheme.horizon:
            sched = ComponentSchedule(visits=tuple(v for v in sched.visits
                                                   if v < t_death))
        per_subject = ObservationScheme((sched, scheme.schedules[1]),
                                        scheme.horizon, death_component=1)
        records_reduced.append(coarsen(per_subject, times[i]))
    same_records = records_reduced == records_planned
    ll_a = per_subject_loglik(model, records_planned, scheme.horizon)
    ll_b = per_subject_loglik(model, records_reduced, scheme.horizon)
    bit_equal = ll_a.tobytes() == ll_b.tobytes()
    _report("death-censoring invariance",
            same_records and bit_equal,
            f"2000 subjects, records identical: {same_records}, "
            f"log-likelihood bit-equal: {bit_equal}")


# -------------------------------------------------------------------------
# 8. worked constants


def test_worked_value_regression():
    vals = []

    _, m1 = illness_death(0.1, 0.2, 0.3)
    density = f_theta(m1, (0.5, 1.5), 2.0)
    vals.append(("joint density at (0.5, 1.5)", density, 0.1 * 0.3 * math.exp(-0.45)))

    _, m2 = illness_death(0.1, 0.2, 0.4)
    atom_val = math.exp(loglik_atom(
        m2, PseudoAtomRecord((Interval(0.0, 1.0), Exact(2.0, False))), 2.0))
    vals.append(("interval-plus-survivor record", atom_val,
                 math.exp(-0.8) * (math.exp(0.1) - 1.0)))

    spec, _ = illness_death(0.1, 0.2, 0.4)
    p01 = transition_matrix(spec, 0.0, 1.0)[0, 1]
    vals.append(("healthy-to-ill transition probability", p01,
                 math.exp(-0.4) * (math.exp(0.1) - 1.0)))

    worst = max(abs(v / ref - 1.0) for _, v, ref in vals)
    _report("worked value regression",
            worst <= 5e-7,
            "; ".join(f"{name} = {v:.7g}" for name, v, _ in vals)
            + f"; worst rel err {worst:.1e}")


# -------------------------------------------------------------------------
# 9. byte-identical outputs across runs and thread counts


def test_byte_identical_outputs(tmp_path):
    model_cfg = {
        "name": "acceptance", "components": ["illness", "death"],
        "intensities": [
            {"component": "illness",
             "baseline": {"family": "constant", "rate": "a01"},
             "gates": ["death"]},
            {"component": "death",
             "baseline": {"family": "constant", "rate": "a02"},
             "modifiers": [{"when": ["illness"], "eta": "eta12"}]},
        ],
        "theta": {"a01": 0.1, "a02": 0.2, "eta12": 0.6931471805599453},
    }
    scheme_cfg = {
        "horizon": 10.0, "death_component": "death",
        "schedules": [
            {"component": "illness", "visits": [float(v) for v in range(1, 11)]},
            {"component": "death", "windows": [[0.0, 10.0]]},
        ],
    }
    model = tmp_path / "model.json"
    scheme = tmp_path / "scheme.json"
    model.write_text(json.dumps(model_cfg))
    scheme.write_text(json.dumps(scheme_cfg))

    sim_bytes = []
    for run, threads in ((0, 1), (1, 1), (2, 4)):
        out = tmp_path / f"sim{run}.csv"
        assert main(["simulate", "--model", str(model), "--scheme", str(scheme),
                     "--n", "500", "--seed", "42", "--out", str(out),
                     "--threads", str(threads)]) == 0
        sim_bytes.append(out.read_bytes())

    ll_bytes = []
    for run, threads in ((0, 1), (1, 1), (2, 3)):
        out = tmp_path / f"ll{run}.csv"
        assert main(["loglik", "--model", str(model), "--scheme", str(scheme),
                     "--data", str(tmp_path / "sim0.csv"), "--out", str(out),
                     "--threads", str(threads)]) == 0
        ll_bytes.append(out.read_bytes())

    sim_ok = sim_bytes[0] == sim_bytes[1] == sim_bytes[2]
    ll_ok = ll_bytes[0] == ll_bytes[1] == ll_bytes[2]
    _report("byte-identical outputs",
            sim_ok and ll_ok,
            f"simulate identical across runs/threads: {sim_ok}, "
            f"loglik identical across runs/threads: {ll_ok}")
