"""Ready-made models, observation schemes, and fitting families.

Two standing examples:

- the progressive illness-death model (healthy -> ill -> dead, plus direct
  death), kept in both state form and component form;
- a three-component dementia/institutionalization/death model where each
  event multiplies the others' intensities by exp(eta) factors, with an
  extra interaction factor on death when both prior events occurred,
  optional duration effects (gamma * time-since-event), and a scalar
  covariate acting log-linearly on each component.

The dementia reference log-likelihoods transcribe the four closed record
shapes (dementia interval/none-by-last-visit crossed with institution
exact/none-by-last-visit, death always timed) as literal iterated integrals
with upper limits at the end of follow-up. They share nothing with the
engine's corner expansion beyond the intensity evaluations themselves,
which makes them a meaningful cross-check of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Constant
from .errors import InvalidInputError
from .inference import ParametricFamily
from .markov import MarkovSpec, markov_to_ojc
from .models import IntensityModel, ModifierTerm, MultiplicativeComponent
from .observation import (
    ComponentSchedule,
    Exact,
    Interval,
    ObservationScheme,
    PseudoAtomRecord,
    SurvivedBeyond,
)
from .quadrature import integrate_1d


def _as_baseline(x):
    return x if hasattr(x, "cum0") else Constant(float(x))


def illness_death(a01, a02, a12) -> tuple[MarkovSpec, IntensityModel]:
    """Progressive three-state model; rates may be floats or baselines.

    Component 0 is illness, component 1 is death. Illness is switched off
    by death; the death intensity is a02 while healthy and a12 after
    illness.
    """
    spec = MarkovSpec(
        p=2,
        transitions={(0, 1): _as_baseline(a01), (0, 2): _as_baseline(a02),
                     (1, 2): _as_baseline(a12)},
        compact=True,
    )
    return spec, markov_to_ojc(spec)


def panel_death_scheme(visits, C: float) -> ObservationScheme:
    """Illness read at visits only; death timed exactly up to C."""
    return ObservationScheme(
        (ComponentSchedule(visits=tuple(float(v) for v in visits)),
         ComponentSchedule(windows=((0.0, float(C)),))),
        float(C),
        death_component=1,
    )


def hybrid_scheme(window_end: float, visits, C: float) -> ObservationScheme:
    """Illness watched continuously on [0, window_end), then at visits.

    Models a stay under direct observation followed by scheduled check-ups;
    death remains timed exactly throughout.
    """
    late = tuple(float(v) for v in visits)
    if any(v < window_end for v in late):
        raise InvalidInputError("visits must not precede the end of the window")
    return ObservationScheme(
        (ComponentSchedule(windows=((0.0, float(window_end)),), visits=late),
         ComponentSchedule(windows=((0.0, float(C)),))),
        float(C),
        death_component=1,
    )


@dataclass(frozen=True)
class DementiaParams:
    """Rates and event-interplay coefficients of the dementia model.

    Component order: 0 dementia, 1 institutionalization, 2 death. eta_ab
    means "effect of event a having occurred on the intensity of event b";
    eta_dd is the extra death log-multiplier when both prior events
    occurred. gamma_ab scale the time since event a. beta_* multiply a
    scalar covariate.
    """

    a01: object
    a02: object
    a04: object
    eta_inst_dem: float = 0.0   # institution -> dementia intensity
    eta_dem_inst: float = 0.0   # dementia -> institution intensity
    eta_dem_death: float = 0.0
    eta_inst_death: float = 0.0
    eta_both_death: float = 0.0
    gamma_inst_dem: float = 0.0
    gamma_dem_inst: float = 0.0
    gamma_dem_death: float = 0.0
    gamma_inst_death: float = 0.0
    beta_dem: float = 0.0
    beta_inst: float = 0.0
    beta_death: float = 0.0

    def markov(self) -> bool:
        return (self.gamma_inst_dem == self.gamma_dem_inst ==
                self.gamma_dem_death == self.gamma_inst_death == 0.0)


def dementia_model(params: DementiaParams, z: float = 0.0) -> IntensityModel:
    """Component-form dementia model for one covariate value."""
    dem = MultiplicativeComponent(
        0, _as_baseline(params.a01), gates=(2,),
        terms=(ModifierTerm((1,), params.eta_inst_dem, params.gamma_inst_dem),),
        log_offset=params.beta_dem * z,
    )
    inst = MultiplicativeComponent(
        1, _as_baseline(params.a02), gates=(2,),
        terms=(ModifierTerm((0,), params.eta_dem_inst, params.gamma_dem_inst),),
        log_offset=params.beta_inst * z,
    )
    death = MultiplicativeComponent(
        2, _as_baseline(params.a04), gates=(),
        terms=(
            ModifierTerm((0,), params.eta_dem_death, params.gamma_dem_death),
            ModifierTerm((1,), params.eta_inst_death, params.gamma_inst_death),
            ModifierTerm((0, 1), params.eta_both_death),
        ),
        log_offset=params.beta_death * z,
    )
    return IntensityModel((dem, inst, death))


def dementia_markov_spec(params: DementiaParams, z: float = 0.0) -> MarkovSpec:
    """Five-state form (none, dem, inst, dem+inst, dead) of the same model.

    Only exists while intensities depend on the past through indicators
    alone; duration effects leave the state space.
    """
    if not params.markov():
        raise InvalidInputError("duration effects have no finite state-space form")
    b01 = _as_baseline(params.a01).scaled(np.exp(params.beta_dem * z))
    b02 = _as_baseline(params.a02).scaled(np.exp(params.beta_inst * z))
    b04 = _as_baseline(params.a04).scaled(np.exp(params.beta_death * z))
    e = np.exp
    transitions = {
        (0, 1): b01,
        (0, 2): b02,
        (0, 4): b04,
        (1, 3): b02.scaled(e(params.eta_dem_inst)),
        (1, 4): b04.scaled(e(params.eta_dem_death)),
        (2, 3): b01.scaled(e(params.eta_inst_dem)),
        (2, 4): b04.scaled(e(params.eta_inst_death)),
        (3, 4): b04.scaled(e(params.eta_dem_death + params.eta_inst_death
                             + params.eta_both_death)),
    }
    return MarkovSpec(p=3, transitions=transitions, compact=True)


def dementia_visit_scheme(visits, C: float) -> ObservationScheme:
    """Dementia at visits; institution records searched back once known
    (exact time when it happened before the last visit); death timed.

    The retrospective institution record is taken at face value: whether it
    is consulted depends only on observed quantities, so the induced
    coarsening does not distort the likelihood.
    """
    visits = tuple(float(v) for v in visits)
    if not visits:
        raise InvalidInputError("need at least one visit")
    return ObservationScheme(
        (ComponentSchedule(visits=visits),
         ComponentSchedule(windows=((0.0, visits[-1]),)),
         ComponentSchedule(windows=((0.0, float(C)),))),
        float(C),
        death_component=2,
    )


def _lam(model, j, t, T):
    return model.rate(j, t, T)


def _surv_exp(model, upto, T):
    total = 0.0
    for j in range(model.p):
        total = total + model.cum(j, 0.0, upto, T)
    return np.exp(-total)


def _death_factor(model, t3, d3, T):
    return _lam(model, 2, t3, T) if d3 else 1.0


def dementia_reference_loglik(model: IntensityModel, atom: PseudoAtomRecord,
                              C: float) -> float:
    """Literal iterated-integral likelihood of the four dementia record
    shapes; an independent check of the engine's corner expansion.

    The death component must be Exact; dementia and institution must each
    be Interval or SurvivedBeyond. All integrals stop at the death time
    (past which every intensity here vanishes), matching the printed
    closed forms rather than the engine's horizon-bound rectangles. Each
    one-dimensional integral runs at a relative tolerance of 1e-9.
    """
    rel_tol = 1e-9
    if model.p != 3 or atom.p != 3:
        raise InvalidInputError("expects the three-component dementia layout")
    st1, st2, st3 = atom.statuses
    if not isinstance(st3, Exact):
        raise InvalidInputError("the death component must be Exact")
    t3, d3 = st3.time, st3.observed_jump
    T3 = t3 if d3 else np.inf
    bps = tuple(model.breakpoints) + (t3,)

    def T_of(s1, s2):
        return [s1, s2, T3]

    def corner_both():
        T = T_of(np.inf, np.inf)
        return _death_factor(model, t3, d3, T) * _surv_exp(model, t3, T)

    def inner_over_2(s1, lo2):
        """integral over s2 in (lo2, t3] plus the no-institution corner."""
        def f2(s2):
            T = T_of(s1, s2)
            return (_lam(model, 1, s2, T) * np.ones_like(s2)
                    * (_lam(model, 0, s1, T) if np.isfinite(s1) else 1.0)
                    * _death_factor(model, t3, d3, T)
                    * _surv_exp(model, t3, T))
        val = integrate_1d(f2, lo2, t3, breakpoints=bps + ((s1,) if np.isfinite(s1) else ()),
                           rel_tol=rel_tol).value if lo2 < t3 else 0.0
        T = T_of(s1, np.inf)
        corner = ((_lam(model, 0, s1, T) if np.isfinite(s1) else 1.0)
                  * _death_factor(model, t3, d3, T) * _surv_exp(model, t3, T))
        return val, corner

    def over_1(lo1, hi1, s2_status):
        """integral over s1 of the s2-resolved integrand."""
        if hi1 <= lo1:
            return 0.0

        if isinstance(s2_status, Exact):
            t2 = s2_status.time if s2_status.observed_jump else np.inf

            def f1(s1):
                T = T_of(s1, t2)
                out = _lam(model, 0, s1, T) * _death_factor(model, t3, d3, T)
                if s2_status.observed_jump:
                    out = out * _lam(model, 1, t2, T)
                return out * _surv_exp(model, t3, T)
            extra = (s2_status.time,) if s2_status.observed_jump else ()
            return integrate_1d(f1, lo1, hi1, breakpoints=bps + extra,
                                rel_tol=rel_tol).value

        if not isinstance(s2_status, SurvivedBeyond):
            raise InvalidInputError(
                "institution component must be Exact or SurvivedBeyond here"
            )
        lo2 = s2_status.time

        def f1(s1):
            out = np.empty_like(s1)
            for i, x in enumerate(s1):
                val, corner = inner_over_2(float(x), lo2)
                out[i] = val + corner
            return out
        return integrate_1d(f1, lo1, hi1, breakpoints=bps + (lo2,), rel_tol=rel_tol).value

    if isinstance(st1, Interval):
        total = over_1(st1.lower, min(st1.upper, t3), st2)
    elif isinstance(st1, SurvivedBeyond):
        total = over_1(st1.time, t3, st2)
        if isinstance(st2, Exact):
            t2 = st2.time if st2.observed_jump else np.inf
            T = T_of(np.inf, t2)
            corner = _death_factor(model, t3, d3, T) * _surv_exp(model, t3, T)
            if st2.observed_jump:
                corner = corner * _lam(model, 1, t2, T)
            total += corner
        else:
            v2 = st2.time
            tail, _ = inner_over_2(np.inf, v2)
            total += tail + corner_both()
    else:
        raise InvalidInputError("dementia component must be Interval or SurvivedBeyond")

    with np.errstate(divide="ignore"):
        return float(np.log(max(total, 0.0)))


def illness_death_family(baseline: str = "constant", grid=None) -> ParametricFamily:
    """Fitting family for the progressive three-state model."""
    if baseline == "constant":
        return ParametricFamily(
            ("a01", "a02", "a12"),
            ("log", "log", "log"),
            lambda th: illness_death(th[0], th[1], th[2])[1],
        )
    if baseline == "weibull":
        from .baselines import Weibull

        def build(th):
            return illness_death(Weibull(th[0], th[1]), Weibull(th[2], th[3]),
                                 Weibull(th[4], th[5]))[1]
        return ParametricFamily(
            ("a01", "b01", "a02", "b02", "a12", "b12"),
            ("log",) * 6,
            build,
        )
    if baseline == "piecewise":
        from .baselines import PiecewiseConstant

        cuts = tuple(float(g) for g in (grid or ()))
        if not cuts:
            raise InvalidInputError("piecewise baseline needs a grid")
        m = len(cuts) + 1

        def build(th):
            return illness_death(
                PiecewiseConstant(cuts, th[0:m]),
                PiecewiseConstant(cuts, th[m:2 * m]),
                PiecewiseConstant(cuts, th[2 * m:3 * m]),
            )[1]
        names = tuple(f"{nm}_{i}" for nm in ("a01", "a02", "a12") for i in range(m))
        return ParametricFamily(names, ("log",) * (3 * m), build, fixed_breakpoints=cuts)
    raise InvalidInputError(f"unknown baseline family {baseline!r}")


def dementia_family(z: float = 0.0) -> ParametricFamily:
    """Fitting family for the constant-baseline dementia model."""
    names = ("a01", "a02", "a04", "eta_inst_dem", "eta_dem_inst",
             "eta_dem_death", "eta_inst_death", "eta_both_death")
    transforms = ("log", "log", "log") + ("identity",) * 5

    def build(th):
        return dementia_model(DementiaParams(
            th[0], th[1], th[2],
            eta_inst_dem=th[3], eta_dem_inst=th[4], eta_dem_death=th[5],
            eta_inst_death=th[6], eta_both_death=th[7],
        ), z)
    return ParametricFamily(names, transforms, build)
