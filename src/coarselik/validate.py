"""Self-diagnostic suites behind the command line's `validate` subcommand.

Three independent routes to the same numbers:

- closed-form record likelihoods assembled from Kolmogorov transition
  matrices (Markov models only);
- Monte Carlo frequencies of coarse records from the path simulator,
  including duration effects the state-space route cannot express;
- the literal iterated-integral transcription of the four dementia record
  shapes against the generic corner expansion.

Every check returns its worst observed discrepancy next to the bound it
must stay under, so a failure is a number, not a shrug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Constant, Weibull
from .catalog import (
    DementiaParams,
    dementia_model,
    dementia_reference_loglik,
    dementia_visit_scheme,
    illness_death,
    panel_death_scheme,
)
from .likelihood import conditional_loglik, loglik_atom
from .observation import Exact, Interval, PseudoAtomRecord, SurvivedBeyond
from .oracle import illness_death_mixed_loglik
from .simulate import mc_check


@dataclass(frozen=True)
class CheckResult:
    """One pass/fail line: worst observed discrepancy against its bound."""

    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{verdict}  {self.name}: observed {self.observed:.3e} <= {self.bound:.1e}{extra}"


# the suites' fixed settings: trials, seeds and the bounds their worst
# discrepancies must stay under
_MARKOV_TRIALS, _MARKOV_SEED, _MARKOV_TOL = 25, 20260825, 1e-6
_MC_Z_BOUND = 4.0
_DEMENTIA_SEED, _DEMENTIA_TOL = 7, 1e-6


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def markov_oracle_suite() -> list[CheckResult]:
    """Engine vs transition-matrix likelihoods on illness-death records."""
    rng = np.random.default_rng(_MARKOV_SEED)
    shapes = ("never ill, died", "never ill, censored",
              "interval ill, died", "conditioned, interval ill, died")
    worst = {(k, s): 0.0 for k in ("constant", "weibull") for s in shapes}
    C, visits, T, v0 = 2.0, [0.0, 0.4, 0.9, 1.4], 1.7, 0.5
    for trial in range(_MARKOV_TRIALS):
        if trial % 2 == 0:
            kind = "constant"
            rates = [Constant(rng.uniform(0.1, 1.2)) for _ in range(3)]
        else:
            kind = "weibull"
            rates = [Weibull(rng.uniform(0.2, 1.0), rng.uniform(0.6, 2.2))
                     for _ in range(3)]
        spec, model = illness_death(*rates)

        pairs = [
            (shapes[0],
             loglik_atom(model, PseudoAtomRecord((SurvivedBeyond(visits[-1]), Exact(T, True))), C),
             illness_death_mixed_loglik(spec, visits, None, T, True)),
            (shapes[1],
             loglik_atom(model, PseudoAtomRecord((SurvivedBeyond(visits[-1]), Exact(C, False))), C),
             illness_death_mixed_loglik(spec, visits, None, C, False)),
            (shapes[2],
             loglik_atom(model, PseudoAtomRecord((Interval(visits[1], visits[2]), Exact(T, True))), C),
             illness_death_mixed_loglik(spec, visits, 2, T, True)),
            (shapes[3],
             conditional_loglik(model, PseudoAtomRecord((Interval(v0, visits[2]), Exact(T, True))), C, v0),
             illness_death_mixed_loglik(spec, [v0, visits[2]], 1, T, True)),
        ]
        for name, eng, orc in pairs:
            worst[(kind, name)] = max(worst[(kind, name)], _rel(eng, orc))
    return [
        CheckResult(f"markov oracle / {kind} / {name}", obs <= _MARKOV_TOL, obs, _MARKOV_TOL)
        for (kind, name), obs in worst.items()
    ]


def _mc_cells():
    """(label, model, scheme, atom) cells for the simulation cross-check."""
    cells = []

    _, ill = illness_death(0.35, 0.25, 0.8)
    sch = panel_death_scheme([0.5, 1.0, 1.5], 2.0)
    died = Exact(1.2, True)
    cens = Exact(2.0, False)
    for label, atom in [
        ("illness-death / survived, died",
         PseudoAtomRecord((SurvivedBeyond(1.0), died))),
        ("illness-death / early interval, died",
         PseudoAtomRecord((Interval(0.0, 0.5), died))),
        ("illness-death / interval, died",
         PseudoAtomRecord((Interval(0.5, 1.0), died))),
        ("illness-death / survived, censored",
         PseudoAtomRecord((SurvivedBeyond(1.5), cens))),
        ("illness-death / late interval, censored",
         PseudoAtomRecord((Interval(1.0, 1.5), cens))),
    ]:
        cells.append((label, ill, sch, atom))

    params = DementiaParams(0.3, 0.35, 0.25,
                            eta_inst_dem=0.4, eta_dem_inst=0.5,
                            eta_dem_death=0.6, eta_inst_death=0.3,
                            eta_both_death=-0.2,
                            gamma_dem_death=0.15, gamma_inst_death=-0.1)
    dem = dementia_model(params)
    dsch = dementia_visit_scheme([0.5, 1.0, 1.5], 2.0)
    ddied = Exact(1.2, True)
    for label, atom in [
        ("dementia / none seen, died",
         PseudoAtomRecord((SurvivedBeyond(1.0), SurvivedBeyond(1.2), ddied))),
        ("dementia / dem interval, died",
         PseudoAtomRecord((Interval(0.5, 1.0), SurvivedBeyond(1.2), ddied))),
        ("dementia / inst exact, died",
         PseudoAtomRecord((SurvivedBeyond(1.0), Exact(0.9, True), ddied))),
        ("dementia / dem interval + inst exact, died",
         PseudoAtomRecord((Interval(0.5, 1.0), Exact(0.9, True), ddied))),
        ("dementia / none seen, censored",
         PseudoAtomRecord((SurvivedBeyond(1.5), SurvivedBeyond(1.5), Exact(2.0, False)))),
        ("dementia / dem late interval + inst exact, censored",
         PseudoAtomRecord((Interval(1.0, 1.5), Exact(0.3, True), Exact(2.0, False)))),
    ]:
        cells.append((label, dem, dsch, atom))
    return cells


def monte_carlo_suite(n_paths: int = 100_000, seed: int = 31) -> list[CheckResult]:
    """Engine record probabilities vs simulated frequencies.

    Each cell is one coarse record; the engine value exponentiates to a
    probability density in the exactly observed coordinates, estimated by
    binned relative frequency. Discrepancy is in standard-error units.
    """
    out = []
    for k, (label, model, scheme, atom) in enumerate(_mc_cells()):
        engine = float(np.exp(loglik_atom(model, atom, scheme.horizon)))
        est, se, matches = mc_check(model, scheme, atom, n_paths, seed + k)
        z = abs(engine - est) / se
        out.append(CheckResult(
            f"monte carlo / {label}", z <= _MC_Z_BOUND, z, _MC_Z_BOUND,
            detail=f"engine {engine:.5e}, simulated {est:.5e}, {matches} matches",
        ))
    return out


def dementia_reference_suite(draws: int = 50) -> list[CheckResult]:
    """Generic corner expansion vs the iterated-integral transcription."""
    rng = np.random.default_rng(_DEMENTIA_SEED)
    died = Exact(1.3, True)
    cens = Exact(2.0, False)
    shapes = [
        ("both seen late", PseudoAtomRecord((Interval(0.5, 1.0), Exact(0.7, True), died))),
        ("dem only", PseudoAtomRecord((Interval(0.5, 1.0), SurvivedBeyond(1.3), died))),
        ("inst only", PseudoAtomRecord((SurvivedBeyond(1.0), Exact(0.7, True), died))),
        ("neither", PseudoAtomRecord((SurvivedBeyond(1.0), SurvivedBeyond(1.3), died))),
        ("neither, censored", PseudoAtomRecord((SurvivedBeyond(1.5), SurvivedBeyond(1.5), cens))),
    ]
    worst = {name: 0.0 for name, _ in shapes}
    for _ in range(draws):
        params = DementiaParams(
            rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6),
            eta_inst_dem=rng.normal(0, 0.5), eta_dem_inst=rng.normal(0, 0.5),
            eta_dem_death=rng.normal(0, 0.5), eta_inst_death=rng.normal(0, 0.5),
            eta_both_death=rng.normal(0, 0.3),
            gamma_inst_dem=rng.normal(0, 0.2), gamma_dem_inst=rng.normal(0, 0.2),
            gamma_dem_death=rng.normal(0, 0.2), gamma_inst_death=rng.normal(0, 0.2),
            beta_dem=rng.normal(0, 0.3), beta_inst=rng.normal(0, 0.3),
            beta_death=rng.normal(0, 0.3),
        )
        model = dementia_model(params, z=rng.uniform(-1, 1))
        for name, atom in shapes:
            eng = loglik_atom(model, atom, 2.0)
            ref = dementia_reference_loglik(model, atom, 2.0)
            worst[name] = max(worst[name], _rel(eng, ref))
    return [
        CheckResult(f"dementia reference / {name}", obs <= _DEMENTIA_TOL, obs, _DEMENTIA_TOL)
        for name, obs in worst.items()
    ]


def run_all(n_paths: int = 100_000, seed: int = 31) -> list[CheckResult]:
    results = markov_oracle_suite()
    results += monte_carlo_suite(n_paths=n_paths, seed=seed)
    results += dementia_reference_suite()
    return results
