"""Exact observed-data likelihoods for irreversible multi-state models
under coarse observation: continuous windows, scheduled visits, interval
censoring, right censoring, and schedules cut short by death.

A model is a vector of one-jump counting components whose intensities may
depend on which other components have jumped and when. Coarse records mix
exactly timed events, interval-censored events, and survival bounds; their
likelihood is a sum of iterated integrals of the path density over one
rectangle per corner of the unobserved-event hypercube. Everything is
cross-checked against Kolmogorov transition matrices and against path
simulation.

`import coarselik` loads this file alone, not even numpy. Each public name
(`coarselik.fit_mle`, `from coarselik import Dataset`) and each submodule
(`coarselik.io`) is imported on first access (PEP 562), with the modules it
imports, so a program loads only the modules it uses: reading a model
config, say, loads errors, baselines, models, observation and io, and no
quadrature or fitting code. `from coarselik import *` loads them all.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "errors": ("CoarselikError", "DomainError", "HazardInversionError",
               "InconsistentObservationError", "InvalidInputError", "InvalidRecordError",
               "InvalidStartError", "StiffnessError", "ToleranceError",
               "UnsupportedModelError"),
    "baselines": ("Constant", "PiecewiseConstant", "Weibull"),
    "models": ("IntensityModel", "JumpHistory", "ModifierTerm", "MultiplicativeComponent",
               "ParametricFamily", "PatternTableComponent", "cumulative_intensity",
               "intensity_eval"),
    "markov": ("MarkovSpec", "encode_state", "markov_to_ojc"),
    "observation": ("ComponentSchedule", "Exact", "Interval", "ObservationScheme",
                    "PseudoAtomRecord", "StatusCodes", "SurvivedBeyond",
                    "classify_observation", "coarsen", "preprocess_death_censoring"),
    "likelihood": ("conditional_loglik", "f_theta", "loglik_atom", "loglik_continuous"),
    "quadrature": ("Dim", "integrate_1d", "integrate_nested"),
    "oracle": ("TransitionMatrix", "illness_death_mixed_loglik", "loglik_continuous_markov",
               "loglik_discrete_markov", "transition_matrix"),
    "simulate": ("SimulatedPath", "coarsen_cohort", "mc_check", "record_from_codes",
                 "simulate_cohort", "simulate_path"),
    "inference": ("DatasetEvaluator", "FitResult", "dataset_loglik", "fit_mle",
                  "per_subject_loglik"),
    "io": ("Dataset", "ModelConfig", "load_model_config", "load_scheme_config",
           "read_dataset", "write_dataset", "write_dataset_and_truth", "write_truth"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "catalog", "cli", "validate")

__all__ = list(_HOME)


def __getattr__(name):
    """A public name or a submodule, imported on first access and kept."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
