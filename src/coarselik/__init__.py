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
"""

from .baselines import Constant, PiecewiseConstant, Weibull
from .errors import (
    CoarselikError,
    DomainError,
    HazardInversionError,
    InconsistentObservationError,
    InvalidInputError,
    InvalidStartError,
    StiffnessError,
    ToleranceError,
    UnsupportedModelError,
)
from .inference import (
    DatasetEvaluator,
    FitResult,
    ParametricFamily,
    dataset_loglik,
    fit_mle,
    per_subject_loglik,
)
from .io import (
    Dataset,
    ModelConfig,
    load_model_config,
    load_scheme_config,
    read_dataset,
    write_dataset,
    write_dataset_and_truth,
    write_truth,
)
from .likelihood import (
    conditional_loglik,
    f_theta,
    loglik_atom,
    loglik_continuous,
)
from .markov import MarkovSpec, encode_state, markov_to_ojc
from .models import (
    IntensityModel,
    JumpHistory,
    ModifierTerm,
    MultiplicativeComponent,
    PatternTableComponent,
    cumulative_intensity,
    intensity_eval,
)
from .observation import (
    ComponentSchedule,
    Exact,
    Interval,
    ObservationScheme,
    PseudoAtomRecord,
    StatusCodes,
    SurvivedBeyond,
    classify_observation,
    coarsen,
    preprocess_death_censoring,
)
from .oracle import (
    TransitionMatrix,
    illness_death_mixed_loglik,
    loglik_continuous_markov,
    loglik_discrete_markov,
    transition_matrix,
)
from .quadrature import Dim, integrate_1d, integrate_nested
from .simulate import (
    SimulatedPath,
    coarsen_cohort,
    mc_check,
    record_from_codes,
    simulate_cohort,
    simulate_path,
)

__version__ = "0.1.0"

__all__ = [
    "CoarselikError", "DomainError", "HazardInversionError",
    "InconsistentObservationError", "InvalidInputError", "InvalidStartError",
    "StiffnessError", "ToleranceError", "UnsupportedModelError",
    "Constant", "PiecewiseConstant", "Weibull",
    "IntensityModel", "JumpHistory", "ModifierTerm", "MultiplicativeComponent",
    "PatternTableComponent", "cumulative_intensity", "intensity_eval",
    "MarkovSpec", "encode_state", "markov_to_ojc",
    "ComponentSchedule", "Exact", "Interval", "ObservationScheme",
    "PseudoAtomRecord", "StatusCodes", "SurvivedBeyond", "classify_observation", "coarsen",
    "preprocess_death_censoring",
    "conditional_loglik", "f_theta", "loglik_atom", "loglik_continuous",
    "Dim", "integrate_1d", "integrate_nested",
    "TransitionMatrix", "illness_death_mixed_loglik", "loglik_continuous_markov",
    "loglik_discrete_markov", "transition_matrix",
    "SimulatedPath", "coarsen_cohort", "mc_check", "record_from_codes",
    "simulate_cohort", "simulate_path",
    "DatasetEvaluator", "FitResult", "ParametricFamily", "dataset_loglik",
    "fit_mle", "per_subject_loglik",
    "Dataset", "ModelConfig", "load_model_config", "load_scheme_config",
    "read_dataset", "write_dataset", "write_dataset_and_truth", "write_truth",
]
