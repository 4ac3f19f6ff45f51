"""Exception types shared across the package.

Everything raised on purpose derives from CoarselikError so callers can
catch package failures without trapping programming errors.
"""


class CoarselikError(Exception):
    """Base class for all package-level errors."""


class InvalidInputError(CoarselikError):
    """Malformed or out-of-contract input (bad shapes, bounds, counts)."""


class InvalidRecordError(InvalidInputError):
    """A record the likelihood refuses. Carries the record's index, the
    index of the component at fault (None for the record as a whole) and the
    fault without either, so a caller can name both its own way."""

    def __init__(self, record_index: int, detail: str, component: int | None = None):
        where = "" if component is None else f"component {component}: "
        super().__init__(f"record {record_index}: {where}{detail}")
        self.record_index = record_index
        self.component = component
        self.detail = detail


class UnsupportedModelError(CoarselikError):
    """A model/state layout the package deliberately does not handle."""


class InconsistentObservationError(CoarselikError):
    """Observed data that no sample path of the model could produce."""


class InvalidStartError(CoarselikError):
    """Optimizer starting point with minus-infinity log likelihood.

    Carries the index of the first offending subject so the caller can
    inspect the record.
    """

    def __init__(self, message: str, subject_index: int | None = None):
        super().__init__(message)
        self.subject_index = subject_index


class ToleranceError(CoarselikError):
    """Requested accuracy not reached within the evaluation budget.

    The best available estimate and its error bound ride along so that a
    caller who can live with less accuracy is not left empty-handed. A
    record's failure carries record_index and the bare message, `detail`.
    """

    def __init__(self, message: str, value: float, error_estimate: float,
                 record_index: int | None = None):
        super().__init__(message if record_index is None else f"record {record_index}: {message}")
        self.value, self.error_estimate = value, error_estimate
        self.record_index, self.detail = record_index, message


class DomainError(CoarselikError):
    """Integrand returned a non-finite value; reports where it happened."""

    def __init__(self, message: str, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class HazardInversionError(CoarselikError):
    """Simulator could not solve the cumulative-hazard equation."""


class StiffnessError(CoarselikError):
    """ODE transition-probability solve failed to converge."""
