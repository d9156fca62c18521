"""Exception types shared across the package."""


class HalflineError(Exception):
    """Base class for all errors raised by this package."""


class GridError(HalflineError, ValueError):
    """Malformed or incompatible sample grid."""


class DataError(HalflineError, ValueError):
    """Input data violate a structural precondition."""


class SolverError(HalflineError, RuntimeError):
    """A linear or nonlinear solve failed or did not converge."""


class PhaseUnwrapError(HalflineError, RuntimeError):
    """Phase continuation refused: consecutive samples jump by >= pi."""


class IndexMismatchError(HalflineError, RuntimeError):
    """Winding index of S inconsistent with the supplied bound states."""


class StageError(HalflineError, RuntimeError):
    """Failure inside a named stage of a composite pipeline."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
