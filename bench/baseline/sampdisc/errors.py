"""Exception types shared across the package."""


class DiscretizationError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(DiscretizationError):
    """An operation was invoked on inputs that violate its contract."""


class DomainError(PreconditionError):
    """A numeric parameter lies outside its admissible interval."""


class EigensolverError(DiscretizationError):
    """The dense Hermitian eigensolver failed to converge."""


class PartitionSizeError(DiscretizationError):
    """Exhaustive partition search was requested on too many vectors."""


class SearchFailureError(DiscretizationError):
    """No verified partition was found within the search budget."""


class RefinementError(DiscretizationError):
    """Sampling refinement hit its point cap before meeting the target."""

    def __init__(self, message, best_deviation=None):
        super().__init__(message)
        self.best_deviation = best_deviation


class DuplicationOverflowError(DiscretizationError):
    """Norm equalization would need more copies than the configured cap."""


class MappingMismatchError(DiscretizationError):
    """A certificate was replayed against a system it was not built from."""


class StageError(DiscretizationError):
    """Failure inside a multi-stage pipeline, tagged with the stage name."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ParseError(DiscretizationError):
    """Malformed system or certificate file."""

    def __init__(self, message, path=None, row=None):
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if row is not None:
            detail = f"{detail} (row {row})"
        super().__init__(detail)
        self.path = path
        self.row = row
