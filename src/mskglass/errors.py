"""Exception types shared across the package."""


class MskGlassError(Exception):
    """Base class for every error raised by this package."""


class BadZeta(MskGlassError, ValueError):
    """A cluster weight exponent is outside its admissible interval."""


class BadDimension(MskGlassError, ValueError):
    """Array shapes do not match the model's species count."""


class NonmonotoneOverlap(MskGlassError, ValueError):
    """An overlap ladder decreases where it must be nondecreasing."""


class NotConverged(MskGlassError):
    """An iterative solver exhausted its budget without converging."""

    def __init__(self, message, last_iterate=None, residual=None, iterations=None):
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)


class InternalInconsistency(MskGlassError):
    """Two computations that must agree disagreed; a bug signal, not user error."""


class Unsupported(MskGlassError, ValueError):
    """The requested operation is outside the supported model class."""


class BadPoint(MskGlassError, ValueError):
    """An overlap point violates the admissibility constraints of an operation."""


class CertificateNotFound(MskGlassError):
    """The symmetry-breaking scan found no point below the reference value."""

    def __init__(self, message, best_gap=None, near_line=False):
        self.best_gap = best_gap
        self.near_line = near_line
        super().__init__(message)
