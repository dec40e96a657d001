"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input violates a documented precondition (bad rotation matrix,
    misshapen or non-finite array, degree triple outside the triangle
    range, undefined metric, ...)."""


class AccuracyError(RuntimeError):
    """A numeric routine estimates its own error above the requested
    tolerance (e.g. quadrature resolution too coarse)."""


class SchemaError(ValueError):
    """A config, record metadata (both checked by `schema`) or record blob
    breaks its declaration. The message names the offending field or file."""


class NonFiniteError(RuntimeError):
    """A forward or backward intermediate became NaN/Inf. The message names
    the operation that produced it."""
