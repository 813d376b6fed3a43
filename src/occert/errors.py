"""Exception types raised by the certification library."""


class OccertError(ValueError):
    """Base class for all library errors."""


class CompatibilityError(OccertError):
    """An almost complex structure is not orthogonal for the given metric."""


class CurvatureError(OccertError):
    """A 4-tensor violates the algebraic curvature identities beyond
    tolerance."""


class MetricError(OccertError):
    """A metric evaluator returned a non-finite, non-symmetric or non-SPD
    matrix."""


class ConditioningError(OccertError):
    """A matrix is too ill-conditioned for the requested computation."""


class FDQualityError(OccertError):
    """Finite-difference output violates its consistency-order bound."""


class ConfigError(OccertError):
    """A run configuration or spec file is malformed."""


class SchemaError(OccertError):
    """A JSON document does not match its packaged schema; ``message``
    says how and ``absolute_path`` (keys and indices) says where."""

    def __init__(self, message: str, absolute_path):
        self.message = message
        self.absolute_path = tuple(absolute_path)
        super().__init__("%s (at /%s)" % (
            message, "/".join(str(p) for p in self.absolute_path)))


class InputError(OccertError):
    """Generic invalid argument (wrong length, negative tolerance, ...)."""
