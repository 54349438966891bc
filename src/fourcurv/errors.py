"""Exception hierarchy for the package.

Every error raised deliberately by this library derives from CurvatureError,
so callers (and the CLI) can separate our failures from genuine bugs.
"""


class CurvatureError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitInput(CurvatureError):
    """A form required to have unit norm does not."""


class WrongDuality(CurvatureError):
    """A form is not (anti-)self-dual where one was required."""


class InvalidSymmetry(CurvatureError):
    """A curvature tensor violates one of its index symmetries."""


class PinchingNotVerified(CurvatureError):
    """A delta-pinching precondition could not be confirmed by the scan."""


class InconsistentInputs(CurvatureError):
    """Decomposition and scan report do not come from the same tensor."""


class NonPositiveInput(CurvatureError):
    """A strictly positive scalar argument was zero or negative."""


class NonPositiveScalarCurvature(CurvatureError):
    """The hypothesis s > 0 fails for the supplied tensor."""


class UnknownModel(CurvatureError):
    """No built-in model space with the requested name."""


class NonPositiveParam(CurvatureError):
    """A model scale parameter must be positive and finite, and so must the
    volume, lambda1 and curvature it gives the model."""
