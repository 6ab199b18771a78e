"""Exception types shared across the package."""


class HardySeriesError(Exception):
    """Base class for all package-specific failures."""


class InvalidSeriesError(HardySeriesError, ValueError):
    """Series data violates a structural requirement (exponents, coefficients)."""


class ZeroSeriesError(InvalidSeriesError):
    """Operation requires a series that is not identically zero."""


class InvalidParameterError(HardySeriesError, ValueError):
    """A scalar argument is outside the documented domain."""


class PrecisionError(HardySeriesError):
    """An error bound cannot be pushed below the requested target."""


class QuadratureError(PrecisionError):
    """Adaptive integration hit its subdivision limit before converging."""


class PoleError(HardySeriesError):
    """Evaluation requested at a pole of the function."""


class NearZeroAnchorError(HardySeriesError):
    """Anchor value |L(sigma+D)| too close to zero for a log-based bound."""
