"""Exception types shared across the package, and ``check``, its one test
of a numeric argument."""

import math


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


def check(name: str, value, low: float = 0.0, inclusive: bool = False) -> float:
    """``value`` as a float, refused unless it is finite and above ``low`` (or
    equal to it, with ``inclusive``), naming it; a bare sign test such as
    ``x <= 0`` lets NaN through.  ``low=-math.inf`` asks for finiteness only."""
    value = float(value)
    if not math.isfinite(value) or value < low or (value == low and not inclusive):
        raise InvalidParameterError(
            f"{name} must be finite and {'>=' if inclusive else '>'} {low:g}, got {value}")
    return value
