"""Explicit constants and right-hand sides for the series inequalities.

``CATALOG`` is the catalog's one table: each id's side, space, coefficient
class, the kind of formula that evaluates it and its statement.  Every bound
is computed here and wrapped in a ``BoundReport``; ``bound_report`` alone
maps an id to the inputs it reads of a series and to its formula, and
``nonvanishing(series, xi, variant)`` alone picks the norm, C and rate each
nonvanishing variant (the ``variant`` of its entry) reads.

Lower bounds smaller than any representable float are always handled in
natural-log space: such a report carries the natural log of the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import series as se
from . import special as sp
from .errors import InvalidParameterError, NearZeroAnchorError, check

__all__ = [
    "BOUND_KINDS",
    "BoundReport",
    "CATALOG",
    "ab2_constants",
    "bound_report",
    "class_params",
    "classical_l1_tail",
    "consistency_fractions",
    "hurwitz_anchor_chain",
    "hurwitz_lower_bound",
    "l1_tail_from_l2",
    "lambda1_floor",
    "local_l2_bound",
    "log_minus_weighted_bound",
    "log_plus_weighted_bound",
    "nonvanishing",
    "nonvanishing_abscissa",
    "riemann_window_asymptotic",
    "short_interval_log_bounds",
    "supnorm_lp_lower_bound",
]


class Entry(NamedTuple):
    side: str  # "upper" | "lower", as its BoundReport
    log_space: bool  # its BoundReport carries the natural log of the bound
    coeffs: str  # "general", or "bounded": |a_n| <= 1
    kind: Optional[str]  # the formula that evaluates it; None: no command yet
    variant: Optional[str]  # that formula's name for it, where not the id
    statement: str


#: Kinds ``bound_report`` evaluates: ``local_l2_bound`` (window), ``short_interval_log_bounds``
#: (log), ``supnorm_lp_lower_bound`` (sup, lp) and ``hurwitz_lower_bound`` (zeta)
BOUND_KINDS = ("window", "log", "sup", "lp", "zeta")
#: The inputs of ``bound_report`` each kind reads besides the series; the
#: printed general log bounds also read ``xi``
_KIND_INPUTS = {"window": ("d",), "log": ("delta",), "sup": ("delta",), "lp": ("delta",),
                "zeta": ("delta", "alpha")}

# id side space class kind variant statement, "-" for None; W is the window
# [T, T + delta], and log ||L|| the log of a norm
_TABLE = """
T4  upper lin general window -  int_0^D |L(sigma_1+it)|^2 dt <= (D + 3 pi C) ||L||_2^2
T6  upper lin general - -  ||L_x - a_0||_1 <= sqrt(1 + C/(2x)) ||L - a_0||_2 e^(-lambda_1 x)
T7  upper lin general - -  ||L_x - a_0||_1 <= sqrt(1 + C/(2x)) ||L - a_0||_2 e^(-K x)
T9  upper lin general - -  ||L_x - a_0||_1 <= 2^-x sqrt(1 + 1/(x sqrt(8) log 2)) ||L - a_0||_2, classical
T10 upper lin general - -  (D/pi) int log+|L| / (D^2+t^2) <= kappa_half + log(1 + 3 pi C/D)/2 + log ||L||_2
L8  upper lin general - -  (D/pi) int log+|L| / (D^2+t^2) <= log+ ||L||_1
T11 upper lin general - -  (D/pi) int log-|L| / (D^2+t^2) <= the T10 bound - log|L(sigma+D)|
T12 upper lin general - -  (D/pi) int log-|L| / (D^2+t^2) <= the L8 bound - log|L(sigma+D)|
T13 upper lin general nonvanishing L1  xi <= |L| <= 2-xi beyond x_xi = log+(||L-1||_1/(1-xi))/lambda_1
T14 upper lin general nonvanishing H2  xi <= |L| <= 2-xi beyond the root x of sqrt(1 + C/(2x)) e^(-K x) ||L-1||_2 = 1-xi
L13 upper lin bounded nonvanishing BoundedCoeff  xi <= |L| beyond the root x of (1 + C/x) e^(-lambda_1 x) = 1-xi
T15 upper lin general log -  int_W log-|L| <= pi ((log ||L||_1 + log 2)^2/lambda_1 + delta^2 lambda_1); log+: delta log ||L||_1
T16 upper lin general log -  int_W log-|L| <= pi ((log ||L||_2 + 1)^2/K + delta^2 K); log+: delta log((1 + 3 pi C/delta) ||L||_2)
T17 lower log general sup -  log sup_W |L| >= -pi ((log ||L||_1 + log 2)^2/(lambda_1 delta) + lambda_1 delta)
T18 lower log general sup -  log sup_W |L| >= -pi ((log ||L||_2 + 1)^2/(K delta) + K delta)
T19 lower log general lp -  log (int_W |L|^p / delta)^(1/p) >= the T17 bound
T20 lower log general lp -  log (int_W |L|^p / delta)^(1/p) >= the T18 bound
T21 upper lin bounded log -  int_W log-|L| <= K0 + C0 K0 log ||L||_2, K0 = pi (max(C, log 4/K) + delta^2/(4C))
T22 upper lin bounded log -  int_W log-|L| <= K0 (log 2 + log ||L||_1)
T23 lower log bounded lp -  log (int_W |L|^p / delta)^(1/p) >= -(K0/delta) log(24 ||L||_2)
T24 lower log bounded lp -  log (int_W |L|^p / delta)^(1/p) >= -(K0/delta) log(2 ||L||_1)
T25 lower log bounded sup -  log sup_W |L| >= -(K0/delta) log(24 ||L||_2)
T26 lower log bounded sup -  log sup_W |L| >= -(K0/delta) log(2 ||L||_1)
T27 lower log bounded zeta HurwitzLerch  int_W |zeta(1+it, alpha)| >= (1 + alpha/delta)^(-7/(6 delta)) 10^(-9/delta) / alpha
T28 lower log bounded zeta HurwitzLerch  the T27 bound for the twisted family phi(a, alpha; 1+it) at shift alpha
T29 lower log bounded zeta Uniform  int_W |zeta(1+it, alpha)| >= delta^(7/(6 delta)) 10^(-9/delta), for every alpha
T30 lower log bounded zeta Uniform  the T29 bound for the twisted family, for every shift
L14 lower log bounded zeta DirichletL14  int_W |sum_{n>=0} a_n (n+alpha)^-(1+it)| >= (1 + alpha S)^(-29/(25 delta)) e^(-16/delta) / alpha, S = sum_{n>=1} |a_n|^2/(n+alpha), a_n the stored coefficients
"""
CATALOG = {
    tid: Entry(side, space == "log", coeffs, None if kind == "-" else kind,
               None if variant == "-" else variant, statement)
    for tid, side, space, coeffs, kind, variant, statement in (
        line.split(None, 6) for line in _TABLE.strip().splitlines())
}

#: Separation constant of the classical exponents at the half-line,
#: 1 / (sqrt(2) log 2); also an upper bound for every alpha in (0, 1].
CLASSICAL_C = 1.0 / (math.sqrt(2.0) * math.log(2.0))

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    inputs: dict
    bound_value: float
    side: str  # "upper" | "lower"
    log_space: bool = False
    valid: bool = True
    notes: str = ""

    def __post_init__(self) -> None:
        if self.theorem_id not in CATALOG:
            raise InvalidParameterError(f"unknown theorem id {self.theorem_id!r}")
        if self.side not in ("upper", "lower"):
            raise InvalidParameterError("side must be 'upper' or 'lower'")
        if not math.isfinite(self.bound_value):
            raise InvalidParameterError("bound value must be finite")

    def as_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "inputs": self.inputs,
            "bound_value": self.bound_value,
            "log_space": self.log_space,
            "side": self.side,
            "valid": self.valid,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# exponent floor and tail decay
# ---------------------------------------------------------------------------

def lambda1_floor(c: float, sigma: float) -> float:
    """K = W(sigma/C)/sigma for sigma > 0, continuous limit 1/C at sigma = 0."""
    check("C", c)
    check("sigma", sigma, inclusive=True)
    if sigma == 0.0:
        return 1.0 / c
    return sp.lambert_w0(sigma / c) / sigma


def l1_tail_from_l2(norm2_tail: float, c: float, rate: float, x: float) -> float:
    """sqrt(1 + C/(2x)) ||L - a_0||_2 e^(-rate x); rate is lambda_1 or K."""
    check("shift x", x)
    check("norm", norm2_tail, inclusive=True)
    check("C", c, inclusive=True)
    check("rate", rate)
    return math.sqrt(1.0 + c / (2.0 * x)) * norm2_tail * math.exp(-rate * x)


def classical_l1_tail(norm2_tail: float, x: float) -> float:
    """Classical-exponent specialization: 2^-x sqrt(1 + 1/(x sqrt(8) log 2))."""
    check("shift x", x)
    check("norm", norm2_tail, inclusive=True)
    return (
        2.0 ** (-x)
        * math.sqrt(1.0 + 1.0 / (x * math.sqrt(8.0) * LOG2))
        * norm2_tail
    )


def local_l2_bound(norm2: float, c: float, d: float) -> float:
    """(D + 3 pi C) ||L||_2^2 bounds int_0^D |L(sigma_1 + it)|^2 dt."""
    check("D", d)
    check("norm2", norm2, inclusive=True)
    check("C", c, inclusive=True)
    return (d + 3.0 * math.pi * c) * norm2 ** 2


# ---------------------------------------------------------------------------
# weighted logarithmic integrals
# ---------------------------------------------------------------------------

def log_plus_weighted_bound(
    d: float,
    mode: str,
    norm1: float | None = None,
    norm2: float | None = None,
    c: float | None = None,
) -> tuple[float, bool]:
    """Upper bound for (D/pi) int log+|L(sigma+it)| / (D^2+t^2) dt.

    H2 mode: kappa_half + (1/2) log(1 + 3 pi C / D) + log ||L||_2, valid
    only when non-negative (the returned flag).  L1 mode: log+ ||L||_1,
    always valid.
    """
    check("D", d)
    if mode == "H2":
        if norm2 is None or c is None:
            raise InvalidParameterError("H2 mode needs norm2 and C")
        check("norm2", norm2)  # its log is read
        check("C", c, inclusive=True)
        kc = sp.kappa_constants()
        value = kc.kappa_half + 0.5 * math.log(1.0 + 3.0 * math.pi * c / d) + math.log(norm2)
        return value, value >= 0.0
    if mode == "L1":
        if norm1 is None:
            raise InvalidParameterError("L1 mode needs norm1")
        check("norm1", norm1, inclusive=True)
        return max(0.0, math.log(norm1)) if norm1 > 0 else 0.0, True
    raise InvalidParameterError("mode must be 'H2' or 'L1'")


_ANCHOR_FLOOR = 1e-12


def log_minus_weighted_bound(
    series: se.DirichletSeries,
    d: float,
    mode: str,
) -> BoundReport:
    """log+ weighted bound minus log|L(sigma + D)|.

    Bounds the non-negative quantity (D/pi) int log-|L| / (D^2+t^2) dt.
    The anchor L(sigma + D) is evaluated numerically; moduli below 1e-12
    raise NearZeroAnchorError.
    """
    x = series.sigma + d
    ev = se.line_evaluator(series, x)
    anchor = complex(ev(np.array(x + 0j)))
    if abs(anchor) <= _ANCHOR_FLOOR:
        raise NearZeroAnchorError(
            f"|L(sigma + D)| = {abs(anchor):.3e} too small for a log bound"
        )
    norm2 = se.l2_norm(series)
    norm1 = se.l1_norm_at(series, series.sigma)
    if mode == "H2":
        c = se.separation_constant(series)
        plus, valid = log_plus_weighted_bound(d, "H2", norm2=norm2, c=c)
        tid = "T11"
        inputs = {"D": d, "C": c, "norm2": norm2, "anchor": abs(anchor)}
    else:
        plus, valid = log_plus_weighted_bound(d, "L1", norm1=norm1)
        tid = "T12"
        inputs = {"D": d, "norm1": norm1, "anchor": abs(anchor)}
    return BoundReport(
        theorem_id=tid,
        inputs=inputs,
        bound_value=plus - math.log(abs(anchor)),
        side="upper",
        valid=valid,
    )


def hurwitz_anchor_chain() -> dict:
    """The assembled anchor-product chain behind the zeta-family L^1 bound.

    Returns the anchor window value zeta(1 + D), the margin 2 - zeta(1 + D),
    the kernel factor pi (D + delta^2 / (4 D)), and its product with the
    bracket kappa_half + log(1 + 3 pi C / D) - log(2 - zeta(1 + D))
    (printed as 15.976 <= 16 at delta = 0.05; recomputation gives the
    kernel factor 2.3205 rather than the quoted 2.3198).
    """
    delta, d = 0.05, 0.7378  # the window length and anchor distance printed
    z = sp.riemann_zeta(1.0 + d, 1e-11).real
    margin = 2.0 - z
    if margin <= 0:
        raise NearZeroAnchorError("anchor 2 - zeta(1 + D) is not positive")
    kc = sp.kappa_constants()
    bracket = kc.kappa_half + math.log(1.0 + 3.0 * math.pi * CLASSICAL_C / d) - math.log(margin)
    kernel = math.pi * (d + delta ** 2 / (4.0 * d))
    return {
        "zeta_1_plus_d": z,
        "anchor_margin": margin,
        "kernel_factor": kernel,
        "product": kernel * bracket,
    }


# ---------------------------------------------------------------------------
# nonvanishing abscissas
# ---------------------------------------------------------------------------

def _bisect_decreasing(fn, target: float) -> float:
    """Root of the decreasing fn(x) = target; bracket doubled, then bisected."""
    lo = 1e-9  # the smallest root returned
    if fn(lo) <= target:
        return lo
    hi = max(2.0 * lo, 1.0)
    for _ in range(200):
        if fn(hi) < target:
            break
        hi *= 2.0
    else:
        raise InvalidParameterError("no sign change found for the root bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _nonvanishing_lhs(norm: float, c: float, rate: float, variant: str):
    """x -> left side of the defining equation lhs(x) = 1 - xi of a root
    variant."""
    if variant == "H2":
        return lambda x: math.sqrt(1.0 + c / (2.0 * x)) * math.exp(-rate * x) * norm
    return lambda x: (1.0 + c / x) * math.exp(-rate * x)  # BoundedCoeff


def nonvanishing_abscissa(
    norm: float,
    c: float,
    rate: float,
    xi: float,
    variant: str,
) -> float:
    """Shift x_xi with xi <= |L(s)| <= 2 - xi for Re(s) >= sigma + x_xi.

    variant "L1"  (tail norm ||L - 1||_1):  closed form log+(norm/(1-xi))/rate
    variant "H2"  (tail norm ||L - 1||_2):  root of
                  sqrt(1 + C/(2x)) e^(-rate x) norm = 1 - xi
    variant "BoundedCoeff" (|a_n| <= 1):    root of (1 + C/x) e^(-rate x) = 1 - xi
    """
    if not 0 < xi < 1:
        raise InvalidParameterError("xi must lie in (0, 1)")
    check("norm", norm, inclusive=True)
    check("rate", rate)
    if variant not in ("L1", "H2", "BoundedCoeff"):
        raise InvalidParameterError(f"unknown variant {variant!r}")
    if variant != "L1":
        check("C", c, inclusive=True)
    target = 1.0 - xi
    if variant == "L1" or (variant == "H2" and (norm == 0.0 or c == 0.0)):
        return max(0.0, math.log(norm / target)) / rate if norm else 0.0
    return _bisect_decreasing(_nonvanishing_lhs(norm, c, rate, variant), target)


class Nonvanishing(NamedTuple):
    x: float  # x_xi
    residual: float  # |lhs(x) - (1 - xi)| of the equation solved; 0 if none is
    cap: float  # closed-form upper bound for x (H2), else inf


def nonvanishing(series: se.DirichletSeries, xi: float, variant: str) -> Nonvanishing:
    """x_xi of ``series`` with a_0 normalized to 1, from the norm, C and rate
    its variant reads (see the ``CATALOG`` statement of its id), C, lambda_1
    and K being ``class_params`` of that series, whose norms are those of
    its stored coefficients.  BoundedCoeff refuses a series with some
    |a_n| > 1 after normalization.  H2 is capped by
    max(C, K^-1 log+(sqrt(3) norm / (sqrt(2)(1-xi))))."""
    series = se.normalize_leading(series)
    # the slack absorbs a coefficient divided by its own modulus landing an ulp above 1
    if variant == "BoundedCoeff" and np.max(np.abs(series.coefficients)) > 1.0 + 1e-12:
        raise InvalidParameterError("L13 (BoundedCoeff) needs |a_n| <= 1 once a_0 = 1")
    p = class_params(series)
    if variant == "L1":
        norm = se.l1_norm_at(series, series.sigma) - 1.0
        return Nonvanishing(nonvanishing_abscissa(norm, p.c, p.lambda1, xi, "L1"),
                            0.0, math.inf)
    norm, rate, cap = 1.0, p.lambda1, math.inf
    if variant == "H2":
        norm, rate = float(np.sqrt(np.sum(np.abs(series.coefficients[1:]) ** 2))), p.k
    x = nonvanishing_abscissa(norm, p.c, rate, xi, variant)
    # x = 0 only for a zero H2 tail, which leaves no equation to solve
    residual = abs(_nonvanishing_lhs(norm, p.c, rate, variant)(x) - (1.0 - xi)) if x else 0.0
    if variant == "H2":
        arg = math.sqrt(3.0) * norm / (math.sqrt(2.0) * (1.0 - xi))
        cap = max(p.c, max(0.0, math.log(arg)) / rate if arg > 0 else 0.0)
    return Nonvanishing(x, residual, cap)


# ---------------------------------------------------------------------------
# short-interval log bounds
# ---------------------------------------------------------------------------

def theorem21_constants(c: float, k: float, delta: float) -> tuple[float, float]:
    """K0 = pi (max(C, log4/K) + delta^2/(4C)) and K1 = C0 K0, as printed."""
    check("delta", delta)
    check("C", c)
    check("K", k)
    k0 = math.pi * (max(c, math.log(4.0) / k) + delta ** 2 / (4.0 * c))
    k1 = sp.kappa_constants().c0 * k0
    return k0, k1


#: The tuned level behind the printed square-summable short-interval bound.
XI_DEFAULT_T16 = 1.0 - math.sqrt(3.0) / (math.e * math.sqrt(2.0))


def short_interval_log_bounds(
    variant: str,
    delta: float,
    norm1: float | None = None,
    norm2: float | None = None,
    c: float | None = None,
    k: float | None = None,
    lambda1: float | None = None,
    xi: float | None = None,
) -> tuple[float, Optional[float]]:
    """(log- bound, log+ bound or None) for int_T^(T+delta) log+-|L| dt of
    the id ``variant`` as its ``CATALOG`` statement reads (T15/T16 assume
    a_0 = 1; T21/T22 have no plus side).

    The printed T15/T16 constants bake in the levels xi = 1/2 and
    xi = 1 - sqrt(3)/(e sqrt 2) respectively; passing ``xi`` overrides the
    level and evaluates the underlying anchor assembly
    pi (D + delta^2/(4D)) (log+ bound - log xi) with the matching
    nonvanishing distance D instead of the simplified printed form.
    """
    check("delta", delta)
    if xi is not None and not 0 < xi < 1:
        raise InvalidParameterError("xi must lie in (0, 1)")
    if variant == "T15":
        if norm1 is None or lambda1 is None:
            raise InvalidParameterError("T15 needs norm1 and lambda1")
        check("norm1", norm1, 1.0, inclusive=True)  # T15 assumes a_0 = 1
        check("lambda1", lambda1)
        plus = delta * math.log(norm1)
        if xi is None:
            minus = math.pi * (
                (math.log(norm1) + LOG2) ** 2 / lambda1 + delta ** 2 * lambda1
            )
            return minus, plus
        dist = max(1e-12, math.log(norm1 / (1.0 - xi)) / lambda1)
        minus = math.pi * (dist + delta ** 2 / (4.0 * dist)) * (
            math.log(norm1) - math.log(xi)
        )
        return minus, plus
    if variant == "T16":
        if norm2 is None or c is None or k is None:
            raise InvalidParameterError("T16 needs norm2, C and K")
        check("norm2", norm2, 1.0, inclusive=True)  # T16 assumes a_0 = 1
        check("C", c, inclusive=True)
        check("K", k)
        plus = delta * math.log(1.0 + 3.0 * math.pi * c / delta) + delta * math.log(norm2)
        if xi is None:
            minus = math.pi * ((math.log(norm2) + 1.0) ** 2 / k + delta ** 2 * k)
            return minus, plus
        arg = math.sqrt(3.0) * norm2 / (math.sqrt(2.0) * (1.0 - xi))
        dist = max(c, max(0.0, math.log(arg)) / k, 1e-12)
        kc = sp.kappa_constants()
        minus = math.pi * (dist + delta ** 2 / (4.0 * dist)) * (
            kc.kappa_half
            + math.log(1.0 + 3.0 * math.pi * c / dist)
            + math.log(norm2)
            - math.log(xi)
        )
        return minus, plus
    if variant == "T21":
        if norm2 is None or c is None or k is None:
            raise InvalidParameterError("T21 needs norm2, C and K")
        check("norm2", norm2)
        k0, k1 = theorem21_constants(c, k, delta)
        return k0 + k1 * math.log(norm2), None
    if variant == "T22":
        if norm1 is None or c is None or k is None:
            raise InvalidParameterError("T22 needs norm1, C and K")
        check("norm1", norm1)
        k0, _ = theorem21_constants(c, k, delta)
        return k0 * (LOG2 + math.log(norm1)), None
    raise InvalidParameterError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# sup-norm and L^p lower bounds (natural-log space)
# ---------------------------------------------------------------------------

def supnorm_lp_lower_bound(
    variant: str,
    delta: float,
    norm1: float | None = None,
    norm2: float | None = None,
    c: float | None = None,
    k: float | None = None,
    lambda1: float | None = None,
) -> float:
    """Natural log of the lower bound of the id ``variant`` for inf_T of the
    window sup or the normalized L^p mean (delta^-1 int |L|^p)^(1/p), as its
    ``CATALOG`` statement reads; the bound does not depend on p, and T19 reads
    the L^1 norm its derivation rests on."""
    check("delta", delta)
    if variant in ("T17", "T19"):
        if norm1 is None or lambda1 is None:
            raise InvalidParameterError(f"{variant} needs norm1 and lambda1")
        check("norm1", norm1)
        check("lambda1", lambda1)
        return -math.pi * (
            (math.log(norm1) + LOG2) ** 2 / (lambda1 * delta) + delta * lambda1
        )
    if variant in ("T18", "T20"):
        if norm2 is None or k is None:
            raise InvalidParameterError(f"{variant} needs norm2 and K")
        check("norm2", norm2)
        check("K", k)
        return -math.pi * ((math.log(norm2) + 1.0) ** 2 / (k * delta) + k * delta)
    if variant in ("T23", "T25"):
        if norm2 is None or c is None or k is None:
            raise InvalidParameterError(f"{variant} needs norm2, C and K")
        check("norm2", norm2)
        k0, _ = theorem21_constants(c, k, delta)
        return -(k0 / delta) * math.log(24.0 * norm2)
    if variant in ("T24", "T26"):
        if norm1 is None or c is None or k is None:
            raise InvalidParameterError(f"{variant} needs norm1, C and K")
        check("norm1", norm1)
        k0, _ = theorem21_constants(c, k, delta)
        return -(k0 / delta) * math.log(2.0 * norm1)
    raise InvalidParameterError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# zeta-family lower bounds (log space)
# ---------------------------------------------------------------------------

_LN10 = math.log(10.0)


def hurwitz_lower_bound(
    alpha: float,
    delta: float,
    variant: str,
    coeff_sum: float | None = None,
) -> float:
    """Natural log of the window-integral lower bound for the zeta families:
    variant "HurwitzLerch", "Uniform" or "DirichletL14" (S passed as
    ``coeff_sum``), as the ``CATALOG`` statement of each id with that
    ``variant`` reads; the twisted family passes its shift as ``alpha``.
    Validity window 0 < delta <= 0.05."""
    if not 0 < delta <= 0.05:
        raise InvalidParameterError(f"delta must lie in (0, 0.05], where the bounds "
                                    f"are stated, got {delta}")
    if not 0 < alpha <= 1:
        raise InvalidParameterError("alpha must lie in (0, 1]")
    if variant == "HurwitzLerch":
        return (
            -math.log(alpha)
            - 7.0 / (6.0 * delta) * math.log(1.0 + alpha / delta)
            - 9.0 / delta * _LN10
        )
    if variant == "Uniform":
        return 7.0 / (6.0 * delta) * math.log(delta) - 9.0 / delta * _LN10
    if variant == "DirichletL14":
        if coeff_sum is None:
            raise InvalidParameterError("DirichletL14 needs coeff_sum")
        check("coeff_sum", coeff_sum, inclusive=True)
        return (
            -math.log(alpha)
            - 29.0 / (25.0 * delta) * math.log(1.0 + alpha * coeff_sum)
            - 16.0 / delta
        )
    raise InvalidParameterError(f"unknown variant {variant!r}")


def riemann_window_asymptotic(delta: float) -> float:
    """e^-gamma pi^2 delta^2 / 24, the sharp short-interval asymptote of
    inf_T int_T^(T+delta) |zeta(1+it)| dt (5.772e-4 at delta = 0.05)."""
    return math.exp(-sp.EULER_GAMMA) * math.pi ** 2 / 24.0 * delta ** 2


def consistency_fractions() -> dict:
    """Exact fraction identities the zeta-family constants rest on."""
    return {
        "seven_sixths": Fraction(175, 174) * Fraction(29, 25) == Fraction(7, 6),
        "hump_exponent": Fraction(175, 174) * 16 == Fraction(1400, 87),
    }


def ab2_constants() -> dict:
    """The folded mollifier constant: 90^(175/174) e^(1400/87) = 9.0e8 <= 1e9.

    The plain product 90 e^(1400/87) = 8.77e8 is also reported; the quoted
    9.0e8 decimal requires the 175/174 exponent on the 90.
    """
    plain = 90.0 * math.exp(1400.0 / 87.0)
    folded = 90.0 ** (175.0 / 174.0) * math.exp(1400.0 / 87.0)
    return {
        "plain": plain,
        "folded": folded,
        "below_1e9": folded <= 1e9 and plain <= 1e9,
    }


# ---------------------------------------------------------------------------
# class parameters from a series
# ---------------------------------------------------------------------------

def class_params(series: se.DirichletSeries) -> se.ClassParams:
    """(C, sigma, lambda_1, K) for a series with >= 2 terms.

    Computed once per series object and kept in its ``__dict__``, as
    ``functools.cached_property`` keeps a value: the series is frozen, so
    its parameters cannot go stale."""
    params = series.__dict__.get("_class_params")
    if params is None:
        c = se.separation_constant(series)
        lambda1 = series.lambda1
        k = min(lambda1_floor(c, max(series.sigma, 0.0)), lambda1)
        params = se.ClassParams(c=c, sigma=series.sigma, lambda1=lambda1, k=k)
        series.__dict__["_class_params"] = params
    return params


# ---------------------------------------------------------------------------
# the catalog's one lookup
# ---------------------------------------------------------------------------

def bound_report(tid: str, series: se.DirichletSeries | None, delta: float | None = None,
                 d: float | None = None, alpha: float | None = None,
                 xi: float | None = None) -> tuple[BoundReport, Optional[float]]:
    """(report, log+ bound or None) of catalog id ``tid`` from the formula its
    kind names and the inputs that formula reads (``_KIND_INPUTS``); an input
    given to a kind that does not read it is refused, and one not given takes
    its default, delta 0.05, D 1 and alpha 1.  The zeta kind reads ``series``
    only for the coefficient sum of "DirichletL14"; ``xi`` overrides the
    level the printed general log bounds bake in, and only those take it."""
    entry = CATALOG.get(tid)
    if entry is None or entry.kind not in BOUND_KINDS:
        raise InvalidParameterError(f"no bound formula evaluates {tid!r}")
    reads = _KIND_INPUTS[entry.kind] + (
        ("xi",) if (entry.kind, entry.coeffs) == ("log", "general") else ())
    for name, value in (("delta", delta), ("d", d), ("alpha", alpha), ("xi", xi)):
        if value is not None and name not in reads:
            raise InvalidParameterError(f"{tid} reads no {name}")
    delta = 0.05 if delta is None else delta
    d = 1.0 if d is None else d
    alpha = 1.0 if alpha is None else alpha
    if series is None and (entry.kind != "zeta" or entry.variant == "DirichletL14"):
        raise InvalidParameterError(f"{tid} needs a series")
    plus, notes = None, ""
    if entry.kind == "zeta":
        inputs = {"alpha": alpha, "delta": delta}
        if entry.variant == "DirichletL14":
            inputs["coeff_sum"] = float(np.sum(np.abs(series.coefficients[1:]) ** 2
                                               / (np.arange(1, len(series)) + alpha)))
        value = hurwitz_lower_bound(alpha, delta, entry.variant,
                                    coeff_sum=inputs.get("coeff_sum"))
    else:
        p = class_params(series)
        norm1, norm2 = se.l1_norm_at(series, series.sigma), se.l2_norm(series)
        params = dict(norm1=norm1, norm2=norm2, c=p.c, k=p.k, lambda1=p.lambda1)
        inputs = {"sigma": series.sigma, "C": p.c, "lambda1": p.lambda1, "K": p.k,
                  "delta": delta, "norm1": norm1, "norm2": norm2}
        if entry.kind == "window":
            inputs, value = {"D": d, "C": p.c, "norm2": norm2}, local_l2_bound(norm2, p.c, d)
        elif entry.kind == "log":
            if xi is not None:
                inputs["xi"] = xi
            value, plus = short_interval_log_bounds(tid, delta, xi=xi, **params)
            notes = "log-minus window integral bound"
        else:
            value = supnorm_lp_lower_bound(tid, delta, **params)
    return BoundReport(tid, inputs, value, entry.side, entry.log_space, notes=notes), plus
