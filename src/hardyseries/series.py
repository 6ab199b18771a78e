"""Generalized Dirichlet series L(s) = sum a_n e^(-lambda_n s).

Exponents satisfy 0 = lambda_0 < lambda_1 < ... ; the reference abscissa
``sigma`` marks the line where the separation quantity

    sup_{n != m}  e^(-sigma (lambda_n + lambda_m)) / |lambda_n - lambda_m|

is taken.  Series are stored as finite coefficient lists; the built-in
family ``hurwitz_family`` (coefficients (alpha/(n+alpha))^(1/2), the unit
abscissa object written at the sigma = 1/2 normalization) carries an
analytic tail descriptor so its L^1 norms come back as rigorous intervals.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Union

import numpy as np

from . import special
from .errors import (
    DivergenceError,
    InvalidParameterError,
    InvalidSeriesError,
    ZeroSeriesError,
)

__all__ = [
    "ClassParams",
    "DirichletSeries",
    "ExponentSequence",
    "HurwitzTail",
    "Interval",
    "classical_polynomial",
    "classical_stack_evaluator",
    "hurwitz_family",
    "l1_norm_at",
    "l2_norm",
    "line_evaluator",
    "normalize_leading",
    "one_minus_two_power_series",
    "rescale",
    "separation_constant",
    "series_from_json",
    "series_to_json",
    "shift",
]

CLASSICAL = "classical"
HURWITZ = "hurwitz"
LINEAR = "linear"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class ExponentSequence:
    """Exponent generator lambda_n, optionally rescaled by a factor > 0.

    kinds: classical  lambda_n = log(n+1)
           hurwitz    lambda_n = log(n+alpha) - log(alpha),  0 < alpha <= 1
           linear     lambda_n = c n,  c > 0
           explicit   a finite strictly increasing list starting at 0
    """

    kind: str
    alpha: float | None = None
    c: float | None = None
    values: tuple[float, ...] | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise InvalidParameterError("exponent scale must be positive")
        if self.kind == HURWITZ:
            if self.alpha is None or not 0 < self.alpha <= 1:
                raise InvalidParameterError("hurwitz exponents need 0 < alpha <= 1")
        elif self.kind == LINEAR:
            if self.c is None or self.c <= 0:
                raise InvalidParameterError("linear exponents need c > 0")
        elif self.kind == EXPLICIT:
            v = self.values
            if not v:
                raise InvalidSeriesError("explicit exponent list is empty")
            if v[0] != 0.0:
                raise InvalidSeriesError("exponents must start at lambda_0 = 0")
            if any(b <= a for a, b in zip(v, v[1:])):
                raise InvalidSeriesError("exponents must be strictly increasing")
        elif self.kind != CLASSICAL:
            raise InvalidParameterError(f"unknown exponent kind {self.kind!r}")

    @classmethod
    def classical(cls) -> "ExponentSequence":
        return cls(CLASSICAL)

    @classmethod
    def hurwitz(cls, alpha: float) -> "ExponentSequence":
        return cls(HURWITZ, alpha=alpha)

    @classmethod
    def linear(cls, c: float) -> "ExponentSequence":
        return cls(LINEAR, c=c)

    @classmethod
    def explicit(cls, values) -> "ExponentSequence":
        return cls(EXPLICIT, values=tuple(float(v) for v in values))

    @property
    def finite_length(self) -> int | None:
        return len(self.values) if self.kind == EXPLICIT else None

    def lambdas(self, count: int) -> np.ndarray:
        """First ``count`` exponents as a float array."""
        if self.kind == EXPLICIT:
            if count > len(self.values):
                raise InvalidSeriesError(
                    f"explicit sequence has {len(self.values)} exponents, "
                    f"{count} requested"
                )
            lam = np.asarray(self.values[:count])
        elif self.kind == CLASSICAL:
            lam = np.log(np.arange(count) + 1.0)
        elif self.kind == HURWITZ:
            lam = np.log(np.arange(count) + self.alpha) - math.log(self.alpha)
        else:  # linear
            lam = self.c * np.arange(count, dtype=float)
        return self.scale * lam

    def rescaled(self, a: float) -> "ExponentSequence":
        return replace(self, scale=self.scale * a)


@dataclass(frozen=True)
class HurwitzTail:
    """Analytic tail of the built-in family: terms (alpha/(n+alpha))^p.

    Term n (n >= start) has coefficient magnitude
    (alpha/(n+alpha))^coeff_power and exponent lambda_scale * lambda_n, so
    at abscissa s the term magnitude is (alpha/(n+alpha))^(coeff_power +
    lambda_scale * Re(s)).
    """

    alpha: float
    start: int
    coeff_power: float = 0.5
    lambda_scale: float = 1.0

    def power_at(self, sigma1: float) -> float:
        return self.coeff_power + self.lambda_scale * sigma1

    def l1_interval(self, sigma1: float) -> "Interval":
        """Enclosure of sum_{n>=start} (alpha/(n+alpha))^p at p = power_at."""
        p = self.power_at(sigma1)
        if p <= 1.0:
            raise DivergenceError(
                f"tail diverges: effective exponent {p:.4f} <= 1"
            )
        a, n0 = self.alpha, self.start
        integral = a ** p * (n0 + a) ** (1 - p) / (p - 1)
        first = (a / (n0 + a)) ** p
        return Interval(integral, integral + first)


class Interval(NamedTuple):
    """Closed enclosure [lower, upper] for a norm with an analytic tail."""

    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class DirichletSeries:
    exponents: ExponentSequence
    coefficients: np.ndarray
    sigma: float
    tail: HurwitzTail | None = None

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise InvalidSeriesError("coefficient list must be 1-d and non-empty")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidSeriesError("coefficients must be finite")
        fl = self.exponents.finite_length
        if fl is not None and coeffs.size > fl:
            raise InvalidSeriesError("more coefficients than explicit exponents")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return int(self.coefficients.size)

    @property
    def lambdas(self) -> np.ndarray:
        return self.exponents.lambdas(len(self))

    @property
    def lambda1(self) -> float:
        if len(self) < 2 and self.tail is None:
            raise InvalidSeriesError("series has a single term, lambda_1 undefined")
        if len(self) >= 2:
            return float(self.exponents.lambdas(2)[1])
        return self.tail.lambda_scale * (
            math.log(self.tail.start + self.tail.alpha) - math.log(self.tail.alpha)
        )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def classical_polynomial(coefficients, sigma: float = 0.5) -> DirichletSeries:
    """Finite classical series sum a_n (n+1)^-s with reference abscissa sigma."""
    return DirichletSeries(ExponentSequence.classical(), np.asarray(coefficients, dtype=complex), sigma)


def hurwitz_family(alpha: float, n_terms: int = 64, include_tail: bool = True) -> DirichletSeries:
    """The unit-coefficient zeta family at the half-line normalization.

    Coefficients (alpha/(n+alpha))^(1/2) over exponents log(n+alpha) -
    log(alpha); the full series evaluated at s equals
    zeta(s + 1/2, alpha) alpha^(s+1/2) when every a_n = 1 upstream.
    """
    if n_terms < 1:
        raise InvalidParameterError("n_terms must be >= 1")
    n = np.arange(n_terms)
    coeffs = np.sqrt(alpha / (n + alpha)).astype(complex)
    tail = HurwitzTail(alpha, n_terms) if include_tail else None
    return DirichletSeries(ExponentSequence.hurwitz(alpha), coeffs, 0.5, tail)


def one_minus_two_power_series(order: int, sigma: float = 0.5) -> DirichletSeries:
    """(1 - 2 * 2^-s)^order expanded as a classical series.

    Nonzero coefficients sit at indices 2^k - 1 and equal C(order, k)(-2)^k.
    """
    if order < 1:
        raise InvalidParameterError("order must be >= 1")
    coeffs = np.zeros(2 ** order, dtype=complex)
    for k in range(order + 1):
        coeffs[2 ** k - 1] = math.comb(order, k) * (-2.0) ** k
    return classical_polynomial(coeffs, sigma)


# ---------------------------------------------------------------------------
# norms and the separation constant
# ---------------------------------------------------------------------------

def l2_norm(series: DirichletSeries) -> float:
    """sqrt(sum |a_n|^2) over the stored coefficient list."""
    return float(np.sqrt(np.sum(np.abs(series.coefficients) ** 2)))


def l1_norm_at(series: DirichletSeries, sigma1: float) -> Union[float, Interval]:
    """sum |a_n| e^(-lambda_n sigma1); an Interval when an analytic tail exists."""
    head = float(np.sum(np.abs(series.coefficients) * np.exp(-series.lambdas * sigma1)))
    if series.tail is None:
        return head
    tail = series.tail.l1_interval(sigma1)
    return Interval(head + tail.lower, head + tail.upper)


def _adjacent_sup(lam: np.ndarray, sigma: float) -> float:
    vals = np.exp(-sigma * (lam[:-1] + lam[1:])) / (lam[1:] - lam[:-1])
    return float(np.max(vals))


_BUILTIN_SCAN = 4096  # adjacent-pair scan depth for families with a tail


def separation_constant(series: DirichletSeries) -> float:
    """The sup of e^(-sigma(lambda_n + lambda_m)) / |lambda_n - lambda_m|.

    For sigma >= 0 the sup over all pairs of the truncation is attained on
    an adjacent pair: replacing m > n+1 by n+1 increases e^(-sigma lambda_m)
    and shrinks the gap, so only neighbours are scanned.  Explicit
    sequences with sigma < 0 fall back to the full pair scan.  For the
    built-in tailed families the scan is extended well past the truncation;
    at sigma >= 1/2 the adjacent-pair value beyond the scan is below its
    head maximum (it decreases towards alpha^(2 sigma scale) ... along the
    tail), which the property tests exercise.
    """
    n = len(series)
    if series.tail is not None:
        n = max(n, _BUILTIN_SCAN)
        fl = series.exponents.finite_length
        if fl is not None:
            n = min(n, fl)
    if n < 2:
        raise InvalidSeriesError("separation constant needs at least two terms")
    lam = series.exponents.lambdas(n)
    if np.any(np.diff(lam) <= 0):
        raise InvalidSeriesError("exponents are not strictly increasing")
    if series.sigma >= 0:
        return _adjacent_sup(lam, series.sigma)
    best = 0.0
    for i in range(n - 1):
        vals = np.exp(-series.sigma * (lam[i] + lam[i + 1:])) / (lam[i + 1:] - lam[i])
        best = max(best, float(np.max(vals)))
    return best


@dataclass(frozen=True)
class ClassParams:
    """(C, sigma, lambda_1, K): separation constant, abscissa, first exponent,
    and the Lambert floor K for lambda_1.  K <= lambda_1 and, at sigma = 0,
    K = 1/C; both are checked up to a small float slack."""

    c: float
    sigma: float
    lambda1: float
    k: float

    def __post_init__(self) -> None:
        if self.c <= 0 or self.k <= 0:
            raise InvalidParameterError("C and K must be positive")
        if self.k > self.lambda1 * (1 + 1e-9) + 1e-12:
            raise InvalidParameterError(
                f"K = {self.k} exceeds lambda_1 = {self.lambda1}"
            )
        if self.sigma == 0 and self.k > 1.0 / self.c + 1e-12:
            raise InvalidParameterError("at sigma = 0, K must not exceed 1/C")


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def shift(series: DirichletSeries, x: float) -> DirichletSeries:
    """L_x(s) = L(s + x): coefficients pick up e^(-lambda_n x)."""
    coeffs = series.coefficients * np.exp(-series.lambdas * x)
    tail = series.tail
    if tail is not None:
        tail = replace(tail, coeff_power=tail.coeff_power + tail.lambda_scale * x)
    return DirichletSeries(series.exponents, coeffs, series.sigma, tail)


def rescale(series: DirichletSeries, a: float) -> DirichletSeries:
    """L(a s): exponents become a lambda_n, the abscissa becomes sigma / a."""
    if a <= 0:
        raise InvalidParameterError("rescale factor must be positive")
    tail = series.tail
    if tail is not None:
        tail = replace(tail, lambda_scale=tail.lambda_scale * a)
    return DirichletSeries(
        series.exponents.rescaled(a), series.coefficients, series.sigma / a, tail
    )


def normalize_leading(series: DirichletSeries) -> DirichletSeries:
    """Divide out the first nonzero term so a_0 = 1 and lambda_0 = 0."""
    coeffs = series.coefficients
    nonzero = np.nonzero(coeffs)[0]
    if nonzero.size == 0:
        raise ZeroSeriesError("cannot normalize the zero series")
    k = int(nonzero[0])
    if k == 0:
        if coeffs[0] == 1.0:
            return series
        if series.tail is not None:
            raise InvalidSeriesError("cannot renormalize a tailed family")
        return DirichletSeries(series.exponents, coeffs / coeffs[0], series.sigma)
    if series.tail is not None:
        raise InvalidSeriesError("cannot drop leading terms of a tailed family")
    lam = series.lambdas
    new_lam = tuple(float(v) for v in (lam[k:] - lam[k]))
    new_coeffs = coeffs[k:] / coeffs[k]
    return DirichletSeries(
        ExponentSequence.explicit(new_lam), new_coeffs, series.sigma
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def line_evaluator(
    series: DirichletSeries, sigma1: float, tail_tol: float = 1e-10
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator for points s on the vertical line Re(s) = sigma1.

    The returned function maps a complex array of points sigma1 + i t to the
    array of values L(s), of the same shape; points off the line are refused.
    The head sum_n a_n e^(-lambda_n sigma1) e^(-i t lambda_n) goes through
    ``special._head_sum``: per point, the terms are added in index order
    exactly as a one-point sum would add them; an evenly spaced grid of at
    least 128 points is one phase-matrix product, and so is a 2-d array
    whose rows are progressions of one step.  Tailed families close
    the tail of the whole array with one Euler-Maclaurin call: the terms
    alpha^w (n+alpha)^-w with w = coeff_power + lambda_scale s, summed to
    ``tail_tol``.
    """
    lam = series.lambdas
    weights = series.coefficients * np.exp(-lam * sigma1)
    tail = series.tail
    if tail is not None:
        w_re = tail.power_at(sigma1)  # Re w, the same at every point of the line
        if w_re <= 1.0:
            raise DivergenceError(
                f"tail diverges: effective exponent {w_re:.4f} <= 1")
        # the sum is scaled by alpha^w, of modulus alpha^Re(w) on the whole line
        tail_target = tail_tol / max(tail.alpha ** w_re, 1e-300)

    def ev(s: np.ndarray) -> np.ndarray:
        t = _ordinates(s, sigma1)
        out = special._head_sum(1j * t, lam, weights)
        if tail is not None and t.size:
            w = tail.coeff_power + tail.lambda_scale * (sigma1 + 1j * t)
            raw, _ = special.hurwitz_tail_sum(w, tail.alpha, tail.start, tail_target)
            out += tail.alpha ** w * raw
        return out

    return ev


def _ordinates(s, sigma1: float) -> np.ndarray:
    """Im s of the points s, refused unless every one lies on Re(s) = sigma1."""
    s = np.asarray(s, dtype=complex)
    if np.any(s.real != sigma1):
        raise InvalidParameterError(f"points off the line Re(s) = {sigma1}")
    return s.imag


def classical_stack_evaluator(
    coefficients, sigma1: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of K finite classical series at once, one per row of the
    (K, terms) ``coefficients``, on the line Re(s) = sigma1.

    The returned function maps points of shape (n,), shared by every series,
    or (K, n), row k for series k, to the (K, n) values, row k those of
    series k; points off the line are refused.  Row k holds the bits of
    ``line_evaluator(classical_polynomial(coefficients[k]), sigma1)`` on a
    1-d array of fewer than 128 points: ``special._head_sum`` with a weight
    stack, where rows of equal points share one exponential table.  No
    ``DirichletSeries`` is built.
    """
    coeffs = np.asarray(coefficients, dtype=complex)
    lam = ExponentSequence.classical().lambdas(coeffs.shape[1])
    weights = coeffs * np.exp(-lam * sigma1)

    def ev(s: np.ndarray) -> np.ndarray:
        t = np.broadcast_to(_ordinates(s, sigma1), (len(weights), np.shape(s)[-1]))
        return special._head_sum(1j * t, lam, weights)

    return ev


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _finite(value, field: str) -> float:
    """A finite float from a JSON value, or an error naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise InvalidSeriesError(f"series field {field!r} must be a number, got {value!r}")
    if not math.isfinite(x):
        raise InvalidSeriesError(f"series field {field!r} must be finite, got {x}")
    return x


def _exponents_from_json(obj: dict) -> ExponentSequence:
    if not isinstance(obj, dict):
        raise InvalidSeriesError("exponents must be an object")
    allowed = {"kind", "alpha", "c", "values"}
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidSeriesError(f"unknown exponent fields: {sorted(unknown)}")
    kind = obj.get("kind")
    if kind == CLASSICAL:
        return ExponentSequence.classical()
    if kind == HURWITZ:
        if "alpha" not in obj:
            raise InvalidSeriesError("hurwitz exponents need 'alpha'")
        return ExponentSequence.hurwitz(_finite(obj["alpha"], "alpha"))
    if kind == LINEAR:
        if "c" not in obj:
            raise InvalidSeriesError("linear exponents need 'c'")
        return ExponentSequence.linear(_finite(obj["c"], "c"))
    if kind == EXPLICIT:
        if not isinstance(obj.get("values"), list):
            raise InvalidSeriesError("explicit exponents need a 'values' list")
        return ExponentSequence.explicit([_finite(v, "values") for v in obj["values"]])
    raise InvalidSeriesError(f"unknown exponent kind {kind!r}")


def series_from_json(text: str) -> DirichletSeries:
    """Parse {"exponents": {...}, "coefficients": [[re, im], ...], "sigma": x}.

    Unknown fields anywhere in the document are rejected, and so are
    non-finite numbers (JSON NaN / Infinity), with the field named.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise InvalidSeriesError("series document must be an object")
    unknown = set(obj) - {"exponents", "coefficients", "sigma"}
    if unknown:
        raise InvalidSeriesError(f"unknown series fields: {sorted(unknown)}")
    for field in ("exponents", "coefficients", "sigma"):
        if field not in obj:
            raise InvalidSeriesError(f"missing series field {field!r}")
    exponents = _exponents_from_json(obj["exponents"])
    raw = obj["coefficients"]
    if not isinstance(raw, list) or not raw:
        raise InvalidSeriesError("coefficients must be a non-empty list")
    coeffs = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InvalidSeriesError("each coefficient must be a [re, im] pair")
        coeffs.append(complex(_finite(entry[0], "coefficients"),
                              _finite(entry[1], "coefficients")))
    return DirichletSeries(exponents, np.asarray(coeffs), _finite(obj["sigma"], "sigma"))


def series_to_json(series: DirichletSeries) -> str:
    if series.tail is not None:
        raise InvalidSeriesError("tailed families have no JSON form")
    exp = series.exponents
    if exp.scale == 1.0:
        if exp.kind == CLASSICAL:
            eobj: dict = {"kind": CLASSICAL}
        elif exp.kind == HURWITZ:
            eobj = {"kind": HURWITZ, "alpha": exp.alpha}
        elif exp.kind == LINEAR:
            eobj = {"kind": LINEAR, "c": exp.c}
        else:
            eobj = {"kind": EXPLICIT, "values": list(exp.values)}
    else:
        # rescaled: materialize the exponents
        eobj = {"kind": EXPLICIT, "values": [float(v) for v in series.lambdas]}
    return json.dumps(
        {
            "exponents": eobj,
            "coefficients": [[float(a.real), float(a.imag)] for a in series.coefficients],
            "sigma": series.sigma,
        }
    )
