"""Generalized Dirichlet series L(s) = sum a_n e^(-lambda_n s).

Exponents satisfy 0 = lambda_0 < lambda_1 < ... ; the reference abscissa
``sigma`` marks the line where the separation quantity

    sup_{n != m}  e^(-sigma (lambda_n + lambda_m)) / |lambda_n - lambda_m|

is taken.  Every series is a finite coefficient list.  The built-in family
``hurwitz_family`` (coefficients (alpha/(n+alpha))^(1/2), the unit
abscissa object written at the sigma = 1/2 normalization) is the first n
terms of alpha^(s+1/2) zeta(s + 1/2, alpha); the terms beyond them are
alpha^w ``special.hurwitz_tail_sum(w, alpha, n)`` with w = s + 1/2.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import special
from .errors import InvalidParameterError, InvalidSeriesError, ZeroSeriesError

__all__ = [
    "ClassParams",
    "DirichletSeries",
    "ExponentSequence",
    "classical_polynomial",
    "classical_stack_evaluator",
    "hurwitz_family",
    "l1_norm_at",
    "l2_norm",
    "line_evaluator",
    "normalize_leading",
    "one_minus_two_power_series",
    "separation_constant",
    "series_from_json",
    "window_l2",
]

CLASSICAL = "classical"
HURWITZ = "hurwitz"
LINEAR = "linear"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class ExponentSequence:
    """Exponent generator lambda_n; ``lambdas`` returns the generator's own
    values, unscaled.

    kinds: classical  lambda_n = log(n+1)
           hurwitz    lambda_n = log(n+alpha) - log(alpha),  0 < alpha <= 1
           linear     lambda_n = c n,  c > 0
           explicit   a finite strictly increasing list starting at 0
    """

    kind: str
    alpha: float | None = None
    c: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == HURWITZ:
            if self.alpha is None or not 0 < self.alpha <= 1:
                raise InvalidParameterError("hurwitz exponents need 0 < alpha <= 1")
        elif self.kind == LINEAR:
            if self.c is None or not 0 < self.c < math.inf:
                raise InvalidParameterError(f"linear exponents need a finite c > 0, got {self.c}")
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
            return np.asarray(self.values[:count])
        if self.kind == CLASSICAL:
            return np.log(np.arange(count) + 1.0)
        if self.kind == HURWITZ:
            return np.log(np.arange(count) + self.alpha) - math.log(self.alpha)
        return self.c * np.arange(count, dtype=float)  # linear


@dataclass(frozen=True, eq=False)
class DirichletSeries:
    exponents: ExponentSequence
    coefficients: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma):
            raise InvalidSeriesError(f"series 'sigma' must be finite, got {self.sigma}")
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
        if len(self) < 2:
            raise InvalidSeriesError("series has a single term, lambda_1 undefined")
        return float(self.exponents.lambdas(2)[1])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def classical_polynomial(coefficients, sigma: float = 0.5) -> DirichletSeries:
    """Finite classical series sum a_n (n+1)^-s with reference abscissa sigma."""
    return DirichletSeries(ExponentSequence.classical(), np.asarray(coefficients, dtype=complex), sigma)


def hurwitz_family(alpha: float, n_terms: int = 64) -> DirichletSeries:
    """The first ``n_terms`` terms of the unit-coefficient zeta family at the
    half-line normalization.

    Coefficients (alpha/(n+alpha))^(1/2) over exponents log(n+alpha) -
    log(alpha); the whole family at s is alpha^w zeta(w, alpha), w = s + 1/2,
    and the terms n >= ``n_terms`` it omits are alpha^w
    ``special.hurwitz_tail_sum(w, alpha, n_terms)``.
    """
    exponents = ExponentSequence.hurwitz(alpha)  # checks alpha before it is divided by
    if not isinstance(n_terms, (int, np.integer)) or n_terms < 1:
        raise InvalidParameterError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    coeffs = np.sqrt(alpha / (np.arange(n_terms) + alpha)).astype(complex)
    return DirichletSeries(exponents, coeffs, 0.5)


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


def l1_norm_at(series: DirichletSeries, sigma1: float) -> float:
    """sum |a_n| e^(-lambda_n sigma1) over the stored coefficient list."""
    return float(np.sum(np.abs(series.coefficients) * np.exp(-series.lambdas * sigma1)))


def _adjacent_sup(lam: np.ndarray, sigma: float) -> float:
    vals = np.exp(-sigma * (lam[:-1] + lam[1:])) / (lam[1:] - lam[:-1])
    return float(np.max(vals))


def separation_constant(series: DirichletSeries) -> float:
    """The sup of e^(-sigma(lambda_n + lambda_m)) / |lambda_n - lambda_m|.

    For sigma >= 0 the sup over all pairs of the truncation is attained on
    an adjacent pair: replacing m > n+1 by n+1 increases e^(-sigma lambda_m)
    and shrinks the gap, so only neighbours are scanned.  Explicit
    sequences with sigma < 0 fall back to the full pair scan.
    """
    n = len(series)
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
        if not (0 < self.c < math.inf and 0 < self.k < math.inf):
            raise InvalidParameterError(f"C and K must be finite and > 0, got {self.c}, {self.k}")
        if self.k > self.lambda1 * (1 + 1e-9) + 1e-12:
            raise InvalidParameterError(
                f"K = {self.k} exceeds lambda_1 = {self.lambda1}"
            )
        if self.sigma == 0 and self.k > 1.0 / self.c + 1e-12:
            raise InvalidParameterError("at sigma = 0, K must not exceed 1/C")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

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
        return DirichletSeries(series.exponents, coeffs / coeffs[0], series.sigma)
    lam = series.lambdas
    new_lam = tuple(float(v) for v in (lam[k:] - lam[k]))
    new_coeffs = coeffs[k:] / coeffs[k]
    return DirichletSeries(
        ExponentSequence.explicit(new_lam), new_coeffs, series.sigma
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def line_evaluator(series: DirichletSeries, sigma1: float) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator for points s on the vertical line Re(s) = sigma1.

    The returned function maps a complex array of points sigma1 + i t to the
    array of values L(s), of the same shape; points off the line are refused.
    The sum_n a_n e^(-lambda_n sigma1) e^(-i t lambda_n) goes through
    ``special._head_sum``: a 1-d evenly spaced grid of at least 128 points
    is one NUFFT, a 2-d array whose rows of 2 to 64 points are progressions
    of one step takes a phase table per row, and at any other array the
    terms of each point are added in index order exactly as a one-point sum
    would add them.
    """
    lam = series.lambdas
    weights = series.coefficients * np.exp(-lam * sigma1)

    def ev(s: np.ndarray) -> np.ndarray:
        return special._head_sum(1j * _ordinates(s, sigma1), lam, weights)

    return ev


def _ordinates(s, sigma1: float) -> np.ndarray:
    """Im s of the points s, refused unless every one lies on Re(s) = sigma1."""
    s = np.asarray(s, dtype=complex)
    if np.any(s.real != sigma1):
        raise InvalidParameterError(f"points off the line Re(s) = {sigma1}")
    return s.imag


def window_l2(series: DirichletSeries, sigma1: float, a: float, b: float) -> float:
    """int_a^b |L(sigma1 + i t)|^2 dt of a finite series, in closed form.

    With w_n = a_n e^(-lambda_n sigma1) the integral is the Hermitian form
    Re(w K w*), K_mn = int_a^b e^(-i t x) dt at x = lambda_m - lambda_n,
    written as (b - a) e^(-i (a + b) x / 2) sinc((b - a) x / 2): exact on
    the diagonal, and free of the cancellation of (e^(-i b x) - e^(-i a x))
    / (-i x) when two exponents nearly coincide.  The phase splits as
    e^(-i c lambda_m) e^(i c lambda_n), c = (a + b) / 2, and goes into the
    weights v_n = w_n e^(-i c lambda_n), which leaves the real symmetric
    sinc matrix S: the value is (b - a)(Re v . S Re v + Im v . S Im v).
    Its error is roundoff only.
    """
    for name, value in (("sigma1", sigma1), ("a", a), ("b", b)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"window_l2 {name!r} must be finite, got {value}")
    if not b > a:
        raise InvalidParameterError(f"window_l2 'b' must exceed 'a', got a = {a}, b = {b}")
    lam = series.lambdas
    v = series.coefficients * np.exp(-lam * sigma1 - 0.5j * (a + b) * lam)
    y = 0.5 * (b - a) * (lam[:, None] - lam[None, :])
    sinc = np.divide(np.sin(y), y, out=np.ones_like(y), where=y != 0.0)
    # summed elementwise: a matmul would wake BLAS and its buffers for a
    # form of a few hundred entries
    form = np.multiply.outer(v.real, v.real) + np.multiply.outer(v.imag, v.imag)
    return (b - a) * float(np.sum(sinc * form))


def classical_stack_evaluator(coefficients, sigma1: float) -> Callable[..., np.ndarray]:
    """Evaluator of K finite classical series at once, of any lengths, on
    the line Re(s) = sigma1: ``coefficients`` holds one coefficient list per
    series, as the rows of a (K, terms) array, each row summing all of its
    terms, or as a sequence of K 1-d arrays, each summing its own.

    The returned function ``ev(s, rows=None)`` maps points of shape (n,),
    shared by every series, or (K, n), row k for series k, to the (K, n)
    values, row k those of series k; given the int array ``rows`` of shape
    (m,), it maps (m, n) points, row j for series ``rows[j]``, to their
    (m, n) values.  Points off the line are refused.  Each row holds the
    bits of ``line_evaluator(classical_polynomial(coefficients[k]),
    sigma1)`` on a 1-d array of fewer than 128 points: ``special._head_sum``
    with one weight stack and the term count of each row, so that no row
    sums the zeros that fill it out to the longest series (they would change
    the pairwise summation), and rows of equal points share one exponential
    table.  No ``DirichletSeries`` is built.
    """
    if isinstance(coefficients, np.ndarray):  # every row sums every term
        coeffs, lengths = np.asarray(coefficients, dtype=complex), None
    else:
        series = [np.asarray(c, dtype=complex) for c in coefficients]
        lengths = np.array([c.size for c in series])
        coeffs = np.zeros((len(series), int(lengths.max())), dtype=complex)
        for k, c in enumerate(series):
            coeffs[k, :c.size] = c
    lam = ExponentSequence.classical().lambdas(coeffs.shape[1])
    weights = coeffs * np.exp(-lam * sigma1)

    def ev(s: np.ndarray, rows=None) -> np.ndarray:
        t = _ordinates(s, sigma1)
        if rows is None:
            t = np.broadcast_to(t, (len(weights), t.shape[-1]))
        return special._head_sum(1j * t, lam, weights, rows, lengths)

    return ev


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _finite(value, field: str) -> float:
    """A finite float from a JSON number, or an error naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSeriesError(f"series field {field!r} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int past the range
        raise InvalidSeriesError(f"series field {field!r} must be finite, got {value!r}")
    return float(value)


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
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of over 4300 digits
        raise InvalidSeriesError(f"series document is not valid JSON: {exc}") from exc
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
