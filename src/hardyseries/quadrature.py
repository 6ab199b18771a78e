"""Adaptive integration of |L|^p, log+/-|L|, and Poisson-weighted logs.

Evaluator contract: an evaluator maps a complex ndarray of points s on the
line Re s = sigma to the complex ndarray of values L(s), of the same shape
(``series.line_evaluator`` builds one).

Adaptive Simpson with the 15-fold Richardson acceptance test per panel, the
per-panel tolerance halved at each level, maximum depth 20 (where a failing
panel is accepted and the result flagged), and a hard cap of 2^20 panels.
Panels are refined depth-first in batches of at most 256, so one evaluator
call gets the two quarter points of each panel of a batch, at most 512
points; longer point lists (base pre-split, sup grid) go in calls of 512.

The integrands are analytic except for isolated log singularities at zeros of
L; there |L| itself stays continuous, so only the log needs a floor:
modulus below 1e-300 is clamped (log ~ -690.8, far below any bound of
interest) and the result is flagged.

``interval_sup`` samples a grid of ``grid_n + 1`` points (one call, or calls
of 512), then zooms in on the running maximum in 4 rounds of one call of 33
evenly spaced points each, every later window reaching one spacing of the
round before either side of the best sample: 1 + 4 calls per sup for grids
of up to 512 points.  Each value is a sampled |L|, so the result is a
*lower* bound for the true supremum, which is the sound direction for
every inequality checked by this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, QuadratureError

__all__ = [
    "IntegralResult",
    "integrate_abs_pow",
    "integrate_log",
    "interval_sup",
    "poisson_log_integral",
]

_MODULUS_FLOOR = 1e-300
_MAX_DEPTH = 20
_PANEL_LIMIT = 2 ** 20
_BATCH_PANELS = 256  # panels refined per evaluator call
_BATCH_POINTS = 2 * _BATCH_PANELS  # points per evaluator call, at most
_ZOOM_ROUNDS = 4  # interval_sup refinement calls after the grid
_ZOOM_POINTS = 33  # points per refinement call

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    subdivisions: int
    truncation_tail: float = 0.0
    flagged: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.error_estimate):
            raise QuadratureError("non-finite error estimate")


def _modulus(evaluator: Evaluator, sigma: float):
    """t-array -> |L(sigma + i t)|."""
    return lambda t: np.abs(evaluator(sigma + 1j * t))


def _sample(f, ts: np.ndarray) -> np.ndarray:
    """f on the ordinates ts, in calls of at most 512 points."""
    return np.concatenate(
        [f(ts[lo:lo + _BATCH_POINTS]) for lo in range(0, ts.size, _BATCH_POINTS)]
    )


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _integrate(f, a: float, b: float, tol: float, min_panels: int | None = None):
    """Adaptive Simpson of the t-array integrand f over [a, b]: (value,
    error estimate, panel count = 1 + number of splits, flagged)."""
    # Pre-split on roughly the unit scale: the Simpson acceptance test can
    # alias on panels holding many oscillation periods, and the Dirichlet
    # frequencies in play are O(1).  Adaptivity then refines within panels.
    if min_panels is None:
        min_panels = max(8, min(4096, int(math.ceil(b - a))))
    edges = np.linspace(a, b, min_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    fs = _sample(f, np.concatenate([edges, 0.5 * (lo + hi)]))
    fa, fm, fb = fs[:min_panels], fs[min_panels + 1:], fs[1:min_panels + 1]
    # one column per panel: ends, f at the ends and midpoint, Simpson value,
    # tolerance
    panels = np.stack([lo, hi, fa, fm, fb, _simpson(fa, fm, fb, hi - lo),
                       tol * (hi - lo) / (b - a)])
    stack = [(0, panels[:, i:i + _BATCH_PANELS])
             for i in reversed(range(0, min_panels, _BATCH_PANELS))]
    value = err = 0.0
    count, flagged = 1, False
    while stack:
        depth, (pa, pb, fa, fm, fb, whole, ptol) = stack.pop()
        m = 0.5 * (pa + pb)
        quarter = f(np.concatenate([0.5 * (pa + m), 0.5 * (m + pb)]))
        flm, frm = quarter[:m.size], quarter[m.size:]
        left = _simpson(fa, flm, fm, m - pa)
        right = _simpson(fm, frm, fb, pb - m)
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * ptol
        if depth >= _MAX_DEPTH:
            flagged = flagged or not done.all()
            done[:] = True
        value += float(np.sum((left + right + delta / 15.0)[done]))
        err += float(np.sum(np.abs(delta[done]) / 15.0))
        split = ~done
        count += int(np.count_nonzero(split))
        if count > _PANEL_LIMIT:
            raise QuadratureError("adaptive Simpson exceeded the panel limit")
        halves = np.concatenate([
            np.stack([pa, m, fa, flm, fm, left, ptol / 2.0])[:, split],
            np.stack([m, pb, fm, frm, fb, right, ptol / 2.0])[:, split],
        ], axis=1)
        stack.extend((depth + 1, halves[:, i:i + _BATCH_PANELS])
                     for i in reversed(range(0, halves.shape[1], _BATCH_PANELS)))
    return value, err, count, flagged


def _check_interval(interval, tol: float) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise InvalidParameterError("integration interval must satisfy b > a")
    if tol <= 0:
        raise InvalidParameterError("tolerance must be positive")
    return a, b


def integrate_abs_pow(
    evaluator: Evaluator,
    sigma: float,
    interval,
    p: float,
    tol: float,
) -> IntegralResult:
    """Adaptive value of int_a^b |L(sigma + i t)|^p dt."""
    a, b = _check_interval(interval, tol)
    if p < 1:
        raise InvalidParameterError("p must be >= 1")
    modulus = _modulus(evaluator, sigma)
    value, err, count, flagged = _integrate(lambda t: modulus(t) ** p, a, b, tol)
    return IntegralResult(value, err, count, flagged=flagged)


def _log_integrand(evaluator: Evaluator, sigma: float, sign: str):
    """t-array -> log+|L| or log-|L| = max(0, -log|L|), the modulus floored at
    1e-300; the returned one-element list turns True once the floor is hit."""
    if sign not in ("plus", "minus"):
        raise InvalidParameterError("sign must be 'plus' or 'minus'")
    modulus = _modulus(evaluator, sigma)
    hit_floor = [False]

    def f(t: np.ndarray) -> np.ndarray:
        mod = modulus(t)
        if np.any(mod < _MODULUS_FLOOR):
            hit_floor[0] = True
        lg = np.log(np.maximum(mod, _MODULUS_FLOOR))
        return np.maximum(0.0, lg if sign == "plus" else -lg)

    return f, hit_floor


def integrate_log(
    evaluator: Evaluator,
    sigma: float,
    interval,
    sign: str,
    tol: float,
) -> IntegralResult:
    """Adaptive value of int_a^b log+|L| dt or int_a^b log-|L| dt.

    Both integrands are non-negative; log- = max(0, -log|L|).  Panels that
    sample a modulus below the 1e-300 floor contribute through the clamped
    value (<= panel_width * 690.8) and mark the result as flagged.
    """
    a, b = _check_interval(interval, tol)
    f, hit_floor = _log_integrand(evaluator, sigma, sign)
    value, err, count, flagged = _integrate(f, a, b, tol)
    return IntegralResult(value, err, count, flagged=flagged or hit_floor[0])


def poisson_log_integral(
    evaluator: Evaluator,
    sigma: float,
    d: float,
    sign: str,
    tol: float,
    l1_norm: float,
    minus_tail_bound: float | None = None,
) -> IntegralResult:
    """(D/pi) int_R log+-|L(sigma+it)| / (D^2 + t^2) dt, adaptively truncated.

    The kernel integrates to one.  For the plus sign the tail beyond
    [-T, T] is bounded by log+(l1_norm) (1 - (2/pi) arctan(T/D)) and T
    grows until that is below tol/2.  For the minus sign the caller must
    supply ``minus_tail_bound``, an upper bound for the *whole* weighted
    log- integral (the anchor bounds produce one); the tail is then at most
    that bound minus the computed symmetric part, floored at zero.
    """
    if d <= 0:
        raise InvalidParameterError("D must be positive")
    if tol <= 0:
        raise InvalidParameterError("tolerance must be positive")
    log_part, hit_floor = _log_integrand(evaluator, sigma, sign)
    if sign == "minus" and minus_tail_bound is None:
        raise InvalidParameterError(
            "minus sign needs minus_tail_bound (an anchor-based total bound)"
        )

    def f(t: np.ndarray) -> np.ndarray:
        return d / math.pi * log_part(t) / (d * d + t * t)

    log_plus_norm = max(0.0, math.log(l1_norm)) if l1_norm > 0 else 0.0
    t_max = 8.0 * d
    if sign == "plus":
        # grow T until the pointwise bound log+ ||L||_1 closes the tail
        for _ in range(60):
            tail = log_plus_norm * (1.0 - 2.0 / math.pi * math.atan(t_max / d))
            if tail <= tol / 2.0 or log_plus_norm == 0.0:
                break
            t_max *= 2.0
        else:
            raise QuadratureError("plus-sign Poisson tail does not close")
        tail = log_plus_norm * (1.0 - 2.0 / math.pi * math.atan(t_max / d))
    value = 0.0
    err = 0.0
    subdivisions = 0
    flagged = False
    # symmetric octave panels: the kernel varies boundedly on each, so the
    # depth-limited refinement resolves even a very distant truncation point
    cuts = [0.0, 0.5 * d]
    while cuts[-1] < t_max:
        cuts.append(min(2.0 * cuts[-1], t_max))
    for lo, hi in zip(cuts, cuts[1:]):
        # resolution proportional to the segment's share of the kernel mass:
        # distant octaves contribute O(D/T) and need few base panels
        mass = (math.atan(hi / d) - math.atan(lo / d)) / math.pi
        base = max(8, min(512, int(math.ceil(hi - lo)), int(math.ceil(3000.0 * mass))))
        for seg in ((lo, hi), (-hi, -lo)):
            v, e, count, seg_flagged = _integrate(
                f, seg[0], seg[1], tol / (2 * len(cuts)), min_panels=base
            )
            value += v
            err += e
            subdivisions += count
            flagged = flagged or seg_flagged
    if sign == "minus":
        tail = max(0.0, minus_tail_bound - value)
    return IntegralResult(
        value, err, subdivisions, truncation_tail=tail,
        flagged=flagged or hit_floor[0],
    )


def interval_sup(
    evaluator: Evaluator,
    sigma: float,
    interval,
    grid_n: int = 64,
) -> float:
    """Grid maximum of |L(sigma+it)| on [a, b], refined around the argmax.

    The grid of ``grid_n + 1`` points goes to the evaluator in one call
    (calls of 512 for larger grids).  Then 4 zoom rounds each sample 33
    evenly spaced points of [best_t - w, best_t + w], clipped to [a, b], in
    one call; w starts at the grid step h and shrinks 16-fold per round, to
    one spacing of the round before, so the last spacing is h / 2^16.  The
    best value changes only when a sample beats it: the result is at least
    the grid maximum and, being a sampled value, a lower bound for the true
    supremum.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise InvalidParameterError("interval must satisfy b > a")
    if grid_n < 16:
        raise InvalidParameterError("grid_n must be >= 16")
    modulus = _modulus(evaluator, sigma)
    h = (b - a) / grid_n
    grid = _sample(modulus, a + np.arange(grid_n + 1) * h)
    k = int(np.argmax(grid))
    best_t, best = a + k * h, float(grid[k])
    w = h
    for _ in range(_ZOOM_ROUNDS):
        ts = np.linspace(max(a, best_t - w), min(b, best_t + w), _ZOOM_POINTS)
        values = modulus(ts)
        j = int(np.argmax(values))
        if values[j] > best:
            best, best_t = float(values[j]), float(ts[j])
        w /= (_ZOOM_POINTS - 1) // 2
    return best
