"""Adaptive integration of |L|^p, log+/-|L|, and Poisson-weighted logs.

Evaluator contract: an evaluator maps a complex ndarray of points s on the
line Re s = sigma to the complex ndarray of values L(s), of the same shape
(``series.line_evaluator`` builds one).

Adaptive Simpson with the 15-fold Richardson acceptance test per panel, the
per-panel tolerance halved at each level, maximum depth 20 (where a failing
panel is accepted and the result flagged), and a hard cap of 2^20 panels
per pass.  One pass integrates a list of segments, each pre-split into equal
base panels with its own tolerance; ``poisson_log_integral`` passes all of
its octave segments at once, the other integrals one segment.  The base
points of every segment go out together, and one stack refines the panels
of every segment depth-first in entries of at most 512 panels, so the cap
counts the splits of the whole pass.  Each panel keeps its segment's
tolerance share and its own depth, so it is accepted or split as in a pass
of its segment alone; only the order in which panel values are summed
depends on the other segments.  Every point list (base points, the two
quarter points of each panel of an entry, the sup grid) goes to the
evaluator in calls of at most 512 points.

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
every inequality checked by this package.  It also takes a stacked
evaluator of K functions (``series.classical_stack_evaluator`` builds one):
points of shape (n,) or (K, n) in, the (K, n) values out, row k those of
function k.  Then it returns the K sups from the same 1 + 4 calls, the grid
shared by every row and each zoom round a (K, 33) array of per-row
windows; no row's result depends on another row.
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
_BATCH_PANELS = 512  # panels of one stack entry
_BATCH_POINTS = 512  # points per evaluator call, at most
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
    """f on the ordinates ts, in calls of at most 512 points, joined along
    the last axis of f's values."""
    if ts.size <= _BATCH_POINTS:
        return f(ts)
    return np.concatenate(
        [f(ts[lo:lo + _BATCH_POINTS]) for lo in range(0, ts.size, _BATCH_POINTS)],
        axis=-1)


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _unit_panels(a: float, b: float) -> int:
    """Base panels on roughly the unit scale: the Simpson acceptance test can
    alias on panels holding many oscillation periods, and the Dirichlet
    frequencies in play are O(1).  Adaptivity then refines within panels."""
    return max(8, min(4096, int(math.ceil(b - a))))


def _integrate(f, segments):
    """Adaptive Simpson of the t-array integrand f over the segments
    ``(a, b, tol, min_panels)``, all refined in one pass: (value and error
    estimate summed over the segments, panel count = sum over the segments
    of 1 + number of splits, flagged).

    A segment starts as min_panels equal panels, each with the tolerance
    share tol (hi - lo) / (b - a), halved at each split.  One stack holds
    the panels of every segment in entries of at most 512, the panels of an
    entry at one depth; the quarter points of an entry go to f in calls of
    at most 512 points."""
    edges = [np.linspace(a, b, n + 1) for a, b, _, n in segments]
    # each segment's n + 1 edges, then its n midpoints, in one sampling
    fs = _sample(f, np.concatenate([x for e in edges for x in (e, 0.5 * (e[:-1] + e[1:]))]))
    columns = []
    for (a, b, tol, n), e in zip(segments, edges):
        lo, hi = e[:-1], e[1:]
        fa, fb, fm, fs = fs[:n], fs[1:n + 1], fs[n + 1:2 * n + 1], fs[2 * n + 1:]
        # one column per panel: ends, f at the ends and midpoint, Simpson
        # value, tolerance
        columns.append(np.stack([lo, hi, fa, fm, fb, _simpson(fa, fm, fb, hi - lo),
                                 tol * (hi - lo) / (b - a)]))
    panels = np.concatenate(columns, axis=1)
    stack = [(0, panels[:, i:i + _BATCH_PANELS])
             for i in reversed(range(0, panels.shape[1], _BATCH_PANELS))]
    value = err = 0.0
    count, flagged = len(segments), False
    while stack:
        depth, (pa, pb, fa, fm, fb, whole, ptol) = stack.pop()
        m = 0.5 * (pa + pb)
        quarter = _sample(f, np.concatenate([0.5 * (pa + m), 0.5 * (m + pb)]))
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
        if halves.shape[1] > _BATCH_PANELS:
            # copies, so that a waiting entry does not keep all of halves alive
            stack.extend((depth + 1, halves[:, i:i + _BATCH_PANELS].copy())
                         for i in reversed(range(0, halves.shape[1], _BATCH_PANELS)))
        elif halves.size:
            stack.append((depth + 1, halves))
    return value, err, count, flagged


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _check_tol(tol) -> float:
    tol = _finite("tol", tol)
    if not tol > 0:
        raise InvalidParameterError(f"tol must be positive, got {tol!r}")
    return tol


def _check_interval(interval) -> tuple[float, float]:
    a, b = _finite("interval", interval[0]), _finite("interval", interval[1])
    if not b > a:
        raise InvalidParameterError("interval must satisfy b > a")
    return a, b


def integrate_abs_pow(
    evaluator: Evaluator,
    sigma: float,
    interval,
    p: float,
    tol: float,
) -> IntegralResult:
    """Adaptive value of int_a^b |L(sigma + i t)|^p dt."""
    a, b = _check_interval(interval)
    tol = _check_tol(tol)
    if not _finite("p", p) >= 1:
        raise InvalidParameterError("p must be >= 1")
    modulus = _modulus(evaluator, sigma)
    value, err, count, flagged = _integrate(lambda t: modulus(t) ** p,
                                            [(a, b, tol, _unit_panels(a, b))])
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
    a, b = _check_interval(interval)
    tol = _check_tol(tol)
    f, hit_floor = _log_integrand(evaluator, sigma, sign)
    value, err, count, flagged = _integrate(f, [(a, b, tol, _unit_panels(a, b))])
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
    grows from 8D by doubling until that is below tol/2.  For the minus
    sign the caller must supply ``minus_tail_bound``, an upper bound for the
    *whole* weighted log- integral (the anchor bounds produce one); the tail
    is then at most that bound minus the computed symmetric part, floored at
    zero.  ``d``, ``tol``, ``l1_norm`` (>= 0; 0 is the zero series) and a
    given ``minus_tail_bound`` must be finite.

    [-T, T] is cut at 0, +-D/2 and the octaves +-(D/2) 2^k, the last one
    ending at +-T.  Each of these 2K segments gets tolerance tol / (2(K + 1))
    and base panels in proportion to its share of the kernel mass, and all
    of them are refined in one adaptive pass: ``subdivisions`` is the sum
    over the segments of 1 + splits, and the 2^20 panel cap counts the
    whole pass.
    """
    if not _finite("d", d) > 0:
        raise InvalidParameterError(f"d must be positive, got {d!r}")
    tol = _check_tol(tol)
    if not _finite("l1_norm", l1_norm) >= 0:
        raise InvalidParameterError(f"l1_norm must be >= 0, got {l1_norm!r}")
    if minus_tail_bound is not None:
        _finite("minus_tail_bound", minus_tail_bound)
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
    # symmetric octave panels: the kernel varies boundedly on each, so the
    # depth-limited refinement resolves even a very distant truncation point
    cuts = [0.0, 0.5 * d]
    while cuts[-1] < t_max:
        cuts.append(min(2.0 * cuts[-1], t_max))
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        # resolution proportional to the segment's share of the kernel mass:
        # distant octaves contribute O(D/T) and need few base panels
        mass = (math.atan(hi / d) - math.atan(lo / d)) / math.pi
        base = max(8, min(512, int(math.ceil(hi - lo)), int(math.ceil(3000.0 * mass))))
        seg_tol = tol / (2 * len(cuts))
        segments += [(lo, hi, seg_tol, base), (-hi, -lo, seg_tol, base)]
    value, err, subdivisions, flagged = _integrate(f, segments)
    if sign == "minus":
        tail = max(0.0, minus_tail_bound - value)
    return IntegralResult(
        value, err, subdivisions, truncation_tail=tail,
        flagged=flagged or hit_floor[0],
    )


def _zoom_windows(lo, hi) -> np.ndarray:
    """33 evenly spaced ordinates from each lo to its hi, in a trailing axis:
    ``np.linspace(lo, hi, 33)`` for each pair on its own, with its formula."""
    div = _ZOOM_POINTS - 1
    lo, hi = lo[..., None], hi[..., None]
    y = np.arange(_ZOOM_POINTS, dtype=float)
    step = (hi - lo) / div
    # linspace's branch for a step that underflows to 0, taken per window
    ts = np.where(step == 0, y / div * (hi - lo), y * step) + lo
    ts[..., -1] = hi[..., 0]
    return ts


def interval_sup(
    evaluator: Evaluator,
    sigma: float,
    interval,
    grid_n: int = 64,
) -> float | np.ndarray:
    """Grid maximum of |L(sigma+it)| on [a, b], refined around the argmax.

    The grid of ``grid_n + 1`` points goes to the evaluator in one call
    (calls of 512 for larger grids).  Then 4 zoom rounds each sample 33
    evenly spaced points of [best_t - w, best_t + w], clipped to [a, b], in
    one call; w starts at the grid step h and shrinks 16-fold per round, to
    one spacing of the round before, so the last spacing is h / 2^16.  The
    best value changes only when a sample beats it: the result is at least
    the grid maximum and, being a sampled value, a lower bound for the true
    supremum.  A float for an evaluator of the module contract.

    A stacked evaluator, which maps points of shape (n,) or (K, n) to the
    (K, n) values of K functions, row k those of function k, gives the (K,)
    array of their sups in the same 1 + 4 calls: the grid goes out as one
    (n,) array, and each zoom round as a (K, 33) array of per-row windows.
    Entry k is the bits of the sup of function k alone.
    """
    a, b = _check_interval(interval)
    if grid_n < 16:
        raise InvalidParameterError("grid_n must be >= 16")
    modulus = _modulus(evaluator, sigma)
    h = (b - a) / grid_n
    grid = _sample(modulus, a + np.arange(grid_n + 1) * h)
    # max along the last axis is the entry at argmax, a nan included
    best_t, best = a + np.argmax(grid, axis=-1) * h, np.max(grid, axis=-1)
    w = h
    for _ in range(_ZOOM_ROUNDS):
        ts = _zoom_windows(np.maximum(a, best_t - w), np.minimum(b, best_t + w))
        values = modulus(ts)
        j = np.argmax(values, axis=-1)[..., None]
        top = np.max(values, axis=-1)
        better = top > best
        best = np.where(better, top, best)
        best_t = np.where(better, np.take_along_axis(ts, j, axis=-1)[..., 0], best_t)
        w /= (_ZOOM_POINTS - 1) // 2
    return float(best) if best.ndim == 0 else best
