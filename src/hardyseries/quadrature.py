"""Adaptive integration of |L|^p, log+/-|L|, and Poisson-weighted logs.

Evaluator contract: an evaluator maps a complex ndarray of points s on the
line Re s = sigma to the complex ndarray of values L(s), of the same shape
(``series.line_evaluator`` builds one).

Adaptive Simpson with the 15-fold Richardson acceptance test per panel, the
per-panel tolerance halved at each level, maximum depth 20 (where a failing
panel is accepted and the result flagged), and a hard cap of 2^20 panels
per integral.  One pass refines one or more integrals, each a list of
segments pre-split into equal base panels with its own tolerance:
``poisson_log_integral`` passes all of its octave segments as one
integral, ``integrate_log`` and ``integrate_abs_pow`` one segment, and
``integrate_stack`` many window integrals of a stacked evaluator, one
segment each, such as every log-, log+ and |L|^p integral of a
``log_bound_sweep``.  The base points of every segment go out together,
and one stack refines the panels depth-first in entries of at most 2048
panels of one depth.  Each panel is a column, beside it the index of its
integral (its owner), and a split panel's two children sit side by side,
so each integral's panels of one depth stay one run, in the order a pass
of that integral alone holds them.  An entry holds whole runs and cuts
them only where one integral alone holds more than 2048, into the pieces
a pass of that integral alone cuts.  Each panel keeps its segment's
tolerance share and its own depth, so every integral's panels are
accepted or split, in the same entries and order, as in a pass of that
integral alone, and ``np.bincount`` over the owners adds each integral's
accepted panels of an entry one at a time in column order, as that pass
adds them: each result is the bits of its integral's own pass, wherever
the integral stands in the pass and whichever integrals share it.  The
cap, the depth flag and the modulus-floor flag are each integral's own.
Within one integral, only the order in which panel values are summed
depends on its other segments and on the entry size.  Every point list
(base points, the two quarter points of each panel of an entry, the sup
grid) goes to the evaluator in one call; the evaluator bounds its own
memory.  An evaluator call costs tens of microseconds of fixed overhead
before its first exponential, so wide entries pay it per few thousand
points, not per few hundred, and a sweep of many short windows pays it
twice in all where a pass per integral paid it twice per integral.  On
the widest Poisson pass the 2^13-entry blocks of the per-point head sum
(``special._head_sum``) hold back most of the memory that wide entries
add: a traced peak of 1.05 MB, against 0.61 MB with entries of 512
panels.  With debug logging on, each pass logs one line: its integrals,
evaluator calls, panels tested, deepest depth and the integrals flagged
at the depth limit.

The integrands are analytic except for isolated log singularities at zeros of
L; there |L| itself stays continuous, so only the log needs a floor:
modulus below 1e-300 is clamped (log ~ -690.8, far below any bound of
interest) and the result is flagged.

``interval_sup`` samples a grid of ``grid_n + 1`` points in one call, then
zooms in on the running maximum in 4 rounds of one call of 33 evenly spaced
points each, every later window reaching one spacing of the round before
either side of the best sample: 1 + 4 calls per sup for every grid.  Each
value is a sampled |L|, so the result is a *lower* bound for the true
supremum, which is the sound direction for every inequality checked by this
package.  It also takes a stacked evaluator of K functions
(``series.classical_stack_evaluator`` builds one): points of shape (n,) or
(K, n) in, the (K, n) values out, row k those of function k.  Then it
returns the K sups from the same 1 + 4 calls, the grid shared by every row
and each zoom round a (K, 33) array of per-row windows, each spaced on its
own; no row's result depends on another row.  Rows whose grid maximum
reaches a given ``level`` are not refined.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, QuadratureError, check

__all__ = [
    "IntegralResult",
    "integrate_abs_pow",
    "integrate_log",
    "integrate_stack",
    "interval_sup",
    "poisson_log_integral",
]

logger = logging.getLogger(__name__)

_MODULUS_FLOOR = 1e-300
_MAX_DEPTH = 20
_PANEL_LIMIT = 2 ** 20
_BATCH_PANELS = 2048  # panels of one stack entry
# rows of a split's children, as (left, right) indices into the stacked
# (pa, m, pb, fa, flm, fm, frm, fb, left, right, ptol / 2) of its parents
_CHILD_ROWS = np.array([[0, 1], [1, 2], [3, 5], [4, 6], [5, 7], [8, 9], [10, 10]])
_ZOOM_ROUNDS = 4  # interval_sup refinement calls after the grid
_ZOOM_POINTS = 33  # points per refinement call
_ZOOM_STEPS = np.arange(float(_ZOOM_POINTS))  # j of a round's points j step + lo

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
    """t-array -> |L(sigma + i t)|, passing keywords such as a stacked
    evaluator's ``rows`` on."""
    return lambda t, **kw: np.abs(evaluator(sigma + 1j * t, **kw))


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _unit_panels(a: float, b: float) -> int:
    """Base panels on roughly the unit scale: the Simpson acceptance test can
    alias on panels holding many oscillation periods, and the Dirichlet
    frequencies in play are O(1).  Adaptivity then refines within panels."""
    return max(8, min(4096, int(math.ceil(b - a))))


def _integrate(f, segments):
    """Adaptive Simpson of one or more integrals of the integrand f, all
    refined in one pass.  Each segment ``(integral, a, b, tol, min_panels)``
    names its integral, an index 0, 1, ...: the segments of an integral
    are consecutive, and the integrals come in order.  ``f(t, owner)`` maps
    a t-array to the integrand values, the int array ``owner`` naming the
    integral of each t.  Returns one (value, error estimate, panel count =
    sum over its segments of 1 + number of splits, flagged at the depth
    limit) per integral.

    A segment starts as min_panels equal panels, each with the tolerance
    share tol (hi - lo) / (b - a), halved at each split.  Each panel is a
    column of ``panels``, and the same column of ``owner`` names its
    integral.  A split panel's two children sit side by side, so the
    panels of one integral and depth stay one run, in the order a pass of
    that integral alone holds them.  One stack holds the panels in entries
    of at most 2048 panels of one depth (``_push``).  The base points of
    every segment go to f in one call, and so do the quarter points of
    each entry.  So each integral's panels meet the same tests, in the
    same entries and the same order, as in a pass of that integral alone,
    and ``np.bincount`` adds its accepted values and corrections of each
    entry one at a time in column order, as that pass adds them: its
    result is the bits of its own pass.  The panel cap and the depth flag
    are each integral's own, so a pass raises exactly where one of its
    integrals alone would.  With debug logging on, each pass logs its
    integrals, evaluator calls, panels tested, deepest depth and the
    integrals flagged at the depth limit."""
    if not segments:
        return []
    ids, a, b, tol, n = (np.array(x) for x in zip(*segments))
    if ids[0] != 0 or not np.isin(np.diff(ids), (0, 1)).all():
        raise InvalidParameterError("segments must name integrals 0, 1, ... in order")
    k = int(ids[-1]) + 1
    seg = np.repeat(np.arange(n.size), n + 1)  # the segment of each edge
    j = np.arange(seg.size) - np.repeat(np.cumsum(n + 1) - n - 1, n + 1)
    # np.linspace(a, b, n + 1) of each segment: j (b - a) / n + a, the last b
    edges = np.where(j == n[seg], b[seg], j * ((b - a) / n)[seg] + a[seg])
    starts, ends = j < n[seg], j > 0  # the edges that start or end a panel
    lo, hi = edges[starts], edges[ends]
    owner = np.repeat(ids, n)
    # every edge, then every midpoint, in one call
    fs = f(np.concatenate([edges, 0.5 * (lo + hi)]), np.concatenate([ids[seg], owner]))
    fa, fb, fm = fs[:seg.size][starts], fs[:seg.size][ends], fs[seg.size:]
    # one column per panel: ends, f at the ends and midpoint, Simpson value,
    # tolerance
    panels = np.stack([lo, hi, fa, fm, fb, _simpson(fa, fm, fb, hi - lo),
                       np.repeat(tol, n) * (hi - lo) / np.repeat(b - a, n)])
    del seg, j, edges, starts, ends, lo, hi, fs, fa, fb, fm  # the entries view panels alone
    stack: list = []
    _push(stack, 0, panels, owner, copy=False)
    values, errs = np.zeros(k), np.zeros(k)
    counts = np.bincount(ids, minlength=k)  # segments, then 1 + splits, of each integral
    flagged = np.zeros(k, dtype=bool)
    calls = deepest = 0
    while stack:
        depth, (pa, pb, fa, fm, fb, whole, ptol), owner = stack.pop()
        calls, deepest = calls + 1, max(deepest, depth)
        m = 0.5 * (pa + pb)
        quarter = f(np.concatenate([0.5 * (pa + m), 0.5 * (m + pb)]),
                    np.concatenate([owner, owner]))
        flm, frm = quarter[:m.size], quarter[m.size:]
        left = _simpson(fa, flm, fm, m - pa)
        right = _simpson(fm, frm, fb, pb - m)
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * ptol
        if depth >= _MAX_DEPTH:
            flagged[owner[~done]] = True
            done[:] = True
        values += np.bincount(owner[done], (left + right + delta / 15.0)[done], k)
        errs += np.bincount(owner[done], np.abs(delta[done]) / 15.0, k)
        split = ~done
        counts += np.bincount(owner[split], minlength=k)
        if counts.max() > _PANEL_LIMIT:
            raise QuadratureError("adaptive Simpson exceeded the panel limit")
        if split.any():
            # the split columns of the 11 distinct rows, then each child row
            # as the (left, right) pair of each parent; assigned to strided
            # halves, as np.stack on a last axis copies one entry at a time
            parents = np.stack([pa, m, pb, fa, flm, fm, frm, fb, left, right,
                                ptol / 2.0])[:, split]
            children = np.empty((7, 2 * parents.shape[1]))
            children[:, 0::2] = parents[_CHILD_ROWS[:, 0]]
            children[:, 1::2] = parents[_CHILD_ROWS[:, 1]]
            _push(stack, depth + 1, children, np.repeat(owner[split], 2), True)
            del parents, children
        # released here, not when the next pass rebinds them after its f call
        del m, quarter, flm, frm, left, right, delta, done, split
    logger.debug("adaptive Simpson: %d integrals, %d evaluator calls, %d panels, depth %d, "
                 "%d flagged at the depth limit", k, calls + 1,
                 n.sum() + 2 * (counts.sum() - n.size), deepest, flagged.sum())
    return list(zip(values.tolist(), errs.tolist(), counts.tolist(), flagged.tolist()))


def _push(stack: list, depth: int, panels: np.ndarray, owner: np.ndarray, copy: bool) -> None:
    """Push the panels of one depth, column j that of integral ``owner[j]``
    and each integral's panels one run, as entries of at most 2048 panels,
    the first entry on top: whole runs side by side, and a run of more than
    2048 cut into pieces of 2048 from its start, each an entry of its own.
    With ``copy``, a cut entry is a copy, so that a waiting entry does not
    keep all of panels alive."""
    if owner.size <= _BATCH_PANELS:
        stack.append((depth, panels, owner))
        return
    starts = (np.flatnonzero(np.diff(owner)) + 1).tolist()
    cuts = [0]  # the first column of each entry, and repeats
    for lo, hi in zip([0, *starts], [*starts, owner.size]):
        if hi - cuts[-1] > _BATCH_PANELS:  # the run does not fit beside the entry's
            cuts.append(lo)
            if hi - lo > _BATCH_PANELS:
                cuts += [*range(lo + _BATCH_PANELS, hi, _BATCH_PANELS), hi]
    cuts.append(owner.size)
    stack.extend((depth, panels[:, a:b].copy() if copy else panels[:, a:b], owner[a:b])
                 for a, b in reversed(list(zip(cuts, cuts[1:]))) if a < b)


def integrate_abs_pow(
    evaluator: Evaluator,
    sigma: float,
    interval,
    p: float,
    tol: float,
) -> IntegralResult:
    """Adaptive value of int_a^b |L(sigma + i t)|^p dt."""
    # a float, so that no sign is taken for a power
    return _windows(evaluator, sigma, [(interval, float(p), tol)])[0]


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
    # a str, so that no power is taken for a sign
    return _windows(evaluator, sigma, [(interval, str(sign), tol)])[0]


def integrate_stack(evaluator, sigma: float, integrals) -> list[IntegralResult]:
    """Window integrals of the functions of a stacked evaluator, all refined
    in one adaptive pass: one ``IntegralResult`` per entry ``(row,
    interval, kind, tol)`` of ``integrals``, kind "plus" or "minus" for the
    integral of log+ or log- of |L_row| as ``integrate_log`` takes it, or a
    power p >= 1 (not a bool) for that of |L_row|^p as
    ``integrate_abs_pow`` takes it.  No integrals give no results.

    The evaluator maps (m, n) points with the int array ``rows`` of shape
    (m,) to the (m, n) values, row j those of function ``rows[j]``
    (``series.classical_stack_evaluator`` builds one); each call evaluates
    one point per row.  Each integral's panels are one run of the pass
    (``_integrate``), and the integrand is the one ``integrate_log`` and
    ``integrate_abs_pow`` use.  So where each row gives the bits of a
    one-function evaluator, result i is the bits of ``integrate_log`` or
    ``integrate_abs_pow`` of integral i alone with that evaluator, wherever
    it stands in ``integrals`` and whichever integrals share its pass, its
    modulus-floor flag included: a floor hit flags only its own integral.
    """
    rows = np.array([row for row, *_ in integrals], dtype=np.intp)
    return _windows(evaluator, sigma, [window for _, *window in integrals], rows)


def _windows(evaluator, sigma: float, integrals, rows=None) -> list[IntegralResult]:
    """One ``IntegralResult`` per window integral ``(interval, kind, tol)``,
    each checked, all refined in one pass of the ``_integrand`` of their
    kinds."""
    f, hit_floor = _integrand(evaluator, sigma, [kind for _, kind, _ in integrals], rows)
    segments = []
    for i, (interval, _, tol) in enumerate(integrals):
        a, b = (float(x) for x in interval)
        check("interval", b - a)
        segments.append((i, a, b, check("tol", tol), _unit_panels(a, b)))
    return [IntegralResult(value, err, count, flagged=flagged or bool(hit))
            for (value, err, count, flagged), hit in zip(_integrate(f, segments), hit_floor)]


def _integrand(evaluator, sigma: float, kinds, rows=None):
    """The integrand ``f(t, owner)`` of integrals of the given kinds, and the
    bool array that marks each integral whose log hit the modulus floor.
    A kind is "plus" or "minus", for log+|L| or log-|L| = max(0, -log|L|)
    with |L| floored at 1e-300, or a power p >= 1, not a bool, for |L|^p.
    At each t, L is the evaluator's function, or with ``rows``, that of the
    row ``rows[owner]`` of a stacked evaluator, one point per row."""
    for kind in kinds:
        if isinstance(kind, (str, bool, np.bool_)):
            if kind not in ("plus", "minus"):
                raise InvalidParameterError(f"sign must be 'plus' or 'minus', got {kind!r}")
        else:
            check("p", kind, 1.0, inclusive=True)
    modulus = _modulus(evaluator, sigma)
    logs = np.array([isinstance(kind, str) for kind in kinds])
    sign = np.array([-1.0 if kind == "minus" else 1.0 for kind in kinds])
    # each power p and the integrals of |L|^p
    powers = {p: np.array([kind == p for kind in kinds]) for p in kinds if not isinstance(p, str)}
    hit_floor = np.zeros(len(kinds), dtype=bool)

    def f(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        mod = modulus(t) if rows is None else modulus(t[:, None], rows=rows[owner])[:, 0]
        floor = mod < _MODULUS_FLOOR
        if floor.any():
            hit_floor[owner[floor & logs[owner]]] = True
        # log+ and log-, the product by -1 being exact
        out = np.maximum(0.0, np.log(np.maximum(mod, _MODULUS_FLOOR)) * sign[owner])
        for p, of_p in powers.items():
            sel = of_p[owner]
            if sel.any():
                out[sel] = mod[sel] ** p
        return out

    return f, hit_floor


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

    ``error_estimate`` is Simpson's own estimate, the sum of the accepted
    panels' |Richardson corrections|, and not a bound: a far-octave panel
    holds many periods of |L| and can alias, pass the acceptance test and
    still be wrong by more than its share.  On 1 + w 2^-s, |w| = 2/3, at
    sigma = 1/2 and tol 1e-5, the D = 10 log+ value is 1.5e-4 off the exact
    one while the estimate reads 2e-6.
    """
    check("d", d)
    tol = check("tol", tol)
    check("l1_norm", l1_norm, inclusive=True)
    if minus_tail_bound is not None:
        check("minus_tail_bound", minus_tail_bound, -math.inf)
    log_part, hit_floor = _integrand(evaluator, sigma, [str(sign)])
    if sign == "minus" and minus_tail_bound is None:
        raise InvalidParameterError(
            "minus sign needs minus_tail_bound (an anchor-based total bound)"
        )

    def f(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return d / math.pi * log_part(t, owner) / (d * d + t * t)

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
        segments += [(0, lo, hi, seg_tol, base), (0, -hi, -lo, seg_tol, base)]
    ((value, err, subdivisions, flagged),) = _integrate(f, segments)
    if sign == "minus":
        tail = max(0.0, minus_tail_bound - value)
    return IntegralResult(
        value, err, subdivisions, truncation_tail=tail,
        flagged=flagged or hit_floor[0],
    )


def _top(values: np.ndarray, ts: np.ndarray):
    """The entry at the argmax along the last axis of the (n,) or (K, n)
    ``values`` (their maximum, or their first nan) and its point of ``ts``,
    of the same shape or one (n,) row for all."""
    j = np.argmax(values, axis=-1)
    at = j if values.ndim == 1 else (np.arange(j.size), j)
    return values[at], ts[at] if ts.ndim == values.ndim else ts[j]


def interval_sup(
    evaluator: Evaluator,
    sigma: float,
    interval,
    grid_n: int = 64,
    level: float | None = None,
) -> float | np.ndarray:
    """Grid maximum of |L(sigma+it)| on [a, b], refined around the argmax.

    The grid of ``grid_n + 1`` points goes to the evaluator in one call.
    Then 4 zoom rounds each sample 33 evenly spaced points of [best_t - w,
    best_t + w], clipped to [a, b], in one call; w starts at the grid step
    h and shrinks 16-fold per round, to one spacing of the round before, so
    the last spacing is h / 2^16: 1 + 4 calls per sup for every grid.  The
    best value changes only when a sample beats it: the result is at least
    the grid maximum and, being a sampled value, a lower bound for the true
    supremum.  A float for an evaluator of the module contract.

    A round's window [lo, hi] is sampled at j step + lo, j < 32, step =
    (hi - lo) / 32, and at hi: the points of ``np.linspace(lo, hi, 33)``
    whenever the step is not 0.

    A stacked evaluator, which maps points of shape (n,) or (K, n) to the
    (K, n) values of K functions, row k those of function k, gives the (K,)
    array of their sups in the same 1 + 4 calls: the grid goes out as one
    (n,) array, and each zoom round as a (K, 33) array of per-row windows,
    each with its own step.  Entry k is the bits of the sup of function k
    alone.

    Given a ``level``, a function whose grid maximum reaches it is returned
    as that maximum, unrefined (refining never lowers a sup); the rows of a
    stacked evaluator below it zoom as an (m, 33) array, named by ``rows``.
    """
    a, b = (float(x) for x in interval)
    check("interval", b - a)
    check("grid_n", grid_n, 16.0, inclusive=True)
    modulus = _modulus(evaluator, sigma)
    h = (b - a) / grid_n
    ts = a + np.arange(grid_n + 1) * h
    best, best_t = _top(modulus(ts), ts)
    if level is None:
        return _zoom(modulus, (a, b), h, best, best_t)
    if best.ndim == 0:
        return float(best) if best >= level else _zoom(modulus, (a, b), h, best, best_t)
    live = np.flatnonzero(~(best >= level))  # below the level, or nan
    if live.size:
        best[live] = _zoom(lambda t: modulus(t, rows=live), (a, b), h, best[live],
                           best_t[live])
    return best


def _zoom(modulus, interval, h: float, best, best_t) -> float | np.ndarray:
    """The 4 zoom rounds of ``interval_sup`` from the grid maximum ``best`` at
    ``best_t`` (one value, or one per row) and the grid step h."""
    a, b = interval
    w = h
    for _ in range(_ZOOM_ROUNDS):
        lo, hi = np.maximum(a, best_t - w), np.minimum(b, best_t + w)
        # np.linspace's points j step + lo, the last one hi, for each row
        ts = np.multiply.outer((hi - lo) / (_ZOOM_POINTS - 1), _ZOOM_STEPS)
        ts += lo[..., None]
        ts[..., -1] = hi
        top, top_t = _top(modulus(ts), ts)
        better = top > best
        best = np.where(better, top, best)
        best_t = np.where(better, top_t, best_t)
        w /= (_ZOOM_POINTS - 1) // 2
    return float(best) if best.ndim == 0 else best
