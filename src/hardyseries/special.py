"""Reference special-function evaluators.

Everything downstream that needs a zeta value gets it from here:

* ``lambert_w0``      principal branch of w -> w e^w on [0, inf)
* ``riemann_zeta``    Euler-Maclaurin, Re(s) > 0, s != 1
* ``hurwitz_zeta``    Euler-Maclaurin for sum (n+alpha)^-s, 0 < alpha <= 1
* ``lerch_phi``       sum e^(2 pi i n alpha) (n+beta)^-s, Re(s) >= 1
* ``kappa_constants`` the named constants used by the weighted log bounds

The Euler-Maclaurin remainder after M = 14 Bernoulli terms with cutoff N is
enveloped by the first omitted term times |s + 2M + 1| / (sigma + 2M + 1).
That bound is C (N + alpha)^-(sigma + 2M + 1), so the cutoff N is picked
from it, as the smallest N >= 16 that meets the tolerance, before any term
is summed; every returned value carries that error budget.  Bernoulli
numbers B_2 .. B_60 are generated exactly once at import time from the
integer recurrence.

The array evaluators (``hurwitz_tail_sum``, ``hurwitz_zeta_grid`` and
``lerch_phi``) take one complex s or an array of points on one vertical
line, and refuse points off it.  Every bound grows with |t| at fixed sigma,
so one cutoff, sized at the largest |Im s|, serves the whole array: the
Euler-Maclaurin N, and for twisted sums the Abel-summation plan (N, K),
where N is the smallest cutoff >= 64 whose truncation + roundoff bound
meets the tolerance.  Every Euler-Maclaurin value (``hurwitz_zeta``,
``hurwitz_tail_sum``, ``hurwitz_zeta_grid`` and ``lerch_phi`` at twist 1)
enters the kernel through one checked call, ``_em_sum``: it refuses
non-finite points, points off one line, alpha outside (0, 1] and
Re s <= 0, raises the one PoleError at s = 1, sizes the cutoff, and gives
an empty array for an empty one.

Every finite exponential sum sum_n w_n e^(-s x_n) of the package goes
through one kernel, ``_head_sum``: the zeta heads (x_n = log(n + alpha);
for Lerch, the weight w_n = e^(2 pi i n alpha)), the head of
``series.line_evaluator`` and the edge layers of ``mollifier.bump_hat``.
Rows of points whose ordinates lie within 8 ulp of max|t| of progressions
t_b + r h with one step h are summed by einsum: the anchor rows
w_n e^(-s_b x_n) times an R x N phase table e^(-i r h x_n), so a term's
phase moves by at most 16 ulp(T) max x_n and the bits never depend on
BLAS.  The rows of a 2-d array count when at least 2 long, such as the 9
nodes of each scan window (R = 9); a 1-d array counts as one row of at
least 128 points.  Rows longer than 64 are cut into runs of R = 64.  Every
other array takes one complex exp per (point, term), each row summed in
term order; so does a (K, terms) weight stack, one weight row per row of
points, where rows of equal points share their exponentials.
"""

from __future__ import annotations

import cmath
import logging
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidParameterError,
    PoleError,
    PrecisionError,
)

__all__ = [
    "BERNOULLI_B2K",
    "KappaConstants",
    "bernoulli_b2k",
    "hurwitz_zeta",
    "hurwitz_zeta_grid",
    "kappa_constants",
    "lambert_w0",
    "lerch_phi",
    "riemann_zeta",
]

logger = logging.getLogger(__name__)

_MAX_BERNOULLI_TERMS = 30  # B_2 through B_60
_EM_TERMS = 14  # Bernoulli corrections M in every Euler-Maclaurin closure
_MIN_CUTOFF = 16
_MAX_CUTOFF = 2 ** 21
_HEAD_BLOCK = 1 << 16  # head-sum matrix entries per block (points x terms), 1 MiB
_PHASE_ROWS = 64  # phase-matrix head sum: most points per run, runs per anchor block
_PHASE_TERMS = 4096  # terms per piece of the phase-matrix head sum, E at 4 MiB
_LERCH_MIN_CUTOFF = 64
_LERCH_ORDERS = (16, 12, 8, 5, 3, 2)  # Abel difference orders K, tried in turn


def _bernoulli_even() -> tuple[float, ...]:
    # B_m via sum_{j<m} C(m+1, j) B_j = -(m+1) B_m, exact rational arithmetic.
    bs = [Fraction(1)]
    for m in range(1, 2 * _MAX_BERNOULLI_TERMS + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return tuple(float(bs[2 * k]) for k in range(1, _MAX_BERNOULLI_TERMS + 1))


BERNOULLI_B2K: tuple[float, ...] = _bernoulli_even()

# B_2k / (2k)! precomputed alongside, used in every Euler-Maclaurin sum.
_B2K_OVER_FACT: np.ndarray = np.array([
    BERNOULLI_B2K[k - 1] / math.factorial(2 * k)
    for k in range(1, _MAX_BERNOULLI_TERMS + 1)
])


def bernoulli_b2k(k: int) -> float:
    """B_{2k} for 1 <= k <= 30."""
    if not 1 <= k <= _MAX_BERNOULLI_TERMS:
        raise InvalidParameterError(f"B_2k available for 1 <= k <= 30, got k={k}")
    return BERNOULLI_B2K[k - 1]


# ---------------------------------------------------------------------------
# Lambert W, principal branch on [0, inf)
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Solve w e^w = x for w >= 0, given x >= 0.

    Newton iteration from w0 = log(1+x) (an upper start, so the iteration
    descends monotonically on this convex problem), with a Halley step as
    fallback if Newton ever stalls.  Residual tolerance 1e-14 relative to
    max(1, x).
    """
    if math.isnan(x) or x < 0:
        raise InvalidParameterError(f"lambert_w0 requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    tol = 1e-14 * max(1.0, x)
    for _ in range(100):
        ew = math.exp(w)
        resid = w * ew - x
        if abs(resid) <= tol:
            return w
        denom = ew * (w + 1.0)
        step = resid / denom
        # Halley fallback guards the (never observed on x >= 0) stall case.
        if not math.isfinite(step) or abs(step) > abs(w) + 1.0:
            step = resid / (denom - (w + 2.0) * resid / (2.0 * w + 2.0))
        w -= step
    if abs(w * math.exp(w) - x) <= 100 * tol:
        return w
    raise PrecisionError(f"lambert_w0 failed to converge for x={x}")


# ---------------------------------------------------------------------------
# Euler-Maclaurin core
# ---------------------------------------------------------------------------

def _em_bound(worst: complex, alpha: float, m_terms: int = _EM_TERMS):
    """The remainder bound at s = ``worst`` as a function of the cutoff N.

    |first omitted term| |s+2M+1| / (sigma+2M+1) = C (N + alpha)^-(sigma+2M+1),
    with log C summed once so large |t| cannot overflow.  At fixed sigma it
    grows with |t|, so its value at the largest |Im s| covers a whole line.
    """
    k = m_terms + 1
    power = worst.real + 2 * k - 1
    log_c = math.log(abs(_B2K_OVER_FACT[k - 1]) * abs(worst + 2 * k - 1) / power)
    log_c += sum(math.log(abs(worst + j)) for j in range(2 * k - 1))
    return lambda n_cutoff: math.exp(log_c - power * math.log(n_cutoff + alpha))


def _smallest_cutoff(bound, lo: int, hi: int, tol: float) -> int:
    """Smallest N in (lo, hi] with bound(N) <= tol, for a bound that falls
    monotonically in N and meets tol at hi: bisection, so no head term is
    summed while searching."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _em_cutoff(worst: complex, alpha: float, tol: float, start: int = 0) -> int:
    """Smallest N >= max(start, 16) whose remainder bound at ``worst`` meets ``tol``."""
    if not tol > 0:
        raise InvalidParameterError(f"target_error must be positive, got {tol}")
    bound = _em_bound(worst, alpha)
    lo = max(start, _MIN_CUTOFF) - 1  # below the floor, or fails the bound
    hi = max(lo + 1, _MAX_CUTOFF)  # meets the bound
    if not bound(hi) <= tol:  # also catches a NaN ordinate
        raise PrecisionError(
            f"Euler-Maclaurin bound {bound(hi):.3e} > target {tol:.3e} at N = {hi}"
        )
    return _smallest_cutoff(bound, lo, hi, tol)


def _line_worst(sv: np.ndarray) -> complex:
    """The point of largest |Im s| on the vertical line that holds every
    point of the complex array ``sv``; non-finite points and points off one
    line are refused."""
    finite = np.isfinite(sv)
    if not finite.all():
        raise InvalidParameterError(
            f"points must be finite, got the non-finite point {sv[~finite].flat[0]}")
    sigma = sv.flat[0].real
    if np.any(sv.real != sigma):
        raise InvalidParameterError(
            f"points must lie on one vertical line, got Re(s) from "
            f"{np.min(sv.real)} to {np.max(sv.real)}"
        )
    return complex(sigma, np.max(np.abs(sv.imag)))


def _progression_step(ts: np.ndarray) -> float | None:
    """The common step h when every row of the ordinates ``ts`` lies within
    8 ulp of max|t| of its first ordinate plus j h; otherwise None.  The
    rows of a 2-d array count when at least 2 long; any other array is one
    row, which counts when at least 2 x 64 long."""
    if ts.ndim == 2:
        rows, least = ts, 2
    else:
        rows, least = ts.reshape(1, -1), 2 * _PHASE_ROWS
    width = rows.shape[1]
    if width < least or rows.size == 0:
        return None
    h = (rows[0, -1] - rows[0, 0]) / (width - 1)
    slack = 8 * np.spacing(np.max(np.abs(ts)))
    if not np.max(np.abs(rows - (rows[:, :1] + h * np.arange(width)))) <= slack:
        return None
    return float(h)


def _head_sum(sv: np.ndarray, x: np.ndarray, weights=None) -> np.ndarray:
    """sum_n weights[n] exp(-s x[n]) for each s of the array ``sv`` (the
    weights 1 when omitted), in the shape of ``sv``; the only (points x
    terms) exponential matrix of the package.  x[n] = log(n + alpha) gives
    the Euler-Maclaurin head.

    Rows of ordinates in arithmetic progression with one step h
    (``_progression_step``) are summed as matrix products.  Each row is cut
    into runs of R = min(row length, 64) points; a 1-d array is one row.
    The anchor V[b, n] = weights[n] exp(-s_b x[n]) at the first point s_b of
    each run times the phase table E[r, n] = exp(-i r h x[n]), r < R, gives
    the run's points.  E is built once per piece of at most 4096 terms, and
    V for at most 64 runs at a time, both in place.  A 2-d array of scan
    windows, one window of 9 nodes per row, thus pays one exp per (window,
    term) and 9 per term for E, in place of 9 per (window, term).  Point
    s_b + i r h gets the phase (t_b + r h) x[n] in place of t x[n]: with both
    ordinates within 8 ulp of the progression, at most 16 ulp(T) max|x|
    apart per term, the order of the rounding of t x itself.  Every other
    array is built in blocks of 2^16 matrix entries (points x terms), or of
    one row where a row is longer, each block in the same buffer, and each
    row weights * exp(-s x), the weights first, is summed in term order.

    A (K, terms) weight stack goes with (K, n) points, weight row k with
    point row k, such as K candidate series sampled on their windows.  A
    stack always takes the per-row path, with no blocking: point rows with
    equal bytes share one (n, terms) exponential table, which each of their
    weight rows multiplies.  Every (point, term) entry, and so every sum, is
    then the bits the per-row path gives a 1-d call with that point row and
    weight row.  The stack holds K n terms complex entries at once.

    With debug logging on, each call logs its point count, term count and
    path.
    """
    stacked = weights is not None and weights.ndim == 2
    step = None if stacked else _progression_step(sv.imag)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("head sum: %d points, %d terms, %s", sv.size, x.size,
                     "per-row" if step is None else "phase-matrix")
    if stacked:
        slot: dict = {}
        shared = np.array([slot.setdefault(row.tobytes(), len(slot)) for row in sv])
        distinct = np.empty(len(slot), dtype=int)
        distinct[shared] = np.arange(shared.size)  # any row of a slot: same bytes
        terms = np.exp(np.multiply.outer(-sv[distinct], x))[shared]
        np.multiply(weights[:, None, :], terms, out=terms)
        return terms.sum(axis=-1)
    if step is not None:
        grid = sv if sv.ndim == 2 else sv.reshape(1, -1)
        run = min(grid.shape[1], _PHASE_ROWS)
        starts = grid[:, ::run].ravel()
        head = np.zeros((starts.size, run), dtype=complex)
        shifts = -1j * (step * np.arange(run))
        piece = min(x.size, _PHASE_TERMS)
        # one buffer per table, filled in place piece by piece; a table is
        # a contiguous view, so the einsum loop does not depend on the piece
        table = np.empty(run * piece, dtype=complex)
        anchor = np.empty(min(starts.size, _PHASE_ROWS) * piece, dtype=complex)
        for lo in range(0, x.size, _PHASE_TERMS):
            part = x[lo:lo + _PHASE_TERMS]
            phases = table[:run * part.size].reshape(run, part.size)
            np.multiply.outer(shifts, part, out=phases)
            np.exp(phases, out=phases)
            for b in range(0, starts.size, _PHASE_ROWS):
                first = starts[b:b + _PHASE_ROWS]
                anchors = anchor[:first.size * part.size].reshape(first.size, part.size)
                np.multiply.outer(-first, part, out=anchors)
                np.exp(anchors, out=anchors)
                if weights is not None:
                    np.multiply(weights[lo:lo + _PHASE_TERMS], anchors, out=anchors)
                # einsum (without optimize) sums in its own loop, never in
                # BLAS, so the bits do not depend on the BLAS library or its
                # thread count
                head[b:b + _PHASE_ROWS] += np.einsum("bn,rn->br", anchors, phases)
        return head.reshape(grid.shape[0], -1)[:, :grid.shape[1]].reshape(sv.shape)
    flat = sv.ravel()
    head = np.empty(flat.shape, dtype=complex)
    rows = max(1, _HEAD_BLOCK // max(x.size, 1))
    # one buffer for every block, so a block's matrix is never alive
    # beside the one that replaces it
    block = np.empty((min(rows, flat.size), x.size), dtype=complex)
    for lo in range(0, flat.size, rows):
        terms = block[:min(rows, flat.size - lo)]
        np.multiply.outer(-flat[lo:lo + rows], x, out=terms)
        np.exp(terms, out=terms)
        if weights is not None:
            np.multiply(weights, terms, out=terms)
        head[lo:lo + rows] = terms.sum(axis=1)
    return head.reshape(sv.shape)


def _hurwitz_em_raw(s, alpha: float, n_cutoff: int, m_terms: int = _EM_TERMS,
                    start: int = 0):
    """sum_{n >= start} (n + alpha)^-s by Euler-Maclaurin with cutoff N.

    ``s`` is one complex number or an array of them on one vertical line.
    The head start..N-1 is summed directly, the tail closed by M Bernoulli
    corrections.  Returns (value, bound) with one bound, taken at the largest
    |Im s|, that covers every point.
    """
    points = np.asarray(s, dtype=complex)
    worst = _line_worst(points)
    head = _head_sum(points, np.log(np.arange(start, n_cutoff) + alpha)).ravel()
    sv = points.ravel()
    na = n_cutoff + alpha
    # (s)_{2k-1} na^(1-2k), k = 1..M: every other partial product of (s+j)/na
    rising = np.cumprod((sv[:, None] + np.arange(2 * m_terms - 1)) / na, axis=1)
    corrections = rising[:, ::2] @ _B2K_OVER_FACT[:m_terms]
    value = head + na ** (-sv) * (na / (sv - 1) + 0.5 + corrections)
    bound = _em_bound(worst, alpha, m_terms)(n_cutoff)
    if np.ndim(s) == 0:
        return complex(value[0]), bound
    return value.reshape(np.shape(s)), bound


def _em_sum(s, alpha: float, tol: float, start: int = 0):
    """(value, bound) of sum_{n >= start} (n + alpha)^-s, Re s > 0, within
    ``tol``: the one checked entry into ``_hurwitz_em_raw``.  Refuses alpha
    outside (0, 1] and points off one line, raises PoleError at s = 1 and
    sizes the cutoff at the largest |Im s|; an empty array gives an empty one."""
    points = np.asarray(s, dtype=complex)
    if not 0 < alpha <= 1:
        raise InvalidParameterError(f"alpha must lie in (0, 1], got {alpha}")
    if points.size == 0:
        return np.empty(points.shape, dtype=complex), 0.0
    worst = _line_worst(points)
    if worst.real <= 0:
        raise InvalidParameterError(
            f"Euler-Maclaurin path needs Re(s) > 0, got Re(s) = {worst.real}")
    if np.any(points == 1):
        raise PoleError("zeta(s, alpha) has its pole at s = 1")
    return _hurwitz_em_raw(points, alpha, _em_cutoff(worst, alpha, tol, start),
                           start=start)


def hurwitz_zeta(s: complex, alpha: float, target_error: float = 1e-12) -> complex:
    """zeta(s, alpha) = sum_{n>=0} (n+alpha)^-s for Re(s) > 0, s != 1.

    Raises PoleError at s = 1 and PrecisionError if meeting ``target_error``
    would need a cutoff above 2^21.
    """
    value, _ = hurwitz_zeta_with_error(s, alpha, target_error)
    return value


def hurwitz_zeta_with_error(
    s: complex, alpha: float, target_error: float = 1e-12
) -> tuple[complex, float]:
    """zeta(s, alpha) and its remainder bound, which is at most ``target_error``."""
    return _em_sum(s, alpha, target_error)


def riemann_zeta(s: complex, target_error: float = 1e-12) -> complex:
    """zeta(s) for Re(s) > 0, s != 1 (Euler-Maclaurin, alpha = 1)."""
    return hurwitz_zeta(s, 1.0, target_error)


def hurwitz_tail_sum(
    w,
    alpha: float,
    start: int,
    target_error: float = 1e-12,
):
    """sum_{n >= start} (n + alpha)^-w with a certified bound, Re(w) > 1.

    ``w`` is one complex number or an array on one vertical line; one cutoff,
    sized at the largest |Im w|, and the Euler-Maclaurin closure of the zeta
    evaluators serve every point.  Used for the tails of built-in series.
    """
    if np.any(np.real(w) <= 1):
        raise InvalidParameterError(f"tail sum diverges for Re(w) = {np.min(np.real(w))}")
    return _em_sum(w, alpha, target_error, start)


def hurwitz_zeta_grid(
    alpha: float,
    ts: np.ndarray,
    sigma: float = 1.0,
    target_error: float = 1e-9,
) -> np.ndarray:
    """Vectorized zeta(sigma + i t, alpha) on an array of ordinates.

    One cutoff, sized for the worst |t| in the block, serves every point;
    inputs with sigma + i t == 1 are rejected.  Used by the scan harness
    where millions of values are needed.  With debug logging on, each call
    logs one line from ``_head_sum``: the point count, the EM cutoff N (the
    head's term count) and the head path.
    """
    return _em_sum(sigma + 1j * np.asarray(ts, dtype=float), alpha, target_error)[0]


# ---------------------------------------------------------------------------
# Lerch zeta
# ---------------------------------------------------------------------------

def _lerch_bound(worst: complex, beta: float, gap: float, k_order: int):
    """(truncation, roundoff) of the Abel-folded tail at s = ``worst``, each
    as a function of the head cutoff N.

    Truncation after K difference orders is bounded by
    |(s)_K| ((N+beta)^(-sigma-K) + (N+beta)^(-sigma-K+1)/(sigma+K-1)) / gap^K,
    and the finite differences lose roughly C(K, K/2) eps / gap^(K+1) in
    absolute terms, so small gaps |1 - e^(2 pi i alpha)| force small K and
    large N.  Both fall monotonically in N; at fixed sigma the truncation
    grows with |t| and the roundoff does not depend on t, so the bound at the
    largest |Im s| covers a whole line.
    """
    sigma = worst.real
    rising = 1.0
    for j in range(k_order):
        rising *= abs(worst + j) if j else max(abs(worst), 1e-300)

    def trunc(n_cutoff):
        nb = n_cutoff + beta
        return (
            rising
            * (nb ** (-sigma - k_order) + nb ** (-sigma - k_order + 1) / (sigma + k_order - 1))
            / gap ** k_order
        )

    def roundoff(n_cutoff):
        return (
            math.comb(k_order, k_order // 2)
            * 2.3e-16
            * (n_cutoff + beta) ** (-sigma)
            / gap ** (k_order + 1)
        )

    return trunc, roundoff


def _lerch_tail_plan(worst: complex, beta: float, gap: float, tol: float):
    """(N, K, bound) for the oscillatory tail at s = ``worst``.

    K runs down the orders 16, 12, 8, 5, 3, 2.  An order whose roundoff
    alone exceeds ``tol`` at N = 64, or whose bound misses ``tol`` even at
    N = 2^21, gives way to the next, lower one; for the first order that
    stays, N is the smallest cutoff >= 64 with truncation + roundoff <= tol.
    """
    for k_order in _LERCH_ORDERS:
        trunc, roundoff = _lerch_bound(worst, beta, gap, k_order)

        def total(n_cutoff):
            return trunc(n_cutoff) + roundoff(n_cutoff)

        if roundoff(_LERCH_MIN_CUTOFF) > tol or not total(_MAX_CUTOFF) <= tol:
            continue
        n_cutoff = _smallest_cutoff(total, _LERCH_MIN_CUTOFF - 1, _MAX_CUTOFF, tol)
        return n_cutoff, k_order, total(n_cutoff)
    raise PrecisionError(
        f"lerch_phi: cannot reach target error {tol:.2e} for gap {gap:.3e}"
    )


def lerch_phi(alpha: float, beta: float, s, target_error: float = 1e-10):
    """phi(alpha, beta; s) = sum_{n>=0} e^(2 pi i n alpha) (n+beta)^-s.

    ``s`` is one complex number, which gives a complex, or an array of points
    on one vertical line, which gives an array of the same shape.  Valid for
    0 < alpha, beta <= 1 and Re(s) >= 1, excluding the pole at
    (alpha, s) = (1, 1).  For alpha = 1 the twist is trivial and the value
    is zeta(s, beta), with one Euler-Maclaurin cutoff at the largest |Im s|.
    Otherwise the head is summed directly and the tail sum_{m} z^m g(m) is
    folded by iterated Abel summation,

        sum = sum_{k<K} z^k D^k g(0) / (1-z)^(k+1) + remainder,

    whose remainder carries the explicit bound from ``_lerch_tail_plan``,
    planned once at the largest |Im s| for the whole array.
    """
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise InvalidParameterError("lerch_phi needs 0 < alpha, beta <= 1")
    points = np.asarray(s, dtype=complex)
    if np.any(points.real < 1):
        raise InvalidParameterError(
            f"lerch_phi implemented for Re(s) >= 1, got Re(s) = {np.min(points.real)}"
        )
    if alpha == 1:
        return _em_sum(points, beta, target_error)[0]
    if points.size == 0:
        return np.empty(points.shape, dtype=complex)
    sv = points.ravel()
    worst = _line_worst(sv)
    z = cmath.exp(2j * math.pi * alpha)
    n_cutoff, k_order, _ = _lerch_tail_plan(worst, beta, abs(1 - z), target_error)
    n = np.arange(n_cutoff)
    head = _head_sum(points, np.log(n + beta), np.exp(2j * math.pi * alpha * n))
    # g(m) = (m + N + beta)^-s, m = 0..K, one row per point
    diff = np.exp(-np.multiply.outer(sv, np.log(np.arange(k_order + 1) + n_cutoff + beta)))
    tail = np.zeros(sv.shape, dtype=complex)
    zp = 1.0 + 0j
    for k in range(k_order):
        tail += zp * diff[:, 0] / (1 - z) ** (k + 1)
        zp *= z
        diff = diff[:, 1:] - diff[:, :-1]
    value = head.ravel() + z ** n_cutoff * tail
    if np.ndim(s) == 0:
        return complex(value[0])
    return value.reshape(np.shape(s))


# ---------------------------------------------------------------------------
# Named constants
# ---------------------------------------------------------------------------

class KappaConstants(NamedTuple):
    """Constants for the Poisson-weighted log bounds.

    ``kappa_half`` is the value used inside every bound computed by this
    package; ``kappa_printed`` reproduces the decimal 0.2735187155, which
    equals 2 * kappa_half (the half-free expression); ``kappa_alt`` is the
    half-free value of the alternative window split, 0.27918489270; and
    ``c0`` = kappa_half + log(1 + 3 pi) + log 2 = 3.174092008.  Only the
    half-kappa branch makes c0 come out at that decimal, which is why it is
    the operational choice.
    """

    kappa_half: float
    kappa_printed: float
    kappa_alt: float
    c0: float


def kappa_constants() -> KappaConstants:
    kappa_half = 0.5 * math.log(math.tanh(math.pi) + 1.0 / math.pi)
    kappa_printed = math.log(math.tanh(math.pi) + 1.0 / math.pi)
    kappa_alt = math.log(1.0 / math.tanh(math.pi) + 1.0 / math.pi)
    c0 = kappa_half + math.log(1.0 + 3.0 * math.pi) + math.log(2.0)
    return KappaConstants(kappa_half, kappa_printed, kappa_alt, c0)


#: Euler-Mascheroni constant (used by the sharp short-interval asymptotic).
EULER_GAMMA: float = 0.5772156649015329
