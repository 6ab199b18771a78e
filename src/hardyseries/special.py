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
is summed; every returned value carries that error budget.  The closure
of the tail n >= N nests its M Bernoulli terms in Horner form,
acc = c_k + q_k acc with q_k = (s+2k-1)(s+2k)/(N+alpha)^2, and takes
(N+alpha)^-s as exp(-s log(N+alpha)): a few elementwise operations per
term, the same for one point as for a band of thousands.  Bernoulli
numbers B_2 .. B_30, the closure's M + 1, are generated exactly once at
import time from the integer recurrence.  The twisted Lerch tail
sum_{n>=N} z^n (n+beta)^-s, z = e^(2 pi i alpha) != 1, is closed the
same way by Euler-Boole summation: K = 30 terms c_k (-1)^k (s)_k
(N+beta)^-k, with c_k the Taylor coefficients of 1/(1 - z e^u) computed
once per twist, nested as acc = c_k - (s+k)/(N+beta) acc, under a
remainder bound of the same shape.

Every zeta value, twisted or not, comes from one kernel, ``_zeta_sum``,
of which each public evaluator is a view; ``hurwitz_tail_sum``,
``hurwitz_zeta_grid`` and ``lerch_phi`` take one complex s or an array of
points on one vertical line.  The kernel refuses non-finite points, points
off one line and a shift outside (0, 1], and at twist 1 also Re s <= 0,
with the one PoleError at s = 1.  Every bound grows with |t| at fixed
sigma, so it reads the line once and builds the Euler-Maclaurin or
Euler-Boole remainder bound at the largest |Im s|: one cutoff, the
smallest N >= 16 that meets the tolerance, serves the whole array, and the
kernel returns the values with that bound (an empty array for an empty
one).  The two closures keep their own recurrences: one shared recurrence
would reorder the floating-point operations, and so the Hurwitz bits.

Every finite exponential sum sum_n w_n e^(-s x_n) of the package goes
through one kernel, ``_head_sum``: the zeta heads (x_n = log(n + alpha);
for Lerch, the weight w_n = e^(2 pi i n alpha)), the head of
``series.line_evaluator`` and the edge layers of ``mollifier.bump_hat``.
It takes one of three paths.

* NUFFT: a 1-d progression of M points, its ordinates within 8 ulp of
  max|t| of t_0 + j h and at least 128 long, such as a scan band of 4000
  shared nodes, is one type-1 non-uniform FFT (Dutt & Rokhlin; Greengard
  & Lee, SIAM Rev. 2004), the many-values-from-one-transform idea of
  Odlyzko and Schoenhage: the terms w_n e^(-s_c x_n), anchored at the
  middle point, are spread by a Gaussian of half-width 16 cells onto the
  smallest 5-smooth grid of at least 2M cells, and one FFT gives every
  point.  Cost O(32 N + M log M) in place of M N.  The Gaussian, cut at
  16 cells, leaves a relative error of order e^(-pi 16 (1 - 1/(2R))),
  4e-17 at the oversampling R = 2, and the deconvolution magnifies the
  rounding of the grid by at most e^(pi 16 / (4 R (R - 1/2))), 66 at
  R = 2: on 4000-node bands the head sits within 1e-13 ||w||_1 of the
  per-point head at t ~ 900 (||w||_1 = sum |w_n| e^(-sigma x_n)), as close
  to an extended-precision sum as the phase table, and within 5e-12
  ||w||_1 of the phase table at t ~ 1e5, where both round their phases
  at ulp(T) x_n.  ``numpy.fft`` is imported by numpy on the first NUFFT
  call, not with this module.
* phase table: rows of 2 to 64 points of a 2-d progression whose first
  points form a progression too, such as the 9 nodes of each disjoint
  scan window: the anchor row w_n e^(-s_b x_n) at its first point times
  the piece's phase table e^(-i r h x_n), summed by einsum, so the bits
  never depend on BLAS; a grid for those rows would hold far more nodes
  than the windows need.  The table and the anchors recur from one
  direct exp row per 64 rows: ceil(rows/64) + 2 exp rows per piece of
  4096 terms, not rows + R.
* term table: every other array, one point per row, and every (K, terms)
  weight stack, one weight row and term count named per row of points.
  The (terms, points) table of e^(-s x_n) is one complex exp per entry,
  or, for a classical head (x = log(1 .. N), N <= 4096), one per prime:
  n^-s by the Euler product, row p times row m at n = p m.  The weights
  multiply it, the weights first, and each row's terms are added one at
  a time in term order, so every row is a plain term-order loop.  Blocks
  hold at most 2^13 table entries for one point per row and 2^16 for
  longer rows; in a stack, rows of equal points share their table.

The bound ``_zeta_sum`` returns counts the truncation of the tail only:
neither the rounding of the head nor the NUFFT's kernel error is in it.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidParameterError,
    PoleError,
    PrecisionError,
    check,
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

_EM_TERMS = 14  # Bernoulli corrections M in every Euler-Maclaurin closure
_MIN_CUTOFF = 16
_MAX_CUTOFF = 2 ** 21
_HEAD_BLOCK = 1 << 16  # head-sum matrix entries per block (points x terms), 1 MiB
_ROW_BLOCK = 1 << 13  # the same for one point per row, 128 KiB
_PHASE_ROWS = 64  # most points per 2-d progression row; half the least 1-d progression
_PHASE_TERMS = 4096  # terms per piece of a head sum, a 64-row phase table at 4 MiB
_ANCHOR_RUN = 64  # recurrent anchor rows per direct one: at most 63 products apart
_NUFFT_SPREAD = 16  # half-width of the NUFFT's Gaussian, in grid cells
_BOOLE_TERMS = 30  # Euler-Boole coefficients K in every twisted Lerch closure
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # the largest x with exp(x) finite


def _bernoulli_even(count: int) -> tuple[float, ...]:
    # B_m via sum_{j<m} C(m+1, j) B_j = -(m+1) B_m, exact rational arithmetic.
    bs = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return tuple(float(bs[2 * k]) for k in range(1, count + 1))


# B_2 .. B_2(M+1): the closure reads k <= M, its remainder bound k = M + 1.
BERNOULLI_B2K: tuple[float, ...] = _bernoulli_even(_EM_TERMS + 1)

# B_2k / (2k)! precomputed alongside, used in every Euler-Maclaurin sum.
_B2K_OVER_FACT: np.ndarray = np.array([
    b / math.factorial(2 * k) for k, b in enumerate(BERNOULLI_B2K, 1)
])


def bernoulli_b2k(k: int) -> float:
    """B_{2k} for 1 <= k <= M + 1 = 15."""
    if not 1 <= k <= len(BERNOULLI_B2K):
        raise InvalidParameterError(
            f"B_2k available for 1 <= k <= {len(BERNOULLI_B2K)}, got k={k}")
    return BERNOULLI_B2K[k - 1]


# ---------------------------------------------------------------------------
# Lambert W, principal branch on [0, inf)
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Solve w e^w = x for w >= 0, given finite x >= 0.

    Newton's method on f(w) = w + log(w/x), which is w e^w = x in log form
    and stays finite for every finite x, even where w e^w overflows; the
    quotient w/x keeps log(w/x) exact to rounding where w is small.  From
    w0 = log(1+x) the steps w (w + log(w/x)) / (1 + w) converge
    quadratically, and the iteration stops at a step of at most 4 ulp of w,
    or at a step no smaller than the one before it (the rounding floor).
    """
    x = check("x", x, inclusive=True)
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    last = math.inf
    while True:
        step = w * (w + math.log(w / x)) / (1.0 + w)
        if not abs(step) < last:
            return w
        w -= step
        if abs(step) <= 4 * math.ulp(w):
            return w
        last = abs(step)


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
    return lambda n_cutoff: _exp(log_c - power * math.log(n_cutoff + alpha))


def _exp(x: float) -> float:
    """e^x, or +inf where it passes the float range (exp raises there)."""
    return math.inf if x > _LOG_FLOAT_MAX else math.exp(x)


def _em_cutoff(bound, tol: float, start: int = 0) -> int:
    """Smallest N >= max(start, 16) at which ``bound``, a remainder bound
    from ``_em_bound`` or ``_boole_bound`` that falls monotonically in N,
    meets ``tol``: bisection, so no head term is summed while searching."""
    if not tol > 0:
        raise InvalidParameterError(f"target_error must be positive, got {tol}")
    lo = max(start, _MIN_CUTOFF) - 1  # below the floor, or fails the bound
    hi = max(lo + 1, _MAX_CUTOFF)  # meets the bound
    if not bound(hi) <= tol:  # also catches a NaN ordinate
        raise PrecisionError(
            f"remainder bound {bound(hi):.3e} > target {tol:.3e} at N = {hi}"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


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


def _progression_step(ts: np.ndarray, least: int = 2 * _PHASE_ROWS) -> float | None:
    """The common step h when every row of the ordinates ``ts`` lies within
    8 ulp of max|t| of its first ordinate plus j h; otherwise None.  The
    rows of a 2-d array count when 2 to 64 long; any other array is one
    row, which counts when at least ``least`` long, 2 x 64 unless given."""
    rows = ts if ts.ndim == 2 else ts.reshape(1, -1)
    width = rows.shape[1]
    least, most = (2, _PHASE_ROWS) if ts.ndim == 2 else (least, width)
    if not least <= width <= most or rows.size == 0:
        return None
    h = (rows[0, -1] - rows[0, 0]) / (width - 1)
    slack = 8 * np.spacing(np.max(np.abs(ts)))
    if not np.max(np.abs(rows - (rows[:, :1] + h * np.arange(width)))) <= slack:
        return None
    return float(h)


def _head_sum(sv: np.ndarray, x: np.ndarray, weights=None, rows=None,
              lengths=None) -> np.ndarray:
    """sum_n weights[n] exp(-s x[n]) for each s of the array ``sv`` (the
    weights 1 when omitted), in the shape of ``sv``; every exponential sum
    of the package goes through it.  x[n] = log(n + alpha) gives the
    Euler-Maclaurin head.  It takes one of three paths:

    * a 1-d progression (``_progression_step``) is one type-1 NUFFT,
      ``_nufft_head``: O(32 N + M log M) for M points and N terms, with no
      BLAS product.  Its Gaussian is cut at 16 cells, where it has fallen
      to e^(-pi 16 (1 - 1/(2R))), 4e-17 at the oversampling R = 2, and its
      deconvolution magnifies the rounding of the grid by at most
      e^(pi 16 / (4 R (R - 1/2))), 66 at R = 2;
    * the rows of a 2-d progression of R = 2 to 64 points whose first
      points form a progression of their own, such as the disjoint
      windows of a scan band, take ``_phase_head``: one anchor row per row
      times one phase table per piece of terms, both by recurrence;
    * every other array, one point per row with the one weight row, and
      every weight stack go through the term-table kernel
      ``_table_head``, which adds each row's terms in term order.

    A (K, terms) weight stack goes with (m, n) points, the int array
    ``rows`` of shape (m,) and the int array ``lengths`` of shape (K,):
    point row j is summed with weight row ``rows[j]`` over its first
    ``lengths[rows[j]]`` terms, such as K candidate series sampled on
    their windows or one point per row, each of its own series.  Series
    of several lengths share one stack, and no row sums a zero term it
    does not hold, which would change the summation.  Every row is then
    the bits of the per-point call with that point row and the first
    ``lengths[rows[j]]`` terms of its weight row.

    With debug logging on, each call logs its point count, term count and
    path (``nufft``, with its grid size and the Gaussian's half-width in
    cells, ``phase-matrix`` for 2-d progression rows, ``euler-product``
    with its exps per point for a classical term table, or ``per-row``).
    A ``phase-matrix`` call logs a second line: its rows and points per
    row, its anchors' step H (``anchors by recurrence of step H``) and its
    exp rows per piece.
    """
    stacked = weights is not None and weights.ndim == 2
    step = None if stacked else _progression_step(sv.imag)
    nufft = step is not None and sv.ndim == 1
    cells = _fft_size(2 * sv.size) if nufft else 0
    # the step H of the first points of 2-d progression rows, where they
    # form a progression; other 2-d arrays go to the term table
    anchor_step = None if step is None or nufft else _progression_step(sv.imag[:, 0], 2)
    plan = None if nufft or anchor_step is not None else _euler_plan(x)
    if logger.isEnabledFor(logging.DEBUG):
        if nufft:
            path = f"nufft, grid {cells}, half-width {_NUFFT_SPREAD}"
        elif anchor_step is not None:
            path = "phase-matrix"
        elif plan is not None:
            path = f"euler-product, {plan.prime_logs.size} exps per point"
        else:
            path = "per-row"
        logger.debug("head sum: %d points, %d terms, %s", sv.size, x.size, path)
        if anchor_step is not None:
            logger.debug("phase-matrix: %d rows of %d, anchors by recurrence of step %.6g, "
                         "%d exp rows per piece", len(sv), sv.shape[1], anchor_step,
                         math.ceil(len(sv) / _ANCHOR_RUN) + 2)
    if nufft:
        return _nufft_head(sv, x, weights, step, cells)
    if anchor_step is not None:
        return _phase_head(sv, x, weights, step, anchor_step)
    if stacked:
        return _table_head(sv, x, weights, rows, lengths, plan)
    # one point per row, each summed with weight row 0 over all terms (the
    # row indices as bytes: one per point beside the head's sixteen)
    points = sv.reshape(-1, 1)
    head = _table_head(points, x, None if weights is None else weights[None],
                       np.zeros(len(points), dtype=np.int8), np.array([x.size]), plan)
    return head.reshape(sv.shape)


def _phase_head(sv: np.ndarray, x: np.ndarray, weights, step: float,
                anchor_step: float) -> np.ndarray:
    """The head sum of ``_head_sum`` on (rows, R) points whose rows are
    progressions s_b + i r h, r < R <= 64, of one step h, and whose first
    points s_b are a progression of step H.

    One loop over pieces of at most 4096 terms, and within a piece over
    blocks of at most 2^16 entries (rows x terms, 1 MiB), each block in the
    same buffer.  The anchor V[b, n] = weights[n] exp(-s_b x[n]) times the
    piece's phase table E[r, n] = exp(-i r h x[n]) gives the row's points:
    point 0 is the plain sum of V[b], the others one einsum, which sums in
    its own loop, never in BLAS, so the bits do not depend on the BLAS
    library or its thread count.  Both recur in place, once per piece:
    E[1] is one exp row, E[r] = E[r - 1] E[1], and the slot of E[0] = 1
    holds e^(-i H x[n]); V[b] is a direct exp only where 64 divides b, and
    otherwise V[b - 1] e^(-i H x[n]).  A band of 444 windows of 9 nodes
    thus pays 9 exp rows per piece, not 453.  Against the per-point sums
    of the same points a term's phase moves by at most 32 ulp(T) |x[n]|,
    T = max|t| (8 off the row's progression, 16 off the anchors', 4 from
    the rounded phases, raised to powers j < 64 and r < R), and its value
    takes at most 64 + R more roundings of a product, each within 4 u,
    u = 2^-53.  A head of one piece is the bits of one sum per row; a
    longer one adds the pieces' sums."""
    anchors = sv[:, 0]
    width = sv.shape[1]
    if np.any(anchors.real != anchors.real[0]):
        raise InvalidParameterError("head sum points must lie on one vertical line")
    head = np.zeros(sv.shape, dtype=complex)
    piece = min(x.size, _PHASE_TERMS)
    rows = max(1, _HEAD_BLOCK // max(piece, 1))
    # one buffer per table, filled in place piece by piece and block by
    # block, so a block's matrix is never alive beside the one that
    # replaces it; a table is a contiguous view, so the einsum loop does
    # not depend on the piece
    block = np.empty(min(rows, anchors.size) * piece, dtype=complex)
    table = np.empty(width * piece, dtype=complex)
    for lo in range(0, x.size, _PHASE_TERMS):
        # complex, as the products below take it: numpy casts a float
        # operand through buffers of up to 128 KiB
        part = x[lo:lo + _PHASE_TERMS].astype(complex)
        piece_weights = None if weights is None else weights[lo:lo + _PHASE_TERMS]
        # E[r] = E[r - 1] E[1], one exp row; slot 0 (E[0] = 1) holds the
        # anchors' step row e^(-i H x) instead
        phases = table[:width * part.size].reshape(width, part.size)
        np.exp(np.multiply(-1j * step, part, out=phases[1]), out=phases[1])
        for r in range(2, width):
            np.multiply(phases[r - 1], phases[1], out=phases[r])
        np.exp(np.multiply(-1j * anchor_step, part, out=phases[0]), out=phases[0])
        for b in range(0, anchors.size, rows):
            first = anchors[b:b + rows]
            terms = block[:first.size * part.size].reshape(first.size, part.size)
            # anchor row g is direct where 64 divides g, and otherwise row
            # g - 1 times e^(-i H x); the row before a block's first is the
            # buffer's last, left by the block before
            before = block[(rows - 1) * part.size:rows * part.size]
            for i in range(first.size):
                if (b + i) % _ANCHOR_RUN:
                    np.multiply(terms[i - 1] if i else before, phases[0], out=terms[i])
                    continue
                np.exp(np.multiply(-first[i], part, out=terms[i]), out=terms[i])
                if piece_weights is not None:
                    np.multiply(piece_weights, terms[i], out=terms[i])
            sums = np.empty((first.size, width), dtype=complex)
            sums[:, 0] = terms.sum(axis=1)
            np.einsum("bn,rn->br", terms, phases[1:], out=sums[:, 1:])
            if lo:  # the first piece is stored, so a -0.0 sum keeps its sign
                head[b:b + rows] += sums
            else:
                head[b:b + rows] = sums
    return head


class _EulerPlan(NamedTuple):
    """How ``_euler_table`` builds the term table of a classical head of N
    terms.  It builds the table with n = 1 first, then the primes, then the
    composites by Omega(n) (the prime factors counted with multiplicity),
    each group in increasing n, and returns it in term order."""

    key: bytes  # the bytes of log(1 .. N) as ``ExponentSequence.lambdas`` gives it
    rows: np.ndarray  # the built row of each term n - 1
    prime_logs: np.ndarray  # -log p - 0j of the prime rows 1 .. pi(N)
    # per Omega >= 2: its first row and the rows of p then of m, n = p m;
    # a level of one composite holds the two rows as ints
    levels: tuple


def _euler_plan(x: np.ndarray) -> _EulerPlan | None:
    """The plan of ``_euler_table`` when the exponents ``x`` are bit-equal
    to log(1 .. N), N <= 4096 (one piece), as a classical series or the
    Euler-Maclaurin head at shift 1 holds them; otherwise None."""
    if not 0 < x.size <= _PHASE_TERMS or x[0] != 0.0:
        return None
    plan = _euler_plan_of(x.size)
    return plan if x.tobytes() == plan.key else None


@functools.lru_cache(maxsize=64)
def _euler_plan_of(count: int) -> _EulerPlan:
    """The plan for n = 1 .. count, built on first use from a sieve of the
    least prime factors, n = p m with p the least prime factor of n, in
    plain Python: the numpy calls a sieve would take cost more resident
    pages than the plan does."""
    least = list(range(count + 1))
    for p in range(2, math.isqrt(count) + 1):
        if least[p] == p:
            for q in range(p * p, count + 1, p):
                least[q] = min(least[q], p)
    omega = [0] * (count + 1)
    for n in range(2, count + 1):
        omega[n] = omega[n // least[n]] + 1
    order = sorted(range(1, count + 1), key=lambda n: (omega[n], n))  # the built rows
    row = [0] * (count + 1)
    for r, n in enumerate(order):
        row[n] = r
    primes = [n for n in order if omega[n] == 1]
    levels = []
    lo = 1 + len(primes)
    while lo < count:
        hi = lo
        while hi < count and omega[order[hi]] == omega[order[lo]]:
            hi += 1
        level = order[lo:hi]
        factors = [row[least[n]] for n in level] + [row[n // least[n]] for n in level]
        levels.append((lo, *factors) if hi - lo == 1 else (lo, np.array(factors)))
        lo = hi
    logs = np.log(np.arange(count) + 1.0)
    # (-log p - 0j) s holds -sigma log p and -t log p, the planes that
    # ``_term_table`` fills for one exp per entry (up to a zero's sign,
    # which exp does not read)
    prime_logs = -logs[[p - 1 for p in primes]].astype(complex)
    return _EulerPlan(logs.tobytes(), np.array(row[1:]), prime_logs, tuple(levels))


def _euler_table(points: np.ndarray, plan: _EulerPlan) -> np.ndarray:
    """The (terms, points) table of n^-s for the 1-d ``points`` s, row n - 1
    for term n: row n = 1 is exactly 1, a prime row is exp(-s log p), the
    bits of the exp ``_term_table`` takes elsewhere, and a composite row,
    n = p m with p the least prime factor of n, is row p times row m, one
    gather and one product per level Omega(n), the levels in increasing
    Omega.  So a point pays pi(N) complex exps, not N: 4 for N = 8, 97 for
    N = 512.  The phase of a composite term carries the sum of its
    factors' rounding, about 2 u |t| log n as the direct exp's does,
    u = 2^-53, and its value Omega(n) - 1 more roundings of a complex
    product."""
    built = np.empty((plan.rows.size, points.size), dtype=complex)
    built[0] = 1.0
    primes = built[1:1 + plan.prime_logs.size]
    np.multiply.outer(plan.prime_logs, points, out=primes)
    np.exp(primes, out=primes)
    for lo, *factors in plan.levels:
        if len(factors) == 2:
            np.multiply(built[factors[0]], built[factors[1]], out=built[lo])
            continue
        size = factors[0].size // 2
        pairs = built[factors[0]]
        np.multiply(pairs[:size], pairs[size:], out=built[lo:lo + size])
    return built[plan.rows]


def _euler_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the rows (axis 0) of ``terms``, the rows added one at a
    time in order, whatever the shape and layout.  numpy's sum adds so
    along axis 0 of a C-contiguous array with at least two entries per
    row; one entry per row it sums in halves, so that case accumulates."""
    if terms.size == len(terms):
        return np.add.accumulate(terms, axis=0)[-1]
    return np.ascontiguousarray(terms).sum(axis=0)


def _table_head(sv: np.ndarray, x: np.ndarray, weights, rows: np.ndarray,
                lengths: np.ndarray, plan) -> np.ndarray:
    """The term-table kernel of ``_head_sum``: point row j of the (m, n)
    ``sv`` summed with weight row ``rows[j]`` of the (K, terms)
    ``weights`` (every weight 1 when None) over its first
    ``lengths[rows[j]]`` terms.

    Blocks of point rows hold at most 2^13 table entries (terms x points,
    128 KiB) for one point per row, so a quadrature call of 4096 points of
    an 8-term series holds a 128 KiB table, and 2^16 (1 MiB) for longer
    rows; with more than one weight row, point rows of equal bytes share
    one table column.  Per piece of at most 4096 terms, ``_term_table``
    builds the (terms, points) table of exp(-s x[n]) of the block's
    distinct points, and each row's weights multiply its terms, the
    weights first.  ``_euler_sum`` then adds each row's terms one at a
    time in term order, its first term the sum of the pieces before.  So
    every entry is the bits of its exp, or of its Euler product, wherever
    it sits, and every row's sum is a plain term-order loop over them.
    For a classical table a head of N terms is within u sum_n |w_n|
    n^-sigma (2 (|t| + |sigma|) log n + 6 Omega(n) + N) of the exact sum,
    u = 2^-53: a composite's phase error is the sum of its factors', about
    2 u |t| log n as for a direct exp, plus Omega(n) - 1 complex-product
    roundings, and the sum adds N - 1 more."""
    head = np.zeros(sv.shape, dtype=complex)
    if sv.size == 0 or x.size == 0:
        return head
    width = sv.shape[1]
    counts = lengths.tolist()
    longest = max(counts)
    uniform = min(counts) == longest  # every row sums the same terms
    block = max(1, (_ROW_BLOCK if width == 1 else _HEAD_BLOCK)
                // (width * min(x.size, _PHASE_TERMS)))
    for b in range(0, len(sv), block):
        part, part_rows = sv[b:b + block], rows[b:b + block]
        points, shared = _distinct_rows(part, weights)
        for lo in range(0, longest, _PHASE_TERMS):
            piece = x[lo:lo + _PHASE_TERMS]
            table = _term_table(points.ravel(), piece, plan).reshape(piece.size, *points.shape)
            terms = table if shared is None else np.take(table, shared, axis=1)
            del table
            if weights is not None:
                # each row's weights as C-contiguous (terms, rows), multiplied
                # first: numpy's complex multiply fuses one product into the
                # rounding of the other, so the other order can differ in the
                # last bit; in place except on one entry, which numpy
                # multiplies in place without the fused step
                row_weights = weights.T[lo:lo + piece.size]
                if len(weights) > 1:
                    row_weights = np.take(row_weights, part_rows, axis=1)
                terms = np.multiply(row_weights[:, :, None], terms,
                                    out=terms if terms.size > 1 else None)
                del row_weights
            if lo:  # each row's sum so far leads its next piece
                terms[0] += head[b:b + block]
            if uniform:
                head[b:b + block] = _euler_sum(terms[:longest - lo])
            else:
                # each row's terms in the piece; a row of at most lo terms is done
                ends = np.minimum(lengths[part_rows] - lo, piece.size)
                for n in np.flatnonzero(np.bincount(ends[ends > 0])).tolist():
                    group = np.flatnonzero(ends == n)
                    head[b + group] = _euler_sum(np.take(terms[:n], group, axis=1))
            del terms  # before the next block's table
    return head


def _distinct_rows(points: np.ndarray, weights) -> tuple:
    """(distinct, shared) of the (m, n) ``points``: ``distinct`` holds its
    distinct rows in order of first sight, and row j is
    ``distinct[shared[j]]``; shared is None where every row is its own,
    and rows are not compared under one weight row, where equal rows are
    rare."""
    if points.strides[0] == 0 and len(points) > 1:  # one row broadcast to every row
        return points[:1], np.zeros(len(points), dtype=np.intp)
    if weights is None or len(weights) == 1:
        return points, None
    points = np.ascontiguousarray(points)
    keys = points.view(f"V{points.itemsize * points.shape[1]}").ravel().tolist()
    slot = dict.fromkeys(keys)
    if len(slot) == len(keys):
        return points, None
    for j, row in enumerate(slot):
        slot[row] = j
    shared = np.fromiter(map(slot.__getitem__, keys), dtype=np.intp, count=len(keys))
    first = np.empty(len(slot), dtype=np.intp)
    first[shared] = np.arange(shared.size)  # any row of a slot: same bytes
    return points[first], shared


def _term_table(points: np.ndarray, x: np.ndarray, plan) -> np.ndarray:
    """The (terms, points) table of exp(-s x[n]) at the 1-d ``points``:
    ``_euler_table`` with a ``plan``, and otherwise one complex exp per
    entry, its real and imaginary planes filled in place: -sigma x is one
    column for every point of the line (points off one line are refused),
    and -t x one einsum, where a broadcast product would have numpy buffer
    both operands (2 x 128 KiB)."""
    if plan is not None:
        return _euler_table(points, plan)
    sigma = points.real[:1]
    if np.any(points.real != sigma):
        raise InvalidParameterError("head sum points must lie on one vertical line")
    table = np.empty((x.size, points.size), dtype=complex)
    table.real[...] = np.multiply(-sigma, x)[:, None]
    np.einsum("n,p->np", x, -points.imag, out=table.imag)
    return np.exp(table, out=table)


def _fft_size(n: int) -> int:
    """The smallest 5-smooth number (2^a 3^b 5^c) >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    fives = 1
    while fives < best:
        size = fives
        while size < best:
            smooth = size
            while smooth < n:
                smooth *= 2
            best = min(best, smooth)
            size *= 3
        fives *= 5
    return best


def _nufft_head(sv: np.ndarray, x: np.ndarray, weights, step: float,
                cells: int) -> np.ndarray:
    """The head sum of ``_head_sum`` on a 1-d progression s_j = s_c + i (j -
    c) h, c = M // 2, by a type-1 non-uniform FFT with Gaussian gridding.

    With c_n = weights[n] exp(-s_c x[n]) and theta_n = h x[n], the point j
    is F(j - c), F(k) = sum_n c_n exp(-i k theta_n).  Each c_n is spread
    onto ``cells`` points of [0, 2 pi), R = cells / M >= 2, by the periodic
    Gaussian exp(-(u - theta_n)^2 / (4 tau)), tau = pi m / (M^2 R (R - 1/2)),
    over the 2m cells nearest theta_n, m = 16, in pieces of at most 4096
    terms (one ``np.bincount`` each for the real and imaginary parts).  One
    FFT gives the grid's Fourier coefficients, and F(k) is coefficient k
    times sqrt(pi/tau) exp(tau k^2) / cells, |k| <= M/2.  Point s_c + i k h
    gets the phase t_c x[n] + k h x[n] in place of t x[n], within 16 ulp(T)
    max|x| as on 2-d progression rows.
    """
    modes = sv.size
    centre = modes // 2
    ratio = cells / modes
    tau = math.pi * _NUFFT_SPREAD / (modes * modes * ratio * (ratio - 0.5))
    width = 2 * math.pi / cells
    decay = width * width / (4 * tau)  # exponent per squared cell of the Gaussian
    offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
    # a term's cells first + offsets sit at (first mod cells) + offsets + pad
    # of a grid padded by pad cells below and 16 above, so no index wraps;
    # the pads fold back onto the grid once, at the end
    pad = _NUFFT_SPREAD - 1
    spread_re = np.zeros(cells + 2 * _NUFFT_SPREAD - 1)
    spread_im = np.zeros(spread_re.size)
    for lo in range(0, x.size, _PHASE_TERMS):
        part = x[lo:lo + _PHASE_TERMS]
        coeffs = np.exp(-sv[centre] * part)
        if weights is not None:
            coeffs *= weights[lo:lo + _PHASE_TERMS]
        # theta in [-pi, pi], untouched where it already is: a term with
        # x[n] < 0 keeps its small phase, not one rounded near 2 pi
        theta = step * part
        theta -= 2 * math.pi * np.round(theta / (2 * math.pi))
        where = theta / width
        first = np.floor(where)
        dist = np.add.outer(first - where, offsets)  # cell minus theta, in cells
        kernel = np.exp(-decay * dist * dist)
        index = np.add.outer(first.astype(np.intp) % cells, offsets + pad).ravel()
        spread_re += np.bincount(index, (coeffs.real[:, None] * kernel).ravel(),
                                 spread_re.size)
        spread_im += np.bincount(index, (coeffs.imag[:, None] * kernel).ravel(),
                                 spread_im.size)
    padded = spread_re + 1j * spread_im
    grid = padded[pad:pad + cells]
    grid[cells - pad:] += padded[:pad]
    grid[:_NUFFT_SPREAD] += padded[pad + cells:]
    spectrum = np.fft.fft(grid)
    k = np.arange(-centre, modes - centre)
    return spectrum[k % cells] * (math.sqrt(math.pi / tau) / cells * np.exp(tau * k * k))


def _em_closure(sv: np.ndarray, n_cutoff: int, alpha: float, m_terms: int) -> np.ndarray:
    """The Euler-Maclaurin closure of sum_{n >= N} (n + alpha)^-s at each
    point of the 1-d array ``sv``; with na = N + alpha, it is na^-s (na/(s-1)
    + 1/2 + sum_k c_k (s)_{2k-1} na^(1-2k)), c_k = B_2k/(2k)!, k = 1..M.  The
    M Bernoulli terms are nested as acc = c_k + q_k acc, from acc = c_M down
    to k = 1, with q_k = (s+2k-1)(s+2k)/na^2, and the sum is (s/na) acc;
    na^-s is exp(-s log na)."""
    na = n_cutoff + alpha
    inv_sq = 1.0 / (na * na)
    acc = np.full(sv.shape, _B2K_OVER_FACT[m_terms - 1], dtype=complex)
    for k in range(m_terms - 1, 0, -1):
        acc = _B2K_OVER_FACT[k - 1] + (sv + (2 * k - 1)) * (sv + 2 * k) * inv_sq * acc
    return np.exp(-sv * math.log(na)) * (na / (sv - 1) + 0.5 + sv / na * acc)


# ---------------------------------------------------------------------------
# Euler-Boole closure of the twisted tail
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _boole_coefficients(z: complex) -> tuple:
    """c_0 .. c_{K-1} of 1/(1 - z e^u) = sum_k c_k u^k for z != 1, from
    c_0 = 1/(1-z) and c_n = z/(1-z) sum_{j=1..n} c_{n-j}/j!; c_k equals
    Li_{-k}(z)/k!.  Kept per z: a twist's calls share one build."""
    ratio = z / (1 - z)
    inv_fact = [1 / math.factorial(j) for j in range(1, _BOOLE_TERMS)]  # j >= 1
    coeffs = [1 / (1 - z)]
    for _ in range(1, _BOOLE_TERMS):
        coeffs.append(ratio * sum(c * f for c, f in zip(reversed(coeffs), inv_fact)))
    return tuple(coeffs)


def _boole_bound(worst: complex, alpha: float, beta: float):
    """The Euler-Boole remainder bound at s = ``worst`` as a function of the
    cutoff N, for 0 < alpha < 1.

    With z = e^(2 pi i alpha) and g(x) = (x + N + beta)^-s, twisted Poisson
    summation gives sum_{m>=0} z^m g(m) = g(0)/2 + sum_j int_0^inf g(x)
    e^(-u_j x) dx over the poles u_j = 2 pi i (j - alpha) of 1/(1 - z e^u).
    K integrations by parts give sum_{k<K} g^(k)(0) sum_j u_j^(-k-1), which
    is sum_{k<K} c_k g^(k)(0) as 1/(1 - z e^u) = 1/2 + sum_j 1/(u_j - u)
    (the 1/2 meets g(0)/2), plus R_K = int_0^inf g^(K)(x) sum_j u_j^-K
    e^(-u_j x) dx.  As |e^(-u_j x)| = 1 for real x and |g^(K)(x)| =
    |(s)_K| (x + N + beta)^-(sigma+K),
    |R_K| <= S_K |(s)_K| (N + beta)^(1-sigma-K) / (sigma + K - 1), with
    S_K = sum_j |2 pi (j - alpha)|^-K = (2 pi)^-K (zeta(K, alpha) +
    zeta(K, 1 - alpha)) and zeta(K, x) <= x^-K + (1+x)^-K (1 + (1+x)/(K-1)).
    log C is summed once, scaled by the nearer pole, so neither large |t|
    nor alpha near 0 or 1 can overflow; at fixed sigma the bound grows with
    |t|, so its value at the largest |Im s| covers a whole line.
    """
    k = _BOOLE_TERMS
    power = worst.real + k - 1
    near = min(alpha, 1 - alpha)
    scaled = sum((near / x) ** k + (near / (1 + x)) ** k * (1 + (1 + x) / (k - 1))
                 for x in (alpha, 1 - alpha))
    log_c = math.log(scaled / power) - k * math.log(2 * math.pi * near)
    log_c += sum(math.log(abs(worst + j)) for j in range(k))
    return lambda n_cutoff: _exp(log_c - power * math.log(n_cutoff + beta))


def _boole_closure(sv: np.ndarray, n_cutoff: int, beta: float, alpha: float) -> np.ndarray:
    """The Euler-Boole closure of sum_{n >= N} z^n (n + beta)^-s at each point
    of the 1-d array ``sv``; with z = e^(2 pi i alpha) != 1 and nb = N + beta,
    it is z^N nb^-s sum_{k<K} c_k (-1)^k (s)_k nb^-k, nested as acc = c_k -
    (s+k)/nb acc from acc = c_{K-1} down to k = 0, with the c_k of
    ``_boole_coefficients`` and K = 30."""
    z = cmath.exp(2j * math.pi * alpha)
    nb = n_cutoff + beta
    coeffs = _boole_coefficients(z)
    acc = np.full(sv.shape, coeffs[-1], dtype=complex)
    for k in range(_BOOLE_TERMS - 2, -1, -1):
        acc = coeffs[k] - (sv + k) / nb * acc
    return z ** n_cutoff * np.exp(-sv * math.log(nb)) * acc


# ---------------------------------------------------------------------------
# The zeta kernel and its views
# ---------------------------------------------------------------------------

def _zeta_sum(s, shift: float, tol, twist: float = 1.0, start: int = 0,
              cutoff: int | None = None, order: int = _EM_TERMS):
    """(values, bound) of sum_{n >= start} e^(2 pi i n twist) (n + shift)^-s
    within ``tol``, 0 < twist <= 1: the one kernel behind every zeta value.

    ``s`` is one complex number (a complex out) or an array on one vertical
    line (an array of its shape out); a shift outside (0, 1], non-finite
    points and points off one line are refused.  The bound, taken at the largest
    |Im s|, covers every point: ``_em_bound`` (M = 14) at twist 1, where
    Re s <= 0 is refused and s = 1 raises PoleError, and ``_boole_bound``
    otherwise.  ``_em_cutoff`` sizes N >= max(start, 16) from it; a given
    ``cutoff`` (and at twist 1 ``order`` M <= 14, the most the Bernoulli
    table serves) replaces N, and ``tol`` is then not read; a cutoff below
    ``start`` is refused.  The head start..N-1 is one ``_head_sum``,
    twist-weighted only when twisted, and ``_em_closure`` or
    ``_boole_closure`` closes the tail.
    The bound is the tail's truncation only: the rounding of the head, and
    on a NUFFT head its kernel error, are not counted in it yet.  With
    debug logging on, each call logs its point count, N, order and bound.
    """
    points = np.asarray(s, dtype=complex)
    if not 0 < shift <= 1:
        raise InvalidParameterError(f"alpha must lie in (0, 1], got {shift}")
    if cutoff is not None and cutoff < start:
        raise InvalidParameterError(f"cutoff {cutoff} is below start {start}")
    if points.size == 0:
        return np.empty(points.shape, dtype=complex), 0.0
    worst = _line_worst(points)
    twisted = twist != 1
    if twisted:
        bound, order = _boole_bound(worst, twist, shift), _BOOLE_TERMS
    else:
        if worst.real <= 0:
            raise InvalidParameterError(
                f"Euler-Maclaurin path needs Re(s) > 0, got Re(s) = {worst.real}")
        if np.any(points == 1):
            raise PoleError("zeta(s, alpha) has its pole at s = 1")
        bound = _em_bound(worst, shift, order)
    n_cutoff = _em_cutoff(bound, tol, start) if cutoff is None else cutoff
    remainder = bound(n_cutoff)
    logger.debug("%s: %d points, N = %d, %s = %d, bound %.3e",
                 "Euler-Boole" if twisted else "Euler-Maclaurin", points.size,
                 n_cutoff, "K" if twisted else "M", order, remainder)
    n = np.arange(start, n_cutoff)
    weights = np.exp(2j * math.pi * twist * n) if twisted else None
    head = _head_sum(points, np.log(n + shift), weights).ravel()
    sv = points.ravel()
    value = head + (_boole_closure(sv, n_cutoff, shift, twist) if twisted
                    else _em_closure(sv, n_cutoff, shift, order))
    if points.ndim == 0:
        return complex(value[0]), remainder
    return value.reshape(points.shape), remainder


def hurwitz_zeta(s: complex, alpha: float, target_error: float = 1e-12) -> complex:
    """zeta(s, alpha) = sum_{n>=0} (n+alpha)^-s for Re(s) > 0, s != 1.

    Raises PoleError at s = 1 and PrecisionError if meeting ``target_error``
    would need a cutoff above 2^21.
    """
    return _zeta_sum(s, alpha, target_error)[0]


def hurwitz_zeta_with_error(
    s: complex, alpha: float, target_error: float = 1e-12
) -> tuple[complex, float]:
    """zeta(s, alpha) and its remainder bound, which is at most ``target_error``."""
    return _zeta_sum(s, alpha, target_error)


def riemann_zeta(s: complex, target_error: float = 1e-12) -> complex:
    """zeta(s) for Re(s) > 0, s != 1 (Euler-Maclaurin, alpha = 1)."""
    return _zeta_sum(s, 1.0, target_error)[0]


def hurwitz_tail_sum(
    w,
    alpha: float,
    start: int,
    target_error: float = 1e-12,
):
    """sum_{n >= start} (n + alpha)^-w with a certified bound, Re(w) > 1.

    ``w`` is one complex number or an array on one vertical line; one cutoff,
    sized at the largest |Im w|, and the Euler-Maclaurin closure of the zeta
    evaluators serve every point.  alpha^w times the value is the tail of
    ``series.hurwitz_family(alpha, start)`` beyond its ``start`` terms, at
    s = w - 1/2; no function of the package calls it.
    """
    if np.any(np.real(w) <= 1):
        raise InvalidParameterError(f"tail sum diverges for Re(w) = {np.min(np.real(w))}")
    return _zeta_sum(w, alpha, target_error, start=start)


def hurwitz_zeta_grid(
    alpha: float,
    ts: np.ndarray,
    sigma: float = 1.0,
    target_error: float = 1e-9,
) -> np.ndarray:
    """Vectorized zeta(sigma + i t, alpha) on an array of ordinates.

    One cutoff, sized for the worst |t| in the block, serves every point;
    inputs with sigma + i t == 1 are rejected.  On Re s = 1 it gives the
    bits of ``lerch_phi(1, alpha, 1 + 1j * ts)``, which the scans call, so
    no function of the package calls it; it stays because ``perfbench``
    checks scan values with it and its tracer wraps it by name.  With debug
    logging on, each call logs two lines: one from ``_zeta_sum`` (point
    count, cutoff N, order M, bound) and one from ``_head_sum`` (point
    count, N as the head's term count, head path).
    """
    return _zeta_sum(sigma + 1j * np.asarray(ts, dtype=float), alpha, target_error)[0]


def lerch_phi(alpha: float, beta: float, s, target_error: float = 1e-10):
    """phi(alpha, beta; s) = sum_{n>=0} e^(2 pi i n alpha) (n+beta)^-s.

    ``s`` is one complex number, which gives a complex, or an array of points
    on one vertical line, which gives an array of the same shape.  Valid for
    0 < alpha, beta <= 1 and Re(s) >= 1, excluding the pole at
    (alpha, s) = (1, 1).  For alpha = 1 the twist is trivial and the value
    is zeta(s, beta).  Otherwise, with z = e^(2 pi i alpha) and a = N + beta,
    the tail is closed by Euler-Boole summation,

        sum_{n>=N} z^n (n+beta)^-s = z^N a^-s sum_{k<K} c_k (-1)^k (s)_k a^-k + R_K,

    K = 30, with N the smallest cutoff >= 16 at which the bound on R_K
    (``_boole_bound``), taken at the largest |Im s|, meets ``target_error``.
    Both are one ``_zeta_sum`` call, whose bound is dropped here.
    """
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise InvalidParameterError("lerch_phi needs 0 < alpha, beta <= 1")
    points = np.asarray(s, dtype=complex)
    if np.any(points.real < 1):
        raise InvalidParameterError(
            f"lerch_phi implemented for Re(s) >= 1, got Re(s) = {np.min(points.real)}"
        )
    return _zeta_sum(points, beta, target_error, alpha)[0]


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


@functools.cache
def kappa_constants() -> KappaConstants:
    """The constants, computed once: every T15/T16/T21/T22 bound reads them."""
    kappa_half = 0.5 * math.log(math.tanh(math.pi) + 1.0 / math.pi)
    kappa_printed = math.log(math.tanh(math.pi) + 1.0 / math.pi)
    kappa_alt = math.log(1.0 / math.tanh(math.pi) + 1.0 / math.pi)
    c0 = kappa_half + math.log(1.0 + 3.0 * math.pi) + math.log(2.0)
    return KappaConstants(kappa_half, kappa_printed, kappa_alt, c0)


#: Euler-Mascheroni constant (used by the sharp short-interval asymptotic).
EULER_GAMMA: float = 0.5772156649015329
