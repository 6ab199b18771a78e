"""Reference-evaluator tests: Lambert W, zeta family, named constants.

Expected values either come from closed forms, from independent brute-force
oracles implemented inline (plain partial sums with crude tail corrections),
from mpmath at 20 digits, or from the printed decimals the constants must
reproduce.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardyseries import special as sp
from hardyseries.errors import InvalidParameterError, PoleError, PrecisionError


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def test_lambert_w0_trivial_points():
    assert sp.lambert_w0(0.0) == 0.0
    assert abs(sp.lambert_w0(math.e) - 1.0) < 1e-14


def test_lambert_w0_omega_constant():
    # Newton oracle on w e^w = 1 from w0 = 0.5, run to convergence here.
    w = 0.5
    for _ in range(50):
        ew = math.exp(w)
        w -= (w * ew - 1.0) / (ew * (w + 1.0))
    assert abs(w - 0.5671432904) < 1e-9
    assert abs(sp.lambert_w0(1.0) - 0.5671432904) < 1e-9


def test_lambert_w0_residual_on_log_grid():
    for x in np.logspace(-8, 8, 65):
        w = sp.lambert_w0(float(x))
        resid = abs(w * math.exp(w) - x)
        assert resid <= 1e-12 * max(1.0, x)


def test_lambert_w0_domain_error():
    with pytest.raises(InvalidParameterError):
        sp.lambert_w0(-0.5)


@given(st.floats(min_value=0.0, max_value=1e8, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_lambert_w0_residual_property(x):
    w = sp.lambert_w0(x)
    assert w >= 0.0
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)


class _CountingMath:
    """``math`` with a count of its ``log`` and ``exp`` calls, at least one
    per Newton step of ``lambert_w0``."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.calls += 1
        return math.log(x)

    def exp(self, x):
        self.calls += 1
        return math.exp(x)


# small x, where a residual |w e^w - x| <= 1e-14 max(1, x) admits
# log(1 + x), x/2 relative too large; large x, where w e^w rounds at about
# w u x; and x past 2.5e305, where w e^w overflows
@example(1.4e-7)
@example(6e57)
@example(7.099624383145031e306)
@example(1.7e308)
@given(st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1.7e308)))
@settings(max_examples=300, deadline=None)
def test_lambert_w0_matches_mpmath_on_every_finite_x(x):
    mpmath = pytest.importorskip("mpmath")
    counting = _CountingMath()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sp, "math", counting)
        w = sp.lambert_w0(x)
    assert counting.calls <= 8, f"{counting.calls} steps"
    with mpmath.workdps(30):
        ref = mpmath.lambertw(x).real
        assert abs(w - ref) <= 1e-14 * ref


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

def test_zeta_two_closed_form():
    assert abs(sp.riemann_zeta(2.0) - math.pi ** 2 / 6) < 1e-10


def test_zeta_at_lemma_point():
    z = sp.riemann_zeta(1.7378)
    assert abs(z.imag) < 1e-12
    assert abs(z.real - 1.98357) < 2e-5


def _zeta_bruteforce(s: complex, n_cutoff: int) -> complex:
    # Plain partial sum plus the leading integral tail; no Bernoulli terms.
    n = np.arange(1, n_cutoff + 1)
    head = np.sum(n ** (-s))
    return head + n_cutoff ** (1 - s) / (s - 1) - 0.5 * n_cutoff ** (-s)


def test_zeta_complex_against_bruteforce():
    s = 1 + 10j
    ref = _zeta_bruteforce(s, 10 ** 6)
    assert abs(sp.riemann_zeta(s) - ref) < 1e-8


def test_zeta_pole_and_domain():
    with pytest.raises(PoleError):
        sp.riemann_zeta(1.0)
    with pytest.raises(InvalidParameterError):
        sp.riemann_zeta(-0.5)
    with pytest.raises(InvalidParameterError):
        sp.riemann_zeta(2.0, target_error=0.0)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

def _identity_grid():
    sigmas = np.linspace(0.25, 3.0, 10)
    ims = np.array([0.0, 3.0, 11.0, 27.0, 50.0])
    return [complex(sg, t) for sg in sigmas for t in ims]


def test_hurwitz_alpha_one_is_riemann():
    for s in (2.0, 1.5, 1 + 5j):
        assert abs(sp.hurwitz_zeta(s, 1.0) - sp.riemann_zeta(s)) < 1e-10


def test_hurwitz_half_identity_at_two():
    val = sp.hurwitz_zeta(2.0, 0.5)
    assert abs(val - (2 ** 2 - 1) * math.pi ** 2 / 6) < 1e-10
    assert abs(val - math.pi ** 2 / 2) < 1e-10


def test_hurwitz_identities_on_grid():
    for s in _identity_grid():
        z = sp.riemann_zeta(s)
        assert abs(sp.hurwitz_zeta(s, 1.0) - z) < 1e-10
        assert abs(sp.hurwitz_zeta(s, 0.5) - (2 ** s - 1) * z) < 1e-10


def test_hurwitz_against_bruteforce_sum():
    s, alpha = 1 + 1j, 0.3
    n_cutoff = 10 ** 7
    total = 0j
    for lo in range(0, n_cutoff, 10 ** 6):
        n = np.arange(lo, min(lo + 10 ** 6, n_cutoff))
        total += np.sum((n + alpha) ** (-s))
    na = n_cutoff + alpha
    ref = total + na ** (1 - s) / (s - 1) + 0.5 * na ** (-s)
    assert abs(sp.hurwitz_zeta(s, alpha, 1e-9) - ref) < 1e-6


def test_hurwitz_em_stability_under_refinement():
    # truncation bounds plus a roundoff floor for the double-precision sums
    for s, alpha in [(1 + 7j, 0.3), (0.75 + 20j, 1.0), (2.5, 0.6)]:
        v1, b1 = sp._zeta_sum(complex(s), alpha, None, cutoff=128, order=12)
        v2, b2 = sp._zeta_sum(complex(s), alpha, None, cutoff=256, order=14)
        assert abs(v1 - v2) <= b1 + b2 + 5e-14 * max(1.0, abs(v1))


def test_hurwitz_cutoff_rule_against_mpmath():
    # a loose request gets a loose (cheap) bound, not a 1e-12 one
    _, bound = sp.hurwitz_zeta_with_error(1 + 1000j, 1.0, 1e-6)
    assert 1e-12 < bound <= 1e-6
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2015)
    for _ in range(24):
        s = complex(rng.uniform(0.25, 3.0), rng.uniform(0.0, 1000.0))
        alpha = rng.uniform(0.01, 1.0)
        tol = 10.0 ** rng.uniform(-12.0, -6.0)
        value, bound = sp.hurwitz_zeta_with_error(s, alpha, tol)
        # the cutoff is the smallest one whose bound meets tol
        remainder = sp._em_bound(s, alpha)
        n_cutoff = sp._em_cutoff(remainder, tol)
        assert bound == remainder(n_cutoff) <= tol
        assert n_cutoff == 16 or remainder(n_cutoff - 1) > tol
        with mpmath.workdps(20):
            ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), alpha))
        assert abs(value - ref) <= bound + 1e-12 * max(1.0, abs(ref))


def test_hurwitz_grid_matches_scalar():
    ts = np.array([0.5, 10.0, 123.0, 1000.0])
    vals = sp.hurwitz_zeta_grid(0.7, ts, sigma=1.0, target_error=1e-10)
    for t, v in zip(ts, vals):
        assert abs(v - sp.hurwitz_zeta(1 + 1j * t, 0.7, 1e-11)) < 1e-9
    # one scan band: 4000 nodes at h = delta / 8 ending near t = 1000
    mpmath = pytest.importorskip("mpmath")
    ts = 975.0 + (0.05 / 8) * np.arange(4000)
    vals = sp.hurwitz_zeta_grid(0.3, ts, sigma=1.0, target_error=1e-9)
    for j in (0, 2000, 3999):
        with mpmath.workdps(20):
            ref = complex(mpmath.zeta(mpmath.mpc(1.0, ts[j]), 0.3))
        assert abs(vals[j] - ref) <= 1e-9


def _cumprod_closure(sv, alpha, n_cutoff, m_terms):
    # the closure as built before the Horner form: every other partial
    # product of (s + j)/na times B_2k/(2k)!, and na^-s as a complex pow
    na = n_cutoff + alpha
    rising = np.cumprod((sv[:, None] + np.arange(2 * m_terms - 1)) / na, axis=1)
    corrections = rising[:, ::2] @ sp._B2K_OVER_FACT[:m_terms]
    return na ** (-sv) * (na / (sv - 1) + 0.5 + corrections)


def test_horner_closure_matches_cumprod_closure():
    # start = N leaves an empty head, so the value is the closure alone.
    # t stays below 3.4 N, where the cutoff rule puts it at target 1e-9
    # (N ~ 0.29 t); far beyond, the Bernoulli terms grow and both forms
    # lose every digit to cancellation.
    rng = np.random.default_rng(2015)
    eps = np.finfo(float).eps
    for m_terms in (1, 12, 14):  # 14 = M, the most the Bernoulli table serves
        for _ in range(40):
            n_cutoff = int(np.exp(rng.uniform(math.log(16), math.log(30000))))
            alpha = 1.0 - rng.uniform(0.0, 1.0)  # in (0, 1]
            t_max = min(1e5, 3.4 * n_cutoff)
            sv = rng.uniform(0.25, 3.0) + 1j * rng.uniform(0.0, t_max, 64)
            value, _ = sp._zeta_sum(sv, alpha, None, start=n_cutoff, cutoff=n_cutoff,
                                    order=m_terms)
            oracle = _cumprod_closure(sv, alpha, n_cutoff, m_terms)
            assert np.all(np.abs(value - oracle) <= 4 * eps * np.abs(oracle))


def test_one_point_and_grid_give_identical_bits():
    rng = np.random.default_rng(92)
    # 4000 ordinates off any progression take the per-row head, so a whole
    # value repeats: the point of largest |t| alone sizes the same cutoff
    ts = rng.uniform(0.0, 900.0, 4000)
    grid, grid_bound = sp.hurwitz_zeta_with_error(0.8 + 1j * ts, 0.4, 1e-10)
    top = int(np.argmax(ts))
    assert sp.hurwitz_zeta_with_error(complex(0.8, ts[top]), 0.4, 1e-10) == (
        grid[top], grid_bound)
    # a 4000-node scan band takes the NUFFT head; its closure alone
    # (start = N) is still the one-point closure, bit for bit
    band = 1.0 + 1j * (500.0 + _SCAN_H * np.arange(4000))
    closures, _ = sp._zeta_sum(band, 0.3, None, start=160, cutoff=160)
    for j in (0, 1234, 3999):
        assert sp._zeta_sum(band[j], 0.3, None, start=160, cutoff=160)[0] == closures[j]


def test_boole_closure_one_point_and_band_give_identical_bits():
    # the Euler-Boole closure alone (start = N, sized on the band) on a
    # 4000-node scan band is the one-point closure, bit for bit
    band = 1.0 + 1j * (500.0 + _SCAN_H * np.arange(4000))
    n_cutoff = sp._em_cutoff(sp._boole_bound(complex(band[-1]), 0.3, 0.7), 1e-9)
    closures, _ = sp._zeta_sum(band, 0.7, None, 0.3, start=n_cutoff, cutoff=n_cutoff)
    for j in (0, 1234, 3999):
        one = sp._zeta_sum(band[j], 0.7, None, 0.3, start=n_cutoff, cutoff=n_cutoff)[0]
        assert one == closures[j]


def test_far_bands_meet_their_bound_against_mpmath():
    # 4000-node bands ending at t = 10^4 and 10^5; mpmath's zeta at
    # alpha = 1 stays fast at 10^5, at alpha = 0.3 it takes seconds a point
    mpmath = pytest.importorskip("mpmath")
    for t_end, alpha in ((1e4, 0.3), (1e5, 1.0)):
        ts = t_end - _SCAN_H * np.arange(4000)[::-1]
        values, bound = sp._zeta_sum(1.0 + 1j * ts, alpha, 1e-9)
        assert bound <= 1e-9
        for j in (0, 1999, 3999):
            with mpmath.workdps(20):
                ref = complex(mpmath.zeta(mpmath.mpc(1.0, ts[j]), alpha))
            assert abs(values[j] - ref) <= bound


# ---------------------------------------------------------------------------
# progression head sums on uniform grids: the 1-d bands below take the
# NUFFT, the 2-d rows a phase table per piece
# ---------------------------------------------------------------------------

_SCAN_H = 0.05 / 8  # grid step of a hurwitz_scan band at delta = 0.05


def _per_row_head(sv, log_n, weights=None):
    # one complex exp per (point, term), weighted and summed per row
    terms = np.exp(np.multiply.outer(-sv, log_n))
    return (terms if weights is None else weights * terms).sum(axis=1)


def _least_factors(count: int) -> list:
    # least[n] is the least prime factor of n >= 2
    least = list(range(count + 1))
    for n in range(2, count + 1):
        least[n] = next(p for p in range(2, n + 1) if n % p == 0)
    return least


def _euler_reference(sv, log_n, weights=None):
    # the classical head as its Euler product builds it, one term at a time
    # in increasing n: exp(-s log p) at a prime p, row p times row m at a
    # composite n = p m, p its least prime factor; weighted (the weights
    # first) and added one term at a time in term order
    least = _least_factors(log_n.size)
    rows = {1: np.ones(sv.shape, dtype=complex)}
    total = rows[1] if weights is None else weights[0] * rows[1]
    for n in range(2, log_n.size + 1):
        p = least[n]
        rows[n] = np.exp(-sv * log_n[n - 1]) if p == n else rows[p] * rows[n // p]
        total = total + (rows[n] if weights is None else weights[n - 1] * rows[n])
    return total


def _primes_below(count: int) -> int:
    least = _least_factors(count)
    return sum(least[n] == n for n in range(2, count + 1))


def test_nufft_band_head_matches_per_row_and_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1988)
    for t0 in (100.0, 500.0, 996.0):
        ts = t0 + _SCAN_H * np.arange(4000)
        assert sp._progression_step(ts) == pytest.approx(_SCAN_H, rel=1e-12)
        for alpha in (0.3, 0.5, 1.0):
            n_cutoff = sp._em_cutoff(sp._em_bound(complex(1.0, ts[-1]), alpha), 1e-9)
            log_n = np.log(np.arange(n_cutoff) + alpha)
            head = sp._head_sum(1.0 + 1j * ts, log_n)
            scale = np.sum(np.exp(-log_n))  # sum (n + alpha)^-sigma
            deviation = np.abs(head - _per_row_head(1.0 + 1j * ts, log_n))
            assert np.max(deviation) <= 1e-11 * scale
            vals = sp.hurwitz_zeta_grid(alpha, ts, 1.0, 1e-9)
            j = int(rng.integers(ts.size))
            with mpmath.workdps(20):
                ref = complex(mpmath.zeta(mpmath.mpc(1.0, ts[j]), alpha))
            assert abs(vals[j] - ref) <= 1e-9 + 1e-11
    # the twisted Lerch head: the twist is a per-term factor of each block row
    alpha, beta = 0.3, 0.7
    ts = 500.0 + _SCAN_H * np.arange(4000)
    n = np.arange(sp._em_cutoff(sp._boole_bound(complex(1.0, ts[-1]), alpha, beta), 1e-9))
    log_n, twist = np.log(n + beta), np.exp(2j * np.pi * alpha * n)
    head = sp._head_sum(1.0 + 1j * ts, log_n, twist)
    deviation = np.abs(head - _per_row_head(1.0 + 1j * ts, log_n, twist))
    assert np.max(deviation) <= 1e-11 * np.sum(np.exp(-log_n))
    vals = sp.lerch_phi(alpha, beta, 1.0 + 1j * ts, 1e-9)
    j = int(rng.integers(ts.size))
    assert abs(vals[j] - _lerch_mpmath(alpha, beta, ts[j])) <= 1e-9 + 1e-11
    # a head longer than one piece of 4096 terms, the weights cut with it
    ts = 5000.0 + _SCAN_H * np.arange(200)
    n = np.arange(9000)
    log_n, twist = np.log(n + beta), np.exp(2j * np.pi * alpha * n)
    head = sp._head_sum(1.0 + 1j * ts, log_n, twist)
    deviation = np.abs(head - _per_row_head(1.0 + 1j * ts, log_n, twist))
    assert np.max(deviation) <= 1e-11 * np.sum(np.exp(-log_n))


def test_off_progression_head_is_per_row_bit_for_bit():
    log_n = np.log(np.arange(200) + 0.5)
    ts = 500.0 + _SCAN_H * np.arange(4000)
    off = ts.copy()
    off[1234] += 1e-6
    near = ts.copy()  # off by 64 ulp of max|t|, beyond the 8-ulp slack
    near[1234] += 64 * np.spacing(ts[-1])
    # the first scan band, whose t = 0 node is nudged to 1e-9
    nudged = _SCAN_H * np.arange(4000)
    nudged[0] = 1e-9
    # rows of 9 window nodes: one row off the progression, the first band
    # of a scan from t = 0 with its nudged node, and rows of one point
    windows = np.add.outer(0.1 * np.arange(444), _SCAN_H * np.arange(9))
    off_row = 500.0 + windows
    off_row[123, 4] += 1e-6
    nudged_row = windows.copy()
    nudged_row[0, 0] = 1e-9
    # rows of 65 points on one progression: longer than a phase-table row
    wide = 500.0 + np.add.outer(0.5 * np.arange(20), _SCAN_H * np.arange(65))
    grids = (off, near, nudged, ts[:2 * 64 - 1], off_row, nudged_row,
             500.0 + windows[:, :1], wide)
    for grid in grids:
        assert sp._progression_step(grid) is None
        sv = 1.0 + 1j * grid
        expected = _per_row_head(sv.ravel(), log_n).reshape(grid.shape)
        assert np.array_equal(sp._head_sum(sv, log_n), expected)


@pytest.mark.parametrize("width", [9, 2])
def test_row_phase_head_matches_per_row_and_mpmath(width):
    # 25 rows t_b + r h with one step h, as the 9 nodes of each window of a
    # scan whose t_step exceeds delta: one anchor row per window times a
    # width-row phase table
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1988 + width)
    alpha, beta = 0.3, 0.7
    for t0 in (100.0, 1000.0, 1e4):
        ts = t0 + np.add.outer(8.0 * np.arange(25), _SCAN_H * np.arange(width))
        assert sp._progression_step(ts) == pytest.approx(_SCAN_H, rel=1e-9)
        sv = 1.0 + 1j * ts
        # the zeta head, then the twisted Lerch head; at t = 10^4 the Lerch
        # head is longer than one piece of 4096 terms
        n_zeta = np.arange(sp._em_cutoff(sp._em_bound(complex(1.0, ts.max()), alpha),
                                         1e-9))
        n_lerch = np.arange(sp._em_cutoff(sp._boole_bound(complex(1.0, ts.max()), alpha,
                                                          beta), 1e-9))
        for log_n, twist in ((np.log(n_zeta + alpha), None),
                             (np.log(n_lerch + beta),
                              np.exp(2j * np.pi * alpha * n_lerch))):
            head = sp._head_sum(sv, log_n, twist)
            assert head.shape == ts.shape
            deviation = np.abs(head - _per_row_head(sv.ravel(), log_n, twist)
                               .reshape(ts.shape))
            assert np.max(deviation) <= 1e-11 * np.sum(np.exp(-log_n))
        if t0 == 1e4:
            assert n_lerch.size > sp._PHASE_TERMS
        b, r = int(rng.integers(ts.shape[0])), int(rng.integers(width))
        zeta = sp.hurwitz_zeta_grid(alpha, ts, 1.0, 1e-9)
        with mpmath.workdps(20):
            ref = complex(mpmath.zeta(mpmath.mpc(1.0, ts[b, r]), alpha))
        assert abs(zeta[b, r] - ref) <= 1e-9 + 1e-11
        if t0 < 1e4:  # mpmath's Lerch sum takes seconds at t = 10^4
            phi = sp.lerch_phi(alpha, beta, sv, 1e-9)
            assert abs(phi[b, r] - _lerch_mpmath(alpha, beta, ts[b, r])) <= 1e-9 + 1e-11


def _recurrence_bound(sv, log_n, weights=None) -> float:
    """The bound of ``_head_sum`` on a 2-d progression head against the
    per-point sums of the same points: each term's phase moves by at most
    32 ulp(T) |x_n|, T = max|t|, and its value by at most 64 + R further
    products of 4 u each, u = 2^-53, plus the rounding of two sums of N
    terms."""
    u = 2.0 ** -53
    size = np.exp(-sv.real.flat[0] * log_n) * (1.0 if weights is None else np.abs(weights))
    phase = 32 * np.spacing(np.max(np.abs(sv.imag))) * np.abs(log_n)
    return float(np.sum(size * phase)
                 + (4 * (64 + sv.shape[1]) + 2 * log_n.size) * u * np.sum(size))


def test_recurrent_anchor_bands_meet_mpmath():
    # (444, 9) bands of disjoint windows, whose anchors recur from one direct
    # row in 64, at nodes of rows 0 and 64 (direct anchors) and 63 and 443
    # (63 and 59 products from one): zeta(s, 1/2) = (2^s - 1) zeta(s) at
    # t ~ 1e4, and on the twisted path phi(1/2, 1; s) = (1 - 2^(1-s)) zeta(s)
    # at t ~ 1e5, whose mpmath zeta takes milliseconds (mpmath.lerchphi
    # overflows at these heights); each within 1e-9, and no further from
    # mpmath than the same nodes summed per point, with the band's cutoff,
    # plus the bound of the recurrences
    mpmath = pytest.importorskip("mpmath")
    nodes = ((0, 0), (63, 8), (64, 0), (443, 8))
    for t0, twist, shift, factor in ((1e4, 1.0, 0.5, lambda s: 2 ** s - 1),
                                     (1e5, 0.5, 1.0, lambda s: 1 - 2 ** (1 - s))):
        ts = t0 + np.add.outer(0.1 * np.arange(444), _SCAN_H * np.arange(9))
        sv = 1.0 + 1j * ts
        band = sp.lerch_phi(twist, shift, sv, 1e-9)
        worst = complex(1.0, ts.max())
        n = np.arange(sp._em_cutoff(sp._em_bound(worst, shift) if twist == 1
                                    else sp._boole_bound(worst, twist, shift), 1e-9))
        points = np.array([[sv[b, r]] for b, r in nodes])  # one point per row
        alone, _ = sp._zeta_sum(points, shift, 1e-9, twist, cutoff=n.size)
        weights = None if twist == 1 else np.exp(2j * np.pi * twist * n)
        slack = _recurrence_bound(sv, np.log(n + shift), weights)
        for (b, r), one in zip(nodes, alone[:, 0]):
            with mpmath.workdps(20):
                s = mpmath.mpc(1.0, ts[b, r])
                ref = complex(factor(s) * mpmath.zeta(s))
            assert abs(band[b, r] - ref) <= 1e-9
            assert abs(band[b, r] - ref) <= abs(one - ref) + slack


def test_recurrent_rows_match_per_point_within_bound(caplog):
    # random 2-d progressions up to t = 1e6, anchors a progression of their
    # own; the first, 100 rows of 9 points and 5000 terms, has blocks of 16
    # rows that cut the anchor runs, and restarts them in its second piece
    rng = np.random.default_rng(35)
    caplog.set_level("DEBUG", logger="hardyseries.special")
    for case in range(8):
        width = 9 if case == 0 else int(rng.integers(2, sp._PHASE_ROWS + 1))
        rows = 100 if case == 0 else int(rng.integers(2, 1000 // width + 1))
        h = rng.uniform(1e-3, 0.1)
        ts = 10 ** rng.uniform(1.0, 6.0) + np.add.outer(
            rng.uniform(width * h, 100.0) * np.arange(rows), h * np.arange(width))
        sv = rng.uniform(0.5, 1.0) + 1j * ts
        n = np.arange(5000 if case == 0 else int(rng.integers(50, 700)))
        log_n = np.log(n + rng.uniform(0.05, 1.0))
        weights = np.exp(2j * np.pi * rng.uniform() * n) if case % 2 else None
        caplog.clear()
        head = sp._head_sum(sv, log_n, weights)
        assert "anchors by recurrence" in caplog.records[-1].getMessage()
        per_point = sp._head_sum(sv.reshape(-1, 1), log_n, weights).reshape(sv.shape)
        assert np.max(np.abs(head - per_point)) <= _recurrence_bound(sv, log_n, weights)


class _CountingNumpy:
    """numpy, with the elements of every ``exp`` call counted."""

    def __init__(self):
        self.exps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exps += np.size(x)
        return np.exp(x, *args, **kwargs)


def test_recurrent_band_exps_and_memory(monkeypatch, caplog):
    # a (444, 9) band of 700 Lerch terms: the anchors of rows 0, 64, ..., 384
    # are direct, every other anchor and the table recur, so the head takes
    # (7 + 2) N exponentials where one per (row, term) and per (offset,
    # term) took 453 N; its peak stays within its block, table and head,
    # and the band of a scan from t = 0, its first row nudged, keeps direct
    # anchors
    n = np.arange(700)
    log_n, weights = np.log(n + 0.7), np.exp(2j * np.pi * 0.3 * n)
    windows = np.add.outer(0.1 * np.arange(444), _SCAN_H * np.arange(9))
    nudged = windows.copy()
    nudged[0] += 1e-9
    caplog.set_level("DEBUG", logger="hardyseries.special")
    counting = _CountingNumpy()
    for ts, exp_rows, rule in ((500.0 + windows, 9, "anchors by recurrence of step 0.1"),
                               (nudged, 445, "direct anchors")):
        sv = 1.0 + 1j * ts
        counting.exps = 0
        with monkeypatch.context() as patch:
            patch.setattr(sp, "np", counting)
            head = sp._head_sum(sv, log_n, weights)
        assert counting.exps <= exp_rows * n.size
        assert caplog.records[-1].getMessage() == (
            f"phase-matrix: 444 rows of 9, {rule}, {exp_rows} exp rows per piece")
        tracemalloc.start()
        try:
            again = sp._head_sum(sv, log_n, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again, head)
        if exp_rows == 9:
            block = sp._HEAD_BLOCK // n.size * n.size
            assert peak <= 16 * (block + 9 * n.size + ts.size) + 64 * 1024, peak


def test_per_row_head_builds_one_block_at_a_time():
    # 300 points off any progression times 1000 terms: five blocks of 65
    # rows, so the peak is one block of 2^16 complex entries, not two; and
    # 3 points times 200 000 terms, whose pieces of 4096 terms keep a block
    # at 3 x 4096 entries where one row of 200 000 would exceed 2^16
    rng = np.random.default_rng(16)
    for points, terms in ((300, 1000), (3, 200_000)):
        sv = 1.0 + 1j * np.sort(rng.uniform(900.0, 1000.0, points))
        log_n = np.log(np.arange(terms) + 0.5)
        assert sp._progression_step(sv.imag) is None
        tracemalloc.start()
        try:
            head = sp._head_sum(sv, log_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sp._HEAD_BLOCK * 16, f"peak {peak} bytes"
        if terms <= sp._PHASE_TERMS:
            assert np.array_equal(head, _per_row_head(sv, log_n))
        else:  # the pieces' sums added: within rounding of one sum per row
            scale = np.sum(np.exp(-log_n))
            assert np.max(np.abs(head - _per_row_head(sv, log_n))) <= 1e-14 * scale


def test_stacked_head_is_the_one_row_calls_bit_for_bit():
    # a (K, terms) weight stack, one weight row per row of points: rows
    # repeat (they share one exponential table), K = 1 included, and rows
    # of 200 evenly spaced points stay per-row where a 1-d call would not.
    # Classical exponents take the Euler product, others one exp per
    # (point, term)
    rng = np.random.default_rng(1405)
    window = 0.05 * np.arange(33) / 32
    for log_n, reference in ((np.log(np.arange(16) + 1.0), _euler_reference),
                             (np.log(np.arange(16) + 0.5), _per_row_head)):
        for k_rows, width, spaced in ((12, 33, False), (1, 33, False), (5, 200, True)):
            ts = (window[None] if width == 33 else np.linspace(0.0, 3.0, width)[None]) \
                + rng.choice([0.0, 0.5, 9.0], size=(k_rows, 1))
            if not spaced:
                ts[::4, 7] += 1e-3  # some rows off the progression
            weights = rng.normal(size=(k_rows, 16)) + 1j * rng.normal(size=(k_rows, 16))
            sv = 1j * ts
            head = sp._head_sum(sv, log_n, weights)
            assert head.shape == ts.shape
            for k in range(k_rows):
                expected = reference(sv[k], log_n, weights[k])
                assert np.array_equal(head[k], expected)
                if not spaced:
                    assert np.array_equal(head[k], sp._head_sum(sv[k], log_n, weights[k]))


def test_classical_head_is_the_euler_product_bit_for_bit(monkeypatch, caplog):
    # x = log(1 .. N), N <= 4096, on the per-row path: pi(N) exps per point,
    # each prime row the bits of the direct exp, and the head the bits of
    # the Euler reference, for one point, a few, and more than one block;
    # one ulp off log(1 .. N), or N > 4096, is a head of one exp per term
    rng = np.random.default_rng(36)
    caplog.set_level("DEBUG", logger="hardyseries.special")
    counting = _CountingNumpy()
    for count in (1, 2, 8, 20, 512):
        log_n = np.log(np.arange(count) + 1.0)
        weights = rng.normal(size=count) + 1j * rng.normal(size=count)
        plan = sp._euler_plan(log_n)
        for points in (1, 2, 33, sp._ROW_BLOCK // count + 5):
            sv = 0.5 + 1j * np.sort(rng.uniform(-50.0, 1e3, points))
            counting.exps = 0
            with monkeypatch.context() as patch:
                patch.setattr(sp, "np", counting)
                head = sp._head_sum(sv, log_n, weights)
            assert counting.exps == _primes_below(count) * points
            assert np.array_equal(head, _euler_reference(sv, log_n, weights))
            assert np.array_equal(sp._head_sum(sv, log_n), _euler_reference(sv, log_n))
            table = sp._euler_table(sv, plan)
            direct = np.exp(np.multiply.outer(-sv, log_n)).T
            primes = [n - 1 for n in range(2, count + 1) if _least_factors(n)[n] == n]
            assert table[0].tobytes() == np.ones(points, dtype=complex).tobytes()
            assert table[primes].tobytes() == direct[primes].tobytes()
        assert caplog.records[-1].getMessage() == (
            f"head sum: {points} points, {count} terms, euler-product, "
            f"{_primes_below(count)} exps per point")
    sv = 0.5 + 1j * rng.uniform(0.0, 100.0, 40)
    log_n = np.log(np.arange(20) + 1.0)
    nudged = log_n.copy()
    nudged[5] = np.nextafter(nudged[5], 2.0)
    assert sp._euler_plan(nudged) is None
    assert np.array_equal(sp._head_sum(sv, nudged), _per_row_head(sv, nudged))
    long = np.log(np.arange(sp._PHASE_TERMS + 1) + 1.0)
    assert sp._euler_plan(long) is None
    counting.exps = 0
    with monkeypatch.context() as patch:
        patch.setattr(sp, "np", counting)
        sp._head_sum(sv, long)
    assert counting.exps == long.size * sv.size


@pytest.mark.parametrize("t", [10.0, 1e3, 1e5, 2.6e6])
def test_classical_head_meets_its_bound_against_mpmath(t):
    # |head - sum w_n n^-s| <= u sum |w_n| n^-sigma (2 (|t| + |sigma|) log n
    # + 6 Omega(n) + N), u = 2^-53, the bound of the _euler_table docstring
    # with the sum's N - 1 roundings added; 2.6e6 is the widest ordinate
    # of the Poisson integrals
    mpmath = pytest.importorskip("mpmath")
    u = 2.0 ** -53
    rng = np.random.default_rng(int(t))
    for count, sigma in ((8, 0.5), (20, 0.0), (512, 1.0)):
        log_n = np.log(np.arange(count) + 1.0)
        weights = rng.normal(size=count) + 1j * rng.normal(size=count)
        ts = t + rng.uniform(-1.0, 1.0, 3)
        head = sp._head_sum(sigma + 1j * ts, log_n, weights)
        least = _least_factors(count)
        omega = [0, 0]
        for n in range(2, count + 1):
            omega.append(omega[n // least[n]] + 1)
        n = np.arange(1, count + 1)
        size = np.abs(weights) * n ** -sigma
        for j, tj in enumerate(ts):
            bound = u * np.sum(size * (2 * (abs(tj) + sigma) * np.log(n)
                                       + 6 * np.array(omega[1:]) + count))
            with mpmath.workdps(30):
                s = mpmath.mpc(sigma, tj)
                exact = mpmath.fsum(mpmath.mpc(w.real, w.imag) * mpmath.exp(-s * mpmath.log(k))
                                    for k, w in zip(range(1, count + 1), weights))
                error = float(abs(exact - mpmath.mpc(head[j].real, head[j].imag)))
            assert error <= bound, (count, tj, error, bound)


def test_per_row_head_fills_its_planes_without_buffers():
    # a non-classical per-point head fills the real and imaginary planes of
    # its block in place, so its peak is its head and one block, with no
    # numpy buffer beside them; its bits are the exp per (point, term)
    rng = np.random.default_rng(3601)
    sv = 1.0 + 1j * np.sort(rng.uniform(900.0, 1000.0, 4096))
    log_n = np.log(np.arange(16) + 0.5)
    sp._head_sum(sv, log_n)
    tracemalloc.start()
    try:
        head = sp._head_sum(sv, log_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (sv.size + sp._ROW_BLOCK) + 32 * 1024, peak
    assert np.array_equal(head, _per_row_head(sv, log_n))


@pytest.mark.parametrize("evaluate", [
    lambda s: sp.hurwitz_zeta(s, 0.5),
    lambda s: sp.hurwitz_zeta_grid(0.5, np.array([1.0, s.imag]), s.real),
    lambda s: sp.hurwitz_tail_sum(np.array([s + 1, 2 + 1j]), 0.5, 3),
    lambda s: sp.lerch_phi(0.3, 0.5, s),
], ids=["hurwitz_zeta", "zeta_grid", "tail_sum", "lerch"])
@pytest.mark.parametrize("point", [complex(math.nan, 1.0), complex(1.5, math.nan),
                                   complex(1.5, math.inf)])
def test_non_finite_point_is_named(evaluate, point):
    # refused where the line is read, not as points off one line or as a
    # cutoff bound of nan; 1j * inf is nan + inf j, so the grid warns first
    with np.errstate(invalid="ignore"), \
            pytest.raises(InvalidParameterError, match="non-finite point"):
        evaluate(point)


def test_zeta_grid_logs_its_head_path(caplog):
    caplog.set_level("DEBUG", logger="hardyseries.special")
    sp.hurwitz_zeta_grid(1.0, 100.0 + _SCAN_H * np.arange(4000))
    sp.hurwitz_zeta_grid(1.0, np.array([10.0, 20.0]))
    lines = [r.getMessage() for r in caplog.records if r.name == "hardyseries.special"]
    band = sp._em_bound(complex(1.0, 100.0 + _SCAN_H * 3999), 1.0)
    pair = sp._em_bound(20j + 1.0, 1.0)
    n_band, n_pair = sp._em_cutoff(band, 1e-9), sp._em_cutoff(pair, 1e-9)
    assert lines == [
        _em_line(4000, n_band, band(n_band)),
        f"head sum: 4000 points, {n_band} terms, nufft, grid 8000, half-width 16",
        _em_line(2, n_pair, pair(n_pair)),
        f"head sum: 2 points, {n_pair} terms, euler-product, "
        f"{_primes_below(n_pair)} exps per point",
    ]
    caplog.clear()
    sp.hurwitz_zeta_grid(0.5, np.array([10.0, 20.0]))
    assert caplog.records[-1].getMessage() == f"head sum: 2 points, {n_pair} terms, per-row"


def _em_line(points: int, n_cutoff: int, bound: float) -> str:
    return f"Euler-Maclaurin: {points} points, N = {n_cutoff}, M = 14, bound {bound:.3e}"


def test_em_sum_logs_its_cutoff(caplog):
    # every Euler-Maclaurin entry logs the cutoff it sized: a tail sum from
    # n = 40 (so N >= 40), a one-point zeta and a twist-1 Lerch call
    caplog.set_level("DEBUG", logger="hardyseries.special")
    value, bound = sp.hurwitz_tail_sum(np.array([2 + 1j, 2 + 5j]), 0.5, 40, 1e-12)
    sp.hurwitz_zeta(0.5 + 3j, 0.3, 1e-10)
    sp.lerch_phi(1.0, 0.7, 1 + 1j * np.array([5.0, 7.0]), 1e-9)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("Euler-Maclaurin")]
    tail = sp._em_bound(2 + 5j, 0.5)
    zeta = sp._em_bound(0.5 + 3j, 0.3)
    lerch = sp._em_bound(1 + 7j, 0.7)
    n_tail = sp._em_cutoff(tail, 1e-12, 40)
    n_zeta, n_lerch = sp._em_cutoff(zeta, 1e-10), sp._em_cutoff(lerch, 1e-9)
    assert n_tail >= 40 and bound == tail(n_tail)
    assert lines == [_em_line(2, n_tail, bound), _em_line(1, n_zeta, zeta(n_zeta)),
                     _em_line(2, n_lerch, lerch(n_lerch))]
    # debug off: no line, and the same value bits
    caplog.clear()
    caplog.set_level("INFO", logger="hardyseries.special")
    again, _ = sp.hurwitz_tail_sum(np.array([2 + 1j, 2 + 5j]), 0.5, 40, 1e-12)
    assert not caplog.records and np.array_equal(again, value)


# one 4000-node band at t = 10^4, which takes the NUFFT, and the Lerch
# values of a (444, 9) band of disjoint windows there, whose rows take the
# einsum; a BLAS product V @ E.T in place of the einsum gives other last
# bits on two OpenBLAS threads than on one there
_BAND_DIGEST = """
import hashlib, numpy as np
from hardyseries import special as sp
ts = 1e4 + 0.05 / 8 * np.arange(4000)
windows = 1e4 + np.add.outer(0.1 * np.arange(444), 0.05 / 8 * np.arange(9))
digest = hashlib.sha256(sp.hurwitz_zeta_grid(0.3, ts).tobytes())
digest.update(sp.lerch_phi(0.3, 0.7, 1 + 1j * windows, 1e-9).tobytes())
print(digest.hexdigest())
"""


def test_head_sum_bits_do_not_depend_on_blas_threads():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sp.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": package_root}
        run = subprocess.run([sys.executable, "-c", _BAND_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# NUFFT head sum on long 1-d progressions
# ---------------------------------------------------------------------------

def _head_path(caplog, sv, log_n, weights=None) -> str:
    caplog.clear()
    with caplog.at_level("DEBUG", logger="hardyseries.special"):
        sp._head_sum(sv, log_n, weights)
    return caplog.records[-1].getMessage().split(", ")[2]


@pytest.mark.parametrize("t0", [50.0, 900.0])
def test_nufft_head_matches_per_row(t0, monkeypatch, caplog):
    # Hurwitz heads (weights 1) at shifts 0.5 and 1, and Lerch heads with
    # twist weights e^(2 pi i n alpha) at shift 0.7, whose x_0 = log 0.7 < 0;
    # every head takes the NUFFT, the short heads at t0 = 50 included
    ts = t0 + _SCAN_H * np.arange(4000)
    sv = 1.0 + 1j * ts
    step = sp._progression_step(ts)
    cells = sp._fft_size(2 * ts.size)
    heads = []
    for alpha in (0.5, 1.0):
        n = np.arange(sp._em_cutoff(sp._em_bound(complex(1.0, ts[-1]), alpha), 1e-9))
        heads.append((np.log(n + alpha), None))
    for twist in (0.3, 0.5):
        n = np.arange(sp._em_cutoff(sp._boole_bound(complex(1.0, ts[-1]), twist, 0.7),
                                    1e-9))
        heads.append((np.log(n + 0.7), np.exp(2j * np.pi * twist * n)))
    nufft = [sp._nufft_head(sv, log_n, weights, step, cells) for log_n, weights in heads]
    for (log_n, weights), head in zip(heads, nufft):
        assert _head_path(caplog, sv, log_n, weights) == "nufft"
        assert np.array_equal(sp._head_sum(sv, log_n, weights), head)
    monkeypatch.setattr(sp, "_progression_step", lambda ts: None)
    for (log_n, weights), head in zip(heads, nufft):
        per_row = sp._head_sum(sv, log_n, weights)
        assert np.max(np.abs(head - per_row)) <= 1e-13 * np.sum(np.exp(-log_n))


def test_nufft_band_at_height_meets_mpmath():
    # one 4000-node band at t ~ 1e5 (about 29 000 head terms) against
    # mpmath's Riemann-Siegel zeta at 8 nodes
    mpmath = pytest.importorskip("mpmath")
    ts = 99_900.0 + _SCAN_H * np.arange(4000)
    values = sp.hurwitz_zeta_grid(1.0, ts, 1.0, 1e-9)
    for j in np.linspace(0, ts.size - 1, 8).astype(int):
        with mpmath.workdps(20):
            ref = complex(mpmath.zeta(mpmath.mpc(1.0, ts[j])))
        assert abs(values[j] - ref) <= 1e-9


def test_nufft_band_at_height_bounded_memory():
    # the spreading goes in pieces of 4096 terms: a band at t ~ 1e5 (about
    # 29 000 terms, 32 cells each) peaks below 9 MiB, closure included; a
    # warm-up band first, so that numpy.fft's import is not counted
    ts = 99_900.0 + _SCAN_H * np.arange(4000)
    sp.hurwitz_zeta_grid(1.0, ts[:200])
    tracemalloc.start()
    try:
        sp.hurwitz_zeta_grid(1.0, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20, f"peak {peak} bytes"


def test_import_leaves_numpy_fft_unloaded():
    # numpy.fft is loaded by the first NUFFT call, not by the package import;
    # the mollifier, which no command reads, and the numpy.polynomial its
    # Gauss-Legendre tables need are loaded by an import of the mollifier only
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sp.__file__)))
    unloaded = ("numpy.fft", "hardyseries.mollifier", "numpy.polynomial")
    code = (f"import sys, hardyseries, hardyseries.cli; "
            f"print([m for m in {unloaded!r} if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": package_root}, check=True)
    assert run.stdout.strip() == "[]"


def test_fft_size_is_the_next_five_smooth_number():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1
    for n in (1, 2, 7, 256, 257, 1618, 8000, 8002, 200_002):
        size = sp._fft_size(n)
        assert size >= n and smooth(size)
        assert not any(smooth(m) for m in range(n, size))
    assert sp._fft_size(8002) == 8100


# ---------------------------------------------------------------------------
# Lerch zeta
# ---------------------------------------------------------------------------

def test_lerch_reduces_to_riemann():
    assert abs(sp.lerch_phi(1.0, 1.0, 2.0) - math.pi ** 2 / 6) < 1e-12


def test_lerch_alternating_eta_two():
    # alpha = 1/2 twists into sum (-1)^n (n+1)^-2 = pi^2/12 with n from 0.
    oracle = sum((-1) ** n / (n + 1) ** 2 for n in range(200000))
    assert oracle > 0
    val = sp.lerch_phi(0.5, 1.0, 2.0)
    assert abs(val - math.pi ** 2 / 12) < 1e-10
    assert abs(val - oracle) < 1e-10


def test_lerch_matches_hurwitz_at_alpha_one():
    for s, beta in [(2.0, 0.4), (1 + 5j, 1.0), (1.5, 0.9)]:
        assert abs(sp.lerch_phi(1.0, beta, s) - sp.hurwitz_zeta(s, beta)) < 1e-10
    # on a scan band, twist 1 is the zeta grid bit for bit: one kernel call
    ts = 200.0 + _SCAN_H * np.arange(4000)
    for beta in (0.3, 1.0):
        assert np.array_equal(sp.lerch_phi(1.0, beta, 1.0 + 1j * ts, 1e-9),
                              sp.hurwitz_zeta_grid(beta, ts, 1.0, 1e-9))


def _lerch_bruteforce(alpha: float, beta: float, s: complex, n_cutoff: int) -> complex:
    # Head sum with a single geometric (Abel) fold of the oscillatory tail.
    z = np.exp(2j * np.pi * alpha)
    total = 0j
    for lo in range(0, n_cutoff, 10 ** 6):
        n = np.arange(lo, min(lo + 10 ** 6, n_cutoff))
        total += np.sum(np.exp(2j * np.pi * alpha * n) * (n + beta) ** (-s))
    return total + z ** n_cutoff * (n_cutoff + beta) ** (-s) / (1 - z)


def test_lerch_against_bruteforce():
    alpha, beta, s = 0.3, 0.7, 1 + 2j
    ref = _lerch_bruteforce(alpha, beta, s, 10 ** 7)
    assert abs(sp.lerch_phi(alpha, beta, s, 1e-9) - ref) < 1e-5


def test_lerch_near_degenerate_twist():
    # small |1 - z|: the pole 2 pi i (1 - alpha) of the Euler-Boole kernel
    # sits at 0.063, so the cutoff runs to N = 316 even at t = 0
    val = sp.lerch_phi(0.99, 0.5, 1.0, 1e-8)
    ref = _lerch_bruteforce(0.99, 0.5, 1.0 + 0j, 10 ** 7)
    assert abs(val - ref) < 1e-4


def test_lerch_pole_and_domain():
    with pytest.raises(PoleError):
        sp.lerch_phi(1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        sp.lerch_phi(0.5, 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        sp.lerch_phi(1.5, 0.5, 2.0)
    # arrays: the pole anywhere in an alpha = 1 array, a line left of Re s = 1
    with pytest.raises(PoleError):
        sp.lerch_phi(1.0, 0.5, np.array([1 + 2j, 1 + 0j]))
    with pytest.raises(InvalidParameterError):
        sp.lerch_phi(0.3, 0.5, np.array([0.5 + 1j, 0.5 + 2j]))


@pytest.mark.parametrize("evaluate", [
    lambda pts: sp.hurwitz_zeta_grid(0.5, pts.imag),
    lambda pts: sp.hurwitz_tail_sum(pts + 1, 0.5, 3)[0],
    lambda pts: sp.lerch_phi(0.3, 0.5, pts),
    lambda pts: sp.lerch_phi(1.0, 0.5, pts),
], ids=["zeta_grid", "tail_sum", "lerch", "lerch_twist_1"])
@pytest.mark.parametrize("shape", [(0,), (0, 9)])
def test_empty_array_gives_empty_array(evaluate, shape):
    # an empty array holds no line to size a cutoff on, so none is sized
    out = evaluate(np.empty(shape, dtype=complex))
    assert out.shape == shape and out.dtype == complex


def test_array_points_must_share_one_line():
    # one cutoff and one divergence check serve the whole line, so a point
    # off it (here the divergent Re w = 0.5) must be refused, not summed
    with pytest.raises(InvalidParameterError):
        sp.hurwitz_tail_sum(np.array([3, 1.05, 0.5 + 10j]), 0.5, 0)
    with pytest.raises(InvalidParameterError):
        sp.hurwitz_tail_sum(np.array([1 + 1j, 1 + 2j]), 0.5, 0)
    with pytest.raises(InvalidParameterError):
        sp._zeta_sum(np.array([2 + 1j, 1.5 + 1j]), 0.5, None, cutoff=64)
    for alpha in (0.3, 1.0):
        with pytest.raises(InvalidParameterError):
            sp.lerch_phi(alpha, 0.5, np.array([[1 + 1j, 1 + 2j], [2 + 1j, 1 + 3j]]))


def test_cutoff_below_start_is_refused():
    # a head from 40 to a cutoff of 20 would be empty, and the closure at 20
    # would return sum_{n >= 20} for the sum_{n >= 40} asked for
    with pytest.raises(InvalidParameterError):
        sp._zeta_sum(2, 0.5, None, start=40, cutoff=20)


def _lerch_mpmath(alpha: float, beta: float, t: float) -> complex:
    """phi(alpha, beta; 1 + it) for rational alpha = p/q from q Hurwitz zetas:
    sum_r e^(2 pi i r p/q) q^-s zeta(s, (r + beta)/q), via mpmath."""
    import mpmath
    from fractions import Fraction

    frac = Fraction(alpha).limit_denominator(100)
    p, q = frac.numerator, frac.denominator
    with mpmath.workdps(20):
        s = mpmath.mpc(1.0, t)
        total = mpmath.mpc(0)
        for r in range(q):
            total += (mpmath.expjpi(2 * mpmath.mpf(r * p) / q)
                      * mpmath.zeta(s, (r + mpmath.mpf(beta)) / q))
        return complex(total * mpmath.power(q, -s))


def test_lerch_array_matches_scalar_and_mpmath():
    pytest.importorskip("mpmath")
    tol = 1e-9
    rng = np.random.default_rng(1988)
    for alpha in (0.3, 0.5, 1.0):
        beta = float(rng.uniform(0.05, 1.0))
        s = 1.0 + 1j * np.sort(rng.uniform(0.5, 1000.0, 6)).reshape(2, 3)
        values = sp.lerch_phi(alpha, beta, s, tol)
        assert values.shape == (2, 3) and values.dtype == complex
        # the 1-d array has the same plan and the same head blocks
        assert np.array_equal(sp.lerch_phi(alpha, beta, s.ravel(), tol), values.ravel())
        for j, (s_j, value) in enumerate(zip(s.ravel(), values.ravel())):
            scalar = sp.lerch_phi(alpha, beta, complex(s_j), tol)
            assert isinstance(scalar, complex)
            assert sp.lerch_phi(alpha, beta, np.asarray(s_j), tol) == scalar  # 0-d
            assert abs(value - scalar) <= 2 * tol  # each within tol of phi
            if j % 2:  # mpmath at three points, the largest |t| among them
                assert abs(value - _lerch_mpmath(alpha, beta, s_j.imag)) <= tol


@pytest.mark.parametrize("alpha", [0.1, 0.9])
def test_lerch_small_gap_meets_tolerance(alpha):
    # the nearest pole 2 pi i (j - alpha) of the Euler-Boole kernel sits
    # at 0.63, so these twists take the longest heads, about 2.9 t
    pytest.importorskip("mpmath")
    tol = 1e-9
    for t in (100.0, 1000.0):
        value = sp.lerch_phi(alpha, 0.3, complex(1.0, t), tol)
        assert abs(value - _lerch_mpmath(alpha, 0.3, t)) <= tol


def test_lerch_plan_is_minimal():
    # alpha = 0.3: N about 0.95 t
    plans = [sp._em_cutoff(sp._boole_bound(complex(1.0, t), 0.3, 0.7), 1e-9)
             for t in (200.0, 392.0, 600.0, 1000.0)]
    assert plans == [190, 371, 567, 945]
    # near-degenerate twist: the nearest pole sits at 0.063
    assert sp._em_cutoff(sp._boole_bound(1.0 + 0j, 0.99, 0.5), 1e-8) == 316
    rng = np.random.default_rng(1999)
    cases = [(0.99, 0.5, 1.0 + 0j, 1e-8)] + [
        (rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.0),
         complex(rng.uniform(1.0, 3.0), rng.uniform(0.0, 1000.0)),
         10.0 ** rng.uniform(-12.0, -6.0)) for _ in range(24)]
    for alpha, beta, s, tol in cases:
        bound = sp._boole_bound(s, alpha, beta)
        n_cutoff = sp._em_cutoff(bound, tol)
        assert bound(n_cutoff) <= tol
        assert n_cutoff == 16 or bound(n_cutoff - 1) > tol
        # the bound at the largest |t| covers the line below it
        assert sp._boole_bound(complex(s.real, s.imag / 2), alpha, beta)(n_cutoff) <= tol


def test_boole_coefficients_match_polylog():
    # 1/(1 - z e^u) = 1 + sum_k Li_{-k}(z) u^k / k!.  Errors are taken
    # relative to the nearest pole's term |2 pi alpha|^(-k-1), alpha taken
    # mod 1 into [-1/2, 1/2]: that is |c_k| up to the odd symmetry at
    # alpha = 1/2, where the even c_k vanish.
    mpmath = pytest.importorskip("mpmath")
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        z = complex(np.exp(2j * np.pi * alpha))
        coeffs = sp._boole_coefficients(z)
        assert len(coeffs) == sp._BOOLE_TERMS
        pole = 2 * math.pi * min(alpha, 1 - alpha)
        with mpmath.workdps(30):
            for k, c in enumerate(coeffs):
                ref = (k == 0) + mpmath.polylog(-k, mpmath.mpc(z)) / mpmath.factorial(k)
                assert abs(c - complex(ref)) <= 1e-14 * pole ** (-k - 1)


def test_boole_coefficients_are_built_once_per_twist():
    # the cached coefficients are the bits of a fresh build, and lerch_phi
    # calls at one twist share one build
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        z = complex(np.exp(2j * np.pi * alpha))
        cached = sp._boole_coefficients(z)
        assert isinstance(cached, tuple) and sp._boole_coefficients(z) is cached
        fresh = sp._boole_coefficients.__wrapped__(z)
        assert np.array(cached).tobytes() == np.array(fresh).tobytes()
    sp._boole_coefficients.cache_clear()
    for t in (10.0, 200.0, np.array([30.0, 31.0])):
        sp.lerch_phi(0.3, 0.7, 1.0 + 1j * t, 1e-9)
    info = sp._boole_coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("evaluate", [
    lambda: sp.hurwitz_zeta(1 + 1e20j, 0.5, 1e-9),  # EM bound, log past 709.8 by |t|
    lambda: sp.lerch_phi(1e-20, 0.5, 1 + 10j, 1e-9),  # Euler-Boole bound, by the twist
], ids=["hurwitz-t1e20", "lerch-alpha1e-20"])
def test_remainder_bound_past_float_range_is_a_precision_error(evaluate):
    # exp of the bound's log overflows there: +inf, refused as at t = 1e13
    with pytest.raises(PrecisionError, match="remainder bound inf"):
        evaluate()


def test_boole_bound_matches_its_formula():
    # S_K |(s)_K| (N + beta)^(1-sigma-K) / (sigma + K - 1) with
    # S_K = (2 pi)^-K (zeta(K, alpha) + zeta(K, 1 - alpha)), in 30 digits:
    # the closed-form upper end of zeta(K, x) adds at most 3^-30 relative
    mpmath = pytest.importorskip("mpmath")
    k = sp._BOOLE_TERMS
    for alpha, beta, s, n_cutoff in [(0.5, 0.3, 1.0 + 600j, 400), (0.3, 0.7, 1.0 + 20j, 30),
                                     (0.1, 1.0, 2.5 + 5000j, 15000), (0.99, 0.5, 1.0 + 0j, 316)]:
        with mpmath.workdps(30):
            s_k = (mpmath.zeta(k, alpha) + mpmath.zeta(k, 1 - alpha)) / (2 * mpmath.pi) ** k
            exact = float(s_k * abs(mpmath.rf(mpmath.mpc(s), k))
                          * mpmath.mpf(n_cutoff + beta) ** (1 - s.real - k) / (s.real + k - 1))
        assert exact * (1 - 1e-12) <= sp._boole_bound(s, alpha, beta)(n_cutoff) <= exact * (1 + 1e-10)


def _rational_twist(alpha: float, beta: float, s: np.ndarray) -> np.ndarray:
    """phi(p/q, beta; s) = q^-s sum_{r<q} e^(2 pi i r p/q) zeta(s, (r + beta)/q),
    each Hurwitz zeta from ``_zeta_sum`` at twist 1 and 1e-14: no Euler-Boole code."""
    from fractions import Fraction

    frac = Fraction(alpha).limit_denominator(100)
    p, q = frac.numerator, frac.denominator
    total = sum(np.exp(2j * np.pi * r * p / q) * sp._zeta_sum(s, (r + beta) / q, 1e-14)[0]
                for r in range(q))
    return total * np.exp(-s * math.log(q))


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_lerch_band_within_closure_bound(alpha):
    # 64-node bands at height, where mpmath.lerchphi fails: the value lies
    # within the Euler-Boole bound of the rational-twist identity, whose
    # q <= 10 Hurwitz zetas each carry at most 1e-14
    beta = 0.3
    for t0 in (50.0, 600.0, 5000.0):
        sv = 1.0 + 1j * (t0 + _SCAN_H * np.arange(64))
        bound = sp._boole_bound(complex(sv[-1]), alpha, beta)
        n_cutoff = sp._em_cutoff(bound, 1e-9)
        error = np.abs(sp.lerch_phi(alpha, beta, sv, 1e-9) - _rational_twist(alpha, beta, sv))
        assert np.max(error) <= bound(n_cutoff) + 1e-13


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.99])
def test_lerch_matches_mpmath_lerchphi_at_small_height(alpha):
    # mpmath.lerchphi is usable only at small |t| (at t = 600 it returns
    # values of size 1e338).  There each value lies within the bound of its
    # cutoff, up to 1e-14 of rounding, and so within the tolerance asked.
    mpmath = pytest.importorskip("mpmath")
    for beta in (0.3, 1.0):
        for t in (0.0, 20.0, 50.0):
            with mpmath.workdps(25):
                ref = complex(mpmath.lerchphi(mpmath.expjpi(2 * mpmath.mpf(alpha)),
                                              mpmath.mpc(1.0, t), beta))
            bound = sp._boole_bound(complex(1.0, t), alpha, beta)
            for tol in (1e-3, 1e-6, 1e-9, 1e-12):
                error = abs(sp.lerch_phi(alpha, beta, complex(1.0, t), tol) - ref)
                assert error <= bound(sp._em_cutoff(bound, tol)) + 1e-14
                assert error <= tol


def test_twisted_kernel_returns_its_bound():
    # the Euler-Boole bound at the largest |t|, at the cutoff sized from it,
    # with the values lerch_phi gives
    rng = np.random.default_rng(2311)
    for alpha, beta, tol in ((0.3, 0.7, 1e-9), (0.99, 0.5, 1e-8), (0.5, 1.0, 1e-12)):
        sv = 1.0 + 1j * np.sort(rng.uniform(0.0, 800.0, 50))
        values, bound = sp._zeta_sum(sv, beta, tol, alpha)
        remainder = sp._boole_bound(complex(1.0, sv.imag.max()), alpha, beta)
        assert bound == remainder(sp._em_cutoff(remainder, tol)) <= tol
        assert np.array_equal(values, sp.lerch_phi(alpha, beta, sv, tol))


def test_lerch_logs_its_closure(caplog):
    # one Euler-Boole line per twisted call; a twist-1 call logs the
    # Euler-Maclaurin line instead
    caplog.set_level("DEBUG", logger="hardyseries.special")
    sv = 1 + 1j * np.array([5.0, 7.0])
    value = sp.lerch_phi(0.3, 0.7, sv, 1e-9)
    sp.lerch_phi(1.0, 0.7, sv, 1e-9)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("Euler-Boole")]
    bound = sp._boole_bound(1 + 7j, 0.3, 0.7)
    n_cutoff = sp._em_cutoff(bound, 1e-9)
    assert lines == [f"Euler-Boole: 2 points, N = {n_cutoff}, K = 30, "
                     f"bound {bound(n_cutoff):.3e}"]
    # debug off: no line, and the same value bits
    caplog.clear()
    caplog.set_level("INFO", logger="hardyseries.special")
    assert np.array_equal(sp.lerch_phi(0.3, 0.7, sv, 1e-9), value)
    assert not caplog.records


# ---------------------------------------------------------------------------
# Named constants
# ---------------------------------------------------------------------------

def test_kappa_constants_reproduce_printed_decimals():
    kc = sp.kappa_constants()
    assert abs(kc.kappa_half - 0.1367593578) < 1e-9
    assert abs(kc.kappa_printed - 0.2735187155) < 1e-9
    assert abs(kc.kappa_printed - 2 * kc.kappa_half) < 1e-15
    assert abs(kc.kappa_alt - 0.27918489270) < 1e-9
    assert abs(kc.c0 - 3.174092008) < 1e-8
    assert 23.89 <= math.exp(kc.c0) <= 23.91


def test_bernoulli_values():
    assert sp.bernoulli_b2k(1) == pytest.approx(1 / 6)
    assert sp.bernoulli_b2k(2) == pytest.approx(-1 / 30)
    assert sp.bernoulli_b2k(7) == pytest.approx(7 / 6)
    # B_2 .. B_30: the closure reads k <= M, its remainder bound k = M + 1
    assert len(sp.BERNOULLI_B2K) == sp._EM_TERMS + 1
    assert sp.bernoulli_b2k(15) == 8615841276005 / 14322  # correctly rounded
    with pytest.raises(InvalidParameterError):
        sp.bernoulli_b2k(16)
