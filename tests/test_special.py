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
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyseries import special as sp
from hardyseries.errors import InvalidParameterError, PoleError


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
        v1, b1 = sp._hurwitz_em_raw(complex(s), alpha, 128, 12)
        v2, b2 = sp._hurwitz_em_raw(complex(s), alpha, 256, 14)
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
        n_cutoff = sp._em_cutoff(s, alpha, tol)
        remainder = sp._em_bound(s, alpha)
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


# ---------------------------------------------------------------------------
# phase-matrix head sum on uniform grids
# ---------------------------------------------------------------------------

_SCAN_H = 0.05 / 8  # grid step of a hurwitz_scan band at delta = 0.05


def _per_row_head(sv, log_n, weights=None):
    # one complex exp per (point, term), weighted and summed per row
    terms = np.exp(np.multiply.outer(-sv, log_n))
    return (terms if weights is None else weights * terms).sum(axis=1)


def test_phase_matrix_head_matches_per_row_and_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1988)
    for t0 in (100.0, 500.0, 996.0):
        ts = t0 + _SCAN_H * np.arange(4000)
        assert sp._progression_step(ts) == pytest.approx(_SCAN_H, rel=1e-12)
        for alpha in (0.3, 0.5, 1.0):
            n_cutoff = sp._em_cutoff(complex(1.0, ts[-1]), alpha, 1e-9)
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
    n = np.arange(sp._lerch_tail_plan(complex(1.0, ts[-1]), beta,
                                      abs(1 - np.exp(2j * np.pi * alpha)), 1e-9)[0])
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
    grids = (off, near, nudged, ts[:2 * 64 - 1], off_row, nudged_row,
             500.0 + windows[:, :1])
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
    gap = abs(1 - np.exp(2j * np.pi * alpha))
    for t0 in (100.0, 1000.0, 1e4):
        ts = t0 + np.add.outer(8.0 * np.arange(25), _SCAN_H * np.arange(width))
        assert sp._progression_step(ts) == pytest.approx(_SCAN_H, rel=1e-9)
        sv = 1.0 + 1j * ts
        # the zeta head, then the twisted Lerch head; at t = 10^4 the Lerch
        # head is longer than one piece of 4096 terms
        n_zeta = np.arange(sp._em_cutoff(complex(1.0, ts.max()), alpha, 1e-9))
        n_lerch = np.arange(sp._lerch_tail_plan(complex(1.0, ts.max()), beta, gap,
                                                1e-9)[0])
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


def test_per_row_head_builds_one_block_at_a_time():
    # 300 points off any progression times 1000 terms: five blocks of 65
    # rows, so the peak is one block of 2^16 complex entries, not two
    rng = np.random.default_rng(16)
    sv = 1.0 + 1j * np.sort(rng.uniform(900.0, 1000.0, 300))
    log_n = np.log(np.arange(1000) + 0.5)
    assert sp._progression_step(sv.imag) is None
    tracemalloc.start()
    try:
        head = sp._head_sum(sv, log_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sp._HEAD_BLOCK * 16, f"peak {peak} bytes"
    assert np.array_equal(head, _per_row_head(sv, log_n))


def test_stacked_head_is_the_one_row_calls_bit_for_bit():
    # a (K, terms) weight stack, one weight row per row of points: rows
    # repeat (they share one exponential table), K = 1 included, and rows
    # of 200 evenly spaced points stay per-row where a 1-d call would not
    rng = np.random.default_rng(1405)
    log_n = np.log(np.arange(16) + 1.0)
    window = 0.05 * np.arange(33) / 32
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
            expected = _per_row_head(sv[k], log_n, weights[k])
            assert np.array_equal(head[k], expected)
            if not spaced:
                assert np.array_equal(head[k], sp._head_sum(sv[k], log_n, weights[k]))


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
    n_band = sp._em_cutoff(complex(1.0, 100.0 + _SCAN_H * 3999), 1.0, 1e-9)
    n_pair = sp._em_cutoff(20j + 1.0, 1.0, 1e-9)
    assert lines == [
        f"head sum: 4000 points, {n_band} terms, phase-matrix",
        f"head sum: 2 points, {n_pair} terms, per-row",
    ]


# one 4000-node band at t = 10^4; a BLAS product V @ E.T in place of the
# einsum gives other last bits on two OpenBLAS threads than on one there
_BAND_DIGEST = """
import hashlib, numpy as np
from hardyseries import special as sp
ts = 1e4 + 0.05 / 8 * np.arange(4000)
print(hashlib.sha256(sp.hurwitz_zeta_grid(0.3, ts).tobytes()).hexdigest())
"""


def test_phase_matrix_bits_do_not_depend_on_blas_threads():
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
    # small |1 - z| forces the low-order/large-cutoff branch
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
        sp._hurwitz_em_raw(np.array([2 + 1j, 1.5 + 1j]), 0.5, 64)
    for alpha in (0.3, 1.0):
        with pytest.raises(InvalidParameterError):
            sp.lerch_phi(alpha, 0.5, np.array([[1 + 1j, 1 + 2j], [2 + 1j, 1 + 3j]]))


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


def test_lerch_plan_is_minimal():
    gap = abs(1 - np.exp(0.6j * np.pi))  # alpha = 0.3
    plans = [sp._lerch_tail_plan(complex(1.0, t), 0.7, gap, 1e-9)
             for t in (200.0, 392.0, 600.0, 1000.0)]
    assert [(n, k) for n, k, _ in plans] == [(381, 16), (745, 16), (1140, 16), (1899, 16)]
    # near-degenerate twist: order 8 meets 1e-8 only from N ~ 1e5 on, order 5 at 1198
    near = sp._lerch_tail_plan(1.0 + 0j, 0.5, abs(1 - np.exp(1.98j * np.pi)), 1e-8)
    assert near[:2] == (1198, 5)
    rng = np.random.default_rng(1999)
    cases = [(0.99, 0.5, 1.0 + 0j, 1e-8)] + [
        (rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.0),
         complex(rng.uniform(1.0, 3.0), rng.uniform(0.0, 1000.0)),
         10.0 ** rng.uniform(-12.0, -6.0)) for _ in range(24)]
    for alpha, beta, s, tol in cases:
        gap = abs(1 - np.exp(2j * np.pi * alpha))
        n_cutoff, k_order, bound = sp._lerch_tail_plan(s, beta, gap, tol)
        trunc, roundoff = sp._lerch_bound(s, beta, gap, k_order)
        assert bound == trunc(n_cutoff) + roundoff(n_cutoff) <= tol
        assert n_cutoff == 64 or trunc(n_cutoff - 1) + roundoff(n_cutoff - 1) > tol
        # every higher order was dropped for one of the two stated reasons
        for k_high in sp._LERCH_ORDERS[:sp._LERCH_ORDERS.index(k_order)]:
            trunc, roundoff = sp._lerch_bound(s, beta, gap, k_high)
            assert roundoff(64) > tol or trunc(2 ** 21) + roundoff(2 ** 21) > tol


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
    with pytest.raises(InvalidParameterError):
        sp.bernoulli_b2k(31)
