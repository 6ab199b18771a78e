"""Quadrature: closed-form integrals, log singularities, Poisson weighting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyseries import bounds as bd
from hardyseries import quadrature as qd
from hardyseries import series as se
from hardyseries.errors import InvalidParameterError, QuadratureError


def _const(c):
    return lambda s: np.full(np.shape(s), c, dtype=complex)


def _two_term_eval():
    # L(s) = 1 + 2^-s on sigma = 0: values 1 + e^(-i t log 2)
    return lambda s: 1.0 + 2.0 ** (-s)


def _seeded_series(seed, terms):
    # a classical series with a_1 = 1 and the other coefficients of modulus
    # 2/3 and seeded phases, on sigma = 1/2, as the poisson_log benchmark
    # draws them
    rng = np.random.default_rng(seed)
    coeffs = 2.0 / 3.0 * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, terms))
    coeffs[0] = 1.0
    return se.classical_polynomial(coeffs, 0.5)


# ---------------------------------------------------------------------------
# integrate_abs_pow
# ---------------------------------------------------------------------------

def test_abs_pow_constant():
    r = qd.integrate_abs_pow(_const(1.0), 0.0, (0.0, 0.37), p=1, tol=1e-10)
    assert r.value == pytest.approx(0.37, abs=1e-10)
    assert r.error_estimate <= 1e-9


def test_abs_pow_two_term_parseval():
    # mean of |1 + e^(i theta)|^2 over a period is 2 (two-term Parseval)
    period = 2 * math.pi / math.log(2)
    r = qd.integrate_abs_pow(_two_term_eval(), 0.0, (0.0, period), p=2, tol=1e-9)
    assert r.value == pytest.approx(2.0 * period, rel=1e-8)


def test_abs_pow_zeta_segment_against_midpoint():
    coeffs = np.array([1.0, 0.7, -0.4, 0.25, 0.1])
    s = se.classical_polynomial(coeffs, 0.5)
    ev = se.line_evaluator(s, 1.0)
    r = qd.integrate_abs_pow(ev, 1.0, (0.0, 0.05), p=1, tol=1e-9)
    ts = (np.arange(100000) + 0.5) * (0.05 / 100000)
    mid = np.mean([abs(ev(1.0 + 1j * t)) for t in ts[::100]])  # coarse check
    mid_full = 0.05 * np.mean(np.abs([ev(1.0 + 1j * t) for t in ts[::50]]))
    assert r.value == pytest.approx(mid_full, abs=1e-6)
    assert r.value == pytest.approx(0.05 * mid, abs=1e-4)


def test_abs_pow_validation():
    with pytest.raises(InvalidParameterError):
        qd.integrate_abs_pow(_const(1.0), 0.0, (1.0, 0.0), 1, 1e-8)
    with pytest.raises(InvalidParameterError):
        qd.integrate_abs_pow(_const(1.0), 0.0, (0.0, 1.0), 0.5, 1e-8)
    with pytest.raises(InvalidParameterError):
        qd.integrate_abs_pow(_const(1.0), 0.0, (0.0, 1.0), 1, -1e-8)


# ---------------------------------------------------------------------------
# integrate_log
# ---------------------------------------------------------------------------

def test_log_constant_one_is_zero():
    for sign in ("plus", "minus"):
        r = qd.integrate_log(_const(1.0), 0.0, (0.0, 1.0), sign, 1e-10)
        assert r.value == pytest.approx(0.0, abs=1e-12)


def test_log_constant_e():
    r = qd.integrate_log(_const(math.e), 0.0, (0.0, 1.0), "plus", 1e-10)
    assert r.value == pytest.approx(1.0, abs=1e-9)
    r = qd.integrate_log(_const(math.e), 0.0, (0.0, 1.0), "minus", 1e-10)
    assert r.value == pytest.approx(0.0, abs=1e-12)


def test_log_minus_integrable_zero():
    # L(s) = 1 - 2^-s vanishes at t = 0 on sigma = 0; log is integrable there
    ev = lambda s: 1.0 - 2.0 ** (-s)
    period = 2 * math.pi / math.log(2)
    r = qd.integrate_log(ev, 0.0, (0.0, period), "minus", 1e-6)
    # midpoint oracle skipping a tiny symmetric neighbourhood of the zeros
    n = 10 ** 6
    ts = (np.arange(n) + 0.5) * (period / n)
    mods = np.abs(1.0 - np.exp(-1j * math.log(2) * ts))
    keep = mods > 1e-6
    oracle = np.sum(np.maximum(0.0, -np.log(mods[keep]))) * (period / n)
    assert r.value == pytest.approx(oracle, abs=1e-3)


# ---------------------------------------------------------------------------
# poisson_log_integral
# ---------------------------------------------------------------------------

def test_poisson_constant_one():
    r = qd.poisson_log_integral(_const(1.0), 0.0, 1.0, "plus", 1e-8, l1_norm=1.0)
    assert r.value == pytest.approx(0.0, abs=1e-10)


def test_poisson_constant_c_kernel_mass():
    # kernel integrates to one, so a constant c > 1 gives exactly log c
    c = 3.7
    r = qd.poisson_log_integral(_const(c), 0.0, 0.8, "plus", 1e-7, l1_norm=c)
    assert r.value + r.truncation_tail >= math.log(c) - 1e-6
    assert r.value <= math.log(c) + 1e-6


def test_poisson_plus_below_l1_bound():
    s = se.classical_polynomial([1.0, 0.5], 0.5)
    ev = se.line_evaluator(s, 0.5)
    l1 = se.l1_norm_at(s, 0.5)
    r = qd.poisson_log_integral(ev, 0.5, 1.0, "plus", 1e-7, l1_norm=l1)
    assert r.value + r.truncation_tail <= math.log(l1) + 1e-5


def test_poisson_minus_needs_bound():
    with pytest.raises(InvalidParameterError):
        qd.poisson_log_integral(_const(0.5), 0.0, 1.0, "minus", 1e-7, l1_norm=1.0)


def test_poisson_minus_constant():
    c = 0.25  # log- = log 4 everywhere; kernel mass 1
    r = qd.poisson_log_integral(
        _const(c), 0.0, 1.0, "minus", 1e-7, l1_norm=1.0, minus_tail_bound=math.log(4.0)
    )
    assert r.value + r.truncation_tail == pytest.approx(math.log(4.0), abs=1e-6)


def test_poisson_zero_l1_norm():
    # the zero series: log+ vanishes everywhere, so there is no tail
    r = qd.poisson_log_integral(_const(0.0), 0.0, 1.0, "plus", 1e-7, l1_norm=0.0)
    assert r.value == 0.0 and r.truncation_tail == 0.0 and r.flagged


@pytest.mark.parametrize("d", [1.0, 10.0])
def test_poisson_log_plus_meets_closed_form(d):
    # L = 1 + w 2^-s, |w| = 2/3 (the first series of the poisson_log
    # benchmark at its seed 3201, generator seed 3201 * 100): |L(1/2 + it)|
    # is periodic in theta = t log 2,
    # and the kernel maps e^(i k theta) to 2^(-D |k|), so the integral is
    # sum_k g_k 2^(-D |k|) over the Fourier coefficients g_k of
    # log+|1 + w 2^(-1/2) e^(-i theta)| (0.1063035 at D = 1, 0.1504628 at
    # D = 10).  At tol 1e-4 the value is 2.3e-5 and 3.5e-5 off; at tol 1e-5
    # it is 2.2e-5 and 1.5e-4 off, beyond tol (see poisson_log_integral)
    s = _seeded_series(320100, 2)
    theta = 2 * math.pi * np.arange(1 << 14) / (1 << 14)
    log_plus = np.maximum(0.0, np.log(np.abs(1 + s.coefficients[1] / math.sqrt(2.0)
                                             * np.exp(-1j * theta))))
    k = np.fft.fftfreq(theta.size, 1.0 / theta.size)
    exact = np.sum(np.fft.fft(log_plus) / theta.size * np.exp(-d * np.abs(k) * math.log(2))).real
    r = qd.poisson_log_integral(se.line_evaluator(s, 0.5), 0.5, d, "plus", 1e-4,
                                l1_norm=se.l1_norm_at(s, 0.5))
    assert abs(r.value - exact) <= 1e-4


def _per_segment_poisson(ev, sigma, d, sign, tol, l1_norm, minus_tail_bound):
    """poisson_log_integral with one adaptive pass per octave segment and
    side, as it was before the segments shared one pass: (value, error
    estimate, subdivisions, flagged, tail).  Run it with stack entries of
    256 panels, so that each entry's quarter points are one call."""
    log_part, hit_floor = qd._integrand(ev, sigma, [sign])

    def f(t, owner):
        return d / math.pi * log_part(t, owner) / (d * d + t * t)

    log_plus_norm = max(0.0, math.log(l1_norm)) if l1_norm > 0 else 0.0
    t_max = 8.0 * d
    tail = 0.0
    if sign == "plus":
        while True:
            tail = log_plus_norm * (1.0 - 2.0 / math.pi * math.atan(t_max / d))
            if tail <= tol / 2.0 or log_plus_norm == 0.0:
                break
            t_max *= 2.0
    cuts = [0.0, 0.5 * d]
    while cuts[-1] < t_max:
        cuts.append(min(2.0 * cuts[-1], t_max))
    value = err = 0.0
    subdivisions, flagged = 0, False
    for lo, hi in zip(cuts, cuts[1:]):
        mass = (math.atan(hi / d) - math.atan(lo / d)) / math.pi
        base = max(8, min(512, int(math.ceil(hi - lo)), int(math.ceil(3000.0 * mass))))
        for a, b in ((lo, hi), (-hi, -lo)):
            ((v, e, count, seg_flagged),) = qd._integrate(
                f, [(0, a, b, tol / (2 * len(cuts)), base)])
            value += v
            err += e
            subdivisions += count
            flagged = flagged or seg_flagged
    if sign == "minus":
        tail = max(0.0, minus_tail_bound - value)
    return value, err, subdivisions, flagged or hit_floor[0], tail


@pytest.mark.parametrize("terms", [2, 4, 6, 8])
def test_one_pass_poisson_matches_per_segment_passes(terms, monkeypatch):
    # seeded classical series with tail moduli 2/3 on sigma = 1/2: the one
    # pass over all octave segments splits the same panels, samples the same
    # points and sums to the same value as a pass per segment, in fewer calls
    s = _seeded_series(1500 + terms, terms)
    line = se.line_evaluator(s, 0.5)
    l1 = se.l1_norm_at(s, 0.5)
    for d in (1.0, 10.0):
        total = bd.log_minus_weighted_bound(s, d, "L1").bound_value
        for sign in ("plus", "minus"):
            calls = {"pass": [], "oracle": []}

            def recorder(key):
                def ev(points):
                    calls[key].append(points.copy())
                    return line(points)
                return ev

            r = qd.poisson_log_integral(recorder("pass"), 0.5, d, sign, 1e-5, l1_norm=l1,
                                        minus_tail_bound=total)
            with monkeypatch.context() as m:
                m.setattr(qd, "_BATCH_PANELS", 256)
                value, err, count, flagged, tail = _per_segment_poisson(
                    recorder("oracle"), 0.5, d, sign, 1e-5, l1, total)
            assert (r.subdivisions, r.flagged) == (count, flagged)
            assert r.value == pytest.approx(value, rel=1e-13)
            assert r.error_estimate == pytest.approx(err, rel=1e-13)
            assert r.truncation_tail == pytest.approx(tail, rel=1e-13, abs=1e-15)
            points = [np.sort(np.concatenate(calls[key])) for key in ("pass", "oracle")]
            assert points[0].tobytes() == points[1].tobytes()
            if d == 10.0 and sign == "plus":
                assert len(calls["pass"]) <= 0.6 * len(calls["oracle"])


def test_widest_poisson_pass_calls_and_memory():
    # the 8-term D = 10 log+ integral, the widest pass of the poisson_log
    # benchmark: 89 evaluator calls of up to 4096 points in entries of
    # 2048 panels (307 in entries of 512), and a traced peak of 1.07 MB
    # with the per-row head sum blocked at 2^13 entries (1.49 MB at 2^16)
    s = _seeded_series(1508, 8)
    line = se.line_evaluator(s, 0.5)
    l1 = se.l1_norm_at(s, 0.5)
    sizes = []

    def ev(points):
        sizes.append(points.size)
        return line(points)

    qd.poisson_log_integral(ev, 0.5, 10.0, "plus", 1e-5, l1_norm=l1)
    assert len(sizes) <= 100
    tracemalloc.start()
    try:
        qd.poisson_log_integral(line, 0.5, 10.0, "plus", 1e-5, l1_norm=l1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35e6


nan, inf = math.nan, math.inf


@pytest.mark.parametrize("field, call", [
    ("l1_norm", lambda: qd.poisson_log_integral(_const(2.0), 0.0, 1.0, "plus", 1e-6,
                                                l1_norm=nan)),
    ("l1_norm", lambda: qd.poisson_log_integral(_const(2.0), 0.0, 1.0, "plus", 1e-6,
                                                l1_norm=inf)),
    ("l1_norm", lambda: qd.poisson_log_integral(_const(2.0), 0.0, 1.0, "plus", 1e-6,
                                                l1_norm=-1.0)),
    ("minus_tail_bound", lambda: qd.poisson_log_integral(
        _const(0.5), 0.0, 1.0, "minus", 1e-6, l1_norm=1.0, minus_tail_bound=nan)),
    ("tol", lambda: qd.poisson_log_integral(_const(2.0), 0.0, 1.0, "plus", nan,
                                            l1_norm=2.0)),
    ("tol", lambda: qd.integrate_abs_pow(_const(1.0), 0.0, (0.0, 1.0), 1, nan)),
    ("tol", lambda: qd.integrate_log(_const(2.0), 0.0, (0.0, 1.0), "plus", nan)),
    ("d", lambda: qd.poisson_log_integral(_const(2.0), 0.0, nan, "plus", 1e-6,
                                          l1_norm=2.0)),
    ("d", lambda: qd.poisson_log_integral(_const(2.0), 0.0, inf, "plus", 1e-6,
                                          l1_norm=2.0)),
    ("interval", lambda: qd.integrate_abs_pow(_const(1.0), 0.0, (0.0, inf), 1, 1e-6)),
    ("interval", lambda: qd.integrate_log(_const(2.0), 0.0, (-inf, 0.0), "plus", 1e-6)),
    ("interval", lambda: qd.interval_sup(_const(1.0), 0.0, (0.0, inf))),
    ("p", lambda: qd.integrate_abs_pow(_const(1.0), 0.0, (0.0, 1.0), nan, 1e-6)),
    # at the edge of each domain: > for the interval, tol and d, >= 1 for p
    pytest.param("interval", lambda: qd.integrate_abs_pow(_const(1.0), 0.0, (1.0, 1.0), 1,
                                                          1e-6), id="interval-empty"),
    pytest.param("tol", lambda: qd.integrate_log(_const(2.0), 0.0, (0.0, 1.0), "plus", 0.0),
                 id="tol-zero"),
    pytest.param("d", lambda: qd.poisson_log_integral(_const(2.0), 0.0, 0.0, "plus", 1e-6,
                                                      l1_norm=2.0), id="d-zero"),
    pytest.param("p", lambda: qd.integrate_abs_pow(_const(1.0), 0.0, (0.0, 1.0), 0.5, 1e-6),
                 id="p-below-one"),
    pytest.param("grid_n", lambda: qd.interval_sup(_const(1.0), 0.0, (0.0, 1.0), grid_n=8),
                 id="grid_n-below-16"),
])
def test_non_finite_parameters_refused(field, call):
    # each would otherwise pass a silent zero tail, run to the panel cap or
    # fail far from where the value entered
    with pytest.raises(InvalidParameterError, match=rf"^{field} must be"):
        call()


# ---------------------------------------------------------------------------
# interval_sup
# ---------------------------------------------------------------------------

def test_interval_sup_constant():
    assert qd.interval_sup(_const(1.0), 0.0, (0.0, 1.0)) == pytest.approx(1.0)


def test_interval_sup_two_term_peak():
    period = 2 * math.pi / math.log(2)
    val = qd.interval_sup(_two_term_eval(), 0.0, (-period / 2, period / 2), grid_n=128)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_interval_sup_zero_order_scaling():
    # sup of |(1 - 2^(1-s))^2| over [0, delta] near s = 1 scales like delta^2
    a = se.one_minus_two_power_series(2, sigma=0.5)
    ev = se.line_evaluator(a, 1.0)
    sups = [qd.interval_sup(ev, 1.0, (0.0, d), grid_n=64) for d in (0.1, 0.05, 0.025)]
    slopes = [
        math.log(sups[i] / sups[i + 1]) / math.log(2.0) for i in range(2)
    ]
    for sl in slopes:
        assert abs(sl - 2.0) <= 0.1


def test_interval_sup_is_lower_bound():
    ev = _two_term_eval()
    val = qd.interval_sup(ev, 0.0, (0.0, 1.0), grid_n=32)
    dense = max(abs(ev(1j * t)) for t in np.linspace(0, 1, 20001))
    assert val <= dense + 1e-12


def _reference_sup(ev, sigma, a, b):
    """max |L| on [a, b] without interval_sup: the best of a 20 001-point
    grid, then bounded Brent in the offset from its argmax (so xatol, not
    the size of t, sets the resolution); returns (max, argmax)."""
    optimize = pytest.importorskip("scipy.optimize")
    ts = np.linspace(a, b, 20001)
    mods = np.abs(ev(sigma + 1j * ts))
    k = int(np.argmax(mods))
    tk, step = ts[k], ts[1] - ts[0]
    res = optimize.minimize_scalar(
        lambda u: -abs(ev(np.array([sigma + 1j * (tk + u)]))[0]),
        bounds=(max(a - tk, -step), min(b - tk, step)), method="bounded",
        options={"xatol": 1e-13})
    if -res.fun > mods[k]:
        return -res.fun, tk + res.x
    return mods[k], tk


def test_interval_sup_matches_independent_maximum():
    # seeded classical series of up to 16 terms on sigma = 1/2; odd cases
    # centre the window near a local maximum of |L|, so peaks sit inside
    rng = np.random.default_rng(2012)
    ts = np.linspace(0.0, 40.0, 40001)
    interior = 0
    for case in range(30):
        n = int(rng.integers(2, 17))
        coeffs = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * math.pi * rng.uniform(0, 1, n))
        coeffs[0] = 1.0
        ev = se.line_evaluator(se.classical_polynomial(coeffs, 0.5), 0.5)
        delta, grid_n = (0.05, 0.1)[case % 2], (32, 64)[case // 2 % 2]
        if case % 2:
            mods = np.abs(ev(0.5 + 1j * ts))
            peaks = np.flatnonzero((mods[1:-1] > mods[:-2]) & (mods[1:-1] > mods[2:])) + 1
            a = ts[rng.choice(peaks)] - delta * rng.uniform(0.2, 0.8)
        else:
            a = rng.uniform(0.0, 40.0)
        b = a + delta
        val = qd.interval_sup(ev, 0.5, (a, b), grid_n=grid_n)
        grid = np.abs(ev(0.5 + 1j * (a + np.arange(grid_n + 1) * (b - a) / grid_n)))
        ref, t_ref = _reference_sup(ev, 0.5, a, b)
        assert val >= grid.max(), case
        assert val == pytest.approx(ref, rel=1e-12), case
        interior += a + 1e-9 < t_ref < b - 1e-9
    assert interior >= 15


# ---------------------------------------------------------------------------
# adaptivity
# ---------------------------------------------------------------------------

def test_halving_tolerance_consistency():
    ev = _two_term_eval()
    r1 = qd.integrate_abs_pow(ev, 0.0, (0.0, 5.0), 2, 1e-6)
    r2 = qd.integrate_abs_pow(ev, 0.0, (0.0, 5.0), 2, 5e-7)
    assert abs(r1.value - r2.value) <= max(r1.error_estimate, r2.error_estimate) + 1e-12


def _exact_square_integral(s, sigma, d):
    # int_0^D |L|^2 = D * diag + closed-form off-diagonal oscillatory part
    lam = s.lambdas
    w = s.coefficients * np.exp(-lam * sigma)
    total = d * float(np.sum(np.abs(w) ** 2))
    for n in range(len(w)):
        for m in range(len(w)):
            if n == m:
                continue
            g = lam[m] - lam[n]
            total += (w[n] * np.conj(w[m]) * (np.exp(1j * g * d) - 1) / (1j * g)).real
    return total


def test_mean_value_long_interval():
    rng = np.random.default_rng(23)
    coeffs = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
    s = se.classical_polynomial(coeffs, 0.5)
    ev = se.line_evaluator(s, 0.5)
    d = 1000.0
    r = qd.integrate_abs_pow(ev, 0.5, (0.0, d), 2, tol=1e-4 * d)
    exact = _exact_square_integral(s, 0.5, d)
    assert r.value == pytest.approx(exact, rel=1e-6)
    lam = s.lambdas
    diag = float(np.sum(np.abs(coeffs) ** 2 * np.exp(-2 * 0.5 * lam)))
    # 1/D of the off-diagonal part dies out: the normalized mean approaches
    # the diagonal; widen D until the residual oscillation is inside 5%
    r2 = qd.integrate_abs_pow(ev, 0.5, (0.0, 4000.0), 2, tol=0.4)
    assert r2.value / 4000.0 == pytest.approx(diag, rel=0.05)


# ---------------------------------------------------------------------------
# flags, the panel cap and the batch size
# ---------------------------------------------------------------------------

def test_modulus_floor_flag():
    floor_log = -math.log(1e-300)
    r = qd.integrate_log(_const(0.0), 0.0, (0.0, 0.5), "minus", 1e-8)
    assert r.flagged
    assert r.value == pytest.approx(0.5 * floor_log, rel=1e-12)
    assert qd.integrate_log(_const(0.0), 0.0, (0.0, 0.5), "plus", 1e-8).flagged
    r = qd.poisson_log_integral(_const(0.0), 0.0, 1.0, "minus", 1e-6, l1_norm=1.0,
                                minus_tail_bound=floor_log)
    assert r.flagged
    assert r.value + r.truncation_tail == pytest.approx(floor_log, rel=1e-6)
    assert not qd.integrate_log(_const(0.5), 0.0, (0.0, 0.5), "minus", 1e-8).flagged


def test_depth_limit_flag():
    # a jump never passes the Richardson test, so its panel is refined to
    # depth 20 and accepted there with the flag set
    def step(s):
        return np.where(s.imag > 1.0 / 3.0, 2.0, 1.0).astype(complex)

    r = qd.integrate_abs_pow(step, 0.0, (0.0, 1.0), 1, 1e-10)
    assert r.flagged
    assert r.value == pytest.approx(5.0 / 3.0, abs=1e-6)
    assert r.subdivisions < 100
    assert not qd.integrate_abs_pow(_two_term_eval(), 0.0, (0.0, 1.0), 1, 1e-10).flagged


def test_panel_limit():
    # the chirp sin(1e12 t^2) keeps many periods in every panel down to depth
    # 20, so panels keep failing the test and splitting runs into the 2^20 cap
    def fast(s):
        return 2.0 + np.sin(1e12 * s.imag ** 2) + 0j

    with pytest.raises(QuadratureError):
        qd.integrate_abs_pow(fast, 0.0, (0.0, 1.0), 1, 1e-6)
    # one Poisson pass counts the splits of all its segments against the cap
    with pytest.raises(QuadratureError):
        qd.poisson_log_integral(fast, 0.0, 1.0, "plus", 1e-6, l1_norm=3.0)


# ---------------------------------------------------------------------------
# one pass of many integrals
# ---------------------------------------------------------------------------

def _stack_series(seed, count):
    """``count`` seeded coefficient lists of 1 to 20 terms, then the zero
    series, whose log integrands floor at every point."""
    rng = np.random.default_rng(seed)
    coeffs = [rng.normal(size=n) + 1j * rng.normal(size=n)
              for n in rng.integers(1, 21, count)]
    return coeffs + [np.zeros(3, dtype=complex)]


def _window_integrals(n_series, deltas, kinds, tol=1e-5):
    # the sweep's integrals: (row, window, kind, tol), tol * delta for |L|^p
    return [(k, (0.0, delta), kind, tol if isinstance(kind, str) else tol * delta)
            for delta in deltas for k in range(n_series) for kind in kinds]


def _alone(coeffs, interval, kind, tol):
    ev = se.line_evaluator(se.classical_polynomial(coeffs, 0.5), 0.5)
    if isinstance(kind, str):
        return qd.integrate_log(ev, 0.5, interval, kind, tol)
    return qd.integrate_abs_pow(ev, 0.5, interval, kind, tol)


def _bits(r):
    return (r.value.hex(), r.error_estimate.hex(), r.subdivisions, r.flagged)


def _stacked(coeffs, integrals):
    return qd.integrate_stack(se.classical_stack_evaluator(coeffs, 0.5), 0.5, integrals)


@pytest.mark.parametrize("seed", [3400, 3401, 3402])
def test_stacked_pass_is_each_integral_alone(seed):
    # log-, log+, |L| and |L|^3.5 of seeded series of 1 to 20 terms on
    # windows of 0.01, 0.05 and 0.2, all in one pass: each result is the
    # bits of its integral alone, and only the zero series' log integrals
    # hit the modulus floor and flag
    coeffs = _stack_series(seed, 8)
    integrals = _window_integrals(len(coeffs), (0.01, 0.05, 0.2), ("minus", "plus", 1.0, 3.5))
    results = _stacked(coeffs, integrals)
    assert len(results) == len(integrals)
    for (k, window, kind, tol), r in zip(integrals, results):
        assert _bits(r) == _bits(_alone(coeffs[k], window, kind, tol))
        assert r.flagged == (k == len(coeffs) - 1 and isinstance(kind, str))


def test_stacked_pass_depth_flag_and_panel_cap(monkeypatch):
    # at tol 1e-13 the integrals refine: with the depth limit at 2 some of
    # them flag and some do not, each as it does alone; the panel cap is each
    # integral's own, so a pass raises exactly where one integral alone would
    coeffs = _stack_series(3410, 6)[:-1]
    integrals = _window_integrals(len(coeffs), (0.05, 0.2), ("minus", "plus", 1.0), 1e-13)
    with monkeypatch.context() as m:
        m.setattr(qd, "_MAX_DEPTH", 2)
        results = _stacked(coeffs, integrals)
        alone = [_alone(coeffs[k], w, kind, tol) for k, w, kind, tol in integrals]
        assert [_bits(r) for r in results] == [_bits(r) for r in alone]
        assert {r.flagged for r in results} == {True, False}
    counts = [r.subdivisions for r in _stacked(coeffs, integrals)]
    assert sum(counts) > max(counts)
    with monkeypatch.context() as m:
        m.setattr(qd, "_PANEL_LIMIT", max(counts))  # no integral alone exceeds it
        assert [r.subdivisions for r in _stacked(coeffs, integrals)] == counts
        m.setattr(qd, "_PANEL_LIMIT", max(counts) - 1)  # the largest one alone does
        k, window, kind, tol = integrals[counts.index(max(counts))]
        with pytest.raises(QuadratureError):
            _alone(coeffs[k], window, kind, tol)
        with pytest.raises(QuadratureError):
            _stacked(coeffs, integrals)


@pytest.mark.parametrize("batch", [16, 2048])
def test_stacked_pass_cuts_only_large_runs(batch, monkeypatch):
    # windows of 2100 and 3000 unit base panels, more than 2048 each at one
    # depth, beside short windows of 8: entries cut the long runs into pieces
    # as a pass of each alone cuts them, and pack the short ones whole; with
    # entries of 16 panels both happen at every depth
    monkeypatch.setattr(qd, "_BATCH_PANELS", batch)
    coeffs = _stack_series(3420, 5)[:-1]
    integrals = [(0, (0.0, 2100.0), 1.0, 1e-2), (1, (0.0, 0.05), "minus", 1e-9),
                 (2, (0.0, 0.05), 1.0, 1e-9), (3, (5.0, 3005.0), "plus", 1e-2),
                 (4, (0.0, 0.2), "plus", 1e-9), (2, (0.0, 0.2), 3.5, 1e-9)]
    sizes = []
    line = se.classical_stack_evaluator(coeffs, 0.5)

    def ev(points, rows=None):
        sizes.append(points.shape[0])
        return line(points, rows)

    results = qd.integrate_stack(ev, 0.5, integrals)
    for (k, window, kind, tol), r in zip(integrals, results):
        assert _bits(r) == _bits(_alone(coeffs[k], window, kind, tol))
    # base points, then two quarter points per panel of an entry
    assert max(sizes[1:]) <= 2 * batch
    assert sizes[0] == sum(2 * qd._unit_panels(*w) + 1 for _, w, _, _ in integrals)


# (log10 of a window's width, log10 of its tolerance per unit width): short
# windows at tolerances that refine deep, long ones at coarse tolerances
_WIDTHS = st.one_of(st.tuples(st.floats(-2.0, 2.0), st.floats(-10.0, -5.0)),
                    st.tuples(st.floats(2.0, 3.5), st.floats(-5.0, -3.0)))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       integrals=st.lists(st.tuples(st.integers(0, 3), st.floats(-50.0, 50.0), _WIDTHS,
                                    st.sampled_from(["minus", "plus", 1.0, 3.5])),
                          min_size=2, max_size=12),
       batch=st.sampled_from([16, 64, 2048]), data=st.data())
def test_stacked_results_do_not_depend_on_layout(seed, integrals, batch, data):
    # up to 12 integrals of mixed kinds, on windows of 0.01 to 3000 units,
    # of three seeded series of 1 to 8 terms and the zero series: stacked in
    # a random order, beside a random subset of the others, each result is
    # the bits of its place in the full stack in the original order and of
    # its pass alone
    rng = np.random.default_rng(seed)
    coeffs = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in rng.integers(1, 9, 3)]
    coeffs.append(np.zeros(2, dtype=complex))
    windows = [(k, (a, a + 10.0 ** u), kind, 10.0 ** (u + e))
               for k, a, (u, e), kind in integrals]
    order = data.draw(st.permutations(range(len(windows))))
    shared = order[:data.draw(st.integers(1, len(order)))]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(qd, "_BATCH_PANELS", batch)
        full = _stacked(coeffs, windows)
        for i, r in zip(shared, _stacked(coeffs, [windows[i] for i in shared])):
            assert _bits(r) == _bits(full[i])
        for (k, window, kind, tol), r in zip(windows, full):
            assert _bits(r) == _bits(_alone(coeffs[k], window, kind, tol))


def test_empty_stack_and_bool_kinds():
    # no integrals give no results and no evaluator call; a bool is neither
    # a sign nor a power, though True == 1
    def ev(points, rows=None):
        raise AssertionError("no call expected")

    assert qd.integrate_stack(ev, 0.5, []) == []
    line = se.classical_stack_evaluator([np.ones(3)], 0.5)
    for kind in (True, False, np.bool_(True)):
        with pytest.raises(InvalidParameterError, match=f"got {kind!r}"):
            qd.integrate_stack(line, 0.5, [(0, (0.0, 0.05), kind, 1e-5)])


def test_pass_logs_one_debug_line(caplog, monkeypatch):
    # one line per pass: its integrals, evaluator calls, panels tested (two
    # quarter points each, base panels and children alike), deepest depth
    # and integrals flagged at the depth limit, here 2
    caplog.set_level("DEBUG", logger="hardyseries.quadrature")
    monkeypatch.setattr(qd, "_MAX_DEPTH", 2)
    coeffs = _stack_series(3410, 6)[:-1]
    integrals = _window_integrals(len(coeffs), (0.05, 0.2), ("minus", "plus", 1.0), 1e-13)
    sizes = []
    line = se.classical_stack_evaluator(coeffs, 0.5)

    def ev(points, rows=None):
        sizes.append(points.shape[0])
        return line(points, rows)

    results = qd.integrate_stack(ev, 0.5, integrals)
    base = sum(qd._unit_panels(*window) for _, window, _, _ in integrals)
    panels = base + 2 * sum(r.subdivisions - 1 for r in results)
    assert panels == sum(sizes[1:]) // 2
    flagged = sum(r.flagged for r in results)
    assert 0 < flagged < len(results)
    assert caplog.messages == [
        f"adaptive Simpson: {len(integrals)} integrals, {len(sizes)} evaluator calls, "
        f"{panels} panels, depth 2, {flagged} flagged at the depth limit"]
    caplog.clear()
    qd.poisson_log_integral(_const(2.0), 0.0, 1.0, "plus", 1e-6, l1_norm=2.0)
    assert len(caplog.messages) == 1 and caplog.messages[0].startswith(
        "adaptive Simpson: 1 integrals, ")


@pytest.mark.parametrize("grid_n", [16, 64, 511, 3000])
def test_interval_sup_call_budget(grid_n):
    # the grid in one call, then one call for each of the 4 zoom rounds
    sizes = []
    line = se.line_evaluator(se.classical_polynomial([1.0, 0.7, -0.4, 0.25], 0.5), 0.5)

    def ev(points):
        sizes.append(points.size)
        return line(points)

    qd.interval_sup(ev, 0.5, (0.0, 10.0), grid_n=grid_n)
    assert sizes == [grid_n + 1] + [33] * 4
    # a stack of 12 series takes the same calls: the grid as one 1-d array,
    # each zoom round as one (12, 33) array
    shapes = []
    coeffs = np.random.default_rng(grid_n).normal(size=(12, 4)) + 0j
    stack = se.classical_stack_evaluator(coeffs, 0.5)

    def stacked(points):
        shapes.append(points.shape)
        return stack(points)

    assert qd.interval_sup(stacked, 0.5, (0.0, 10.0), grid_n=grid_n).shape == (12,)
    assert shapes == [(grid_n + 1,)] + [(12, 33)] * 4


def test_interval_sup_level_skips_rows_that_reach_it():
    # rows whose grid maximum reaches the level come back as that maximum,
    # with no zoom; the others zoom as a stack of their own rows, each the
    # bits of its sup without a level
    rng = np.random.default_rng(35)
    coeffs = rng.normal(size=(12, 8)) + 1j * rng.normal(size=(12, 8))
    stack = se.classical_stack_evaluator(coeffs, 0.5)
    shapes = []

    def stacked(points, rows=None):
        shapes.append(points.shape if rows is None else (points.shape, tuple(rows)))
        return stack(points, rows)

    window = (2.0, 4.0)
    grid = np.abs(stack(0.5 + 1j * (2.0 + np.arange(33) * 2.0 / 32))).max(axis=1)
    full = qd.interval_sup(stack, 0.5, window, grid_n=32)
    level = float(np.median(grid))
    sups = qd.interval_sup(stacked, 0.5, window, grid_n=32, level=level)
    below = tuple(np.flatnonzero(grid < level).tolist())
    assert 0 < len(below) < 12
    assert shapes == [(33,)] + [((len(below), 33), below)] * 4
    assert np.array_equal(sups, np.where(grid >= level, grid, full))
    # one function, whose zoom beats its grid: a level at or below its grid
    # maximum ends at the grid
    k = int(np.flatnonzero(full > grid)[0])
    line = se.line_evaluator(se.classical_polynomial(coeffs[k], 0.5), 0.5)
    assert qd.interval_sup(line, 0.5, window, grid_n=32, level=grid[k]) == grid[k]
    assert qd.interval_sup(line, 0.5, window, grid_n=32, level=full[k]) == full[k]


@pytest.mark.parametrize("grid_n", [32, 64, 600])
def test_stacked_interval_sup_is_each_row_bit_for_bit(grid_n):
    # each entry of a stacked sup is the 1-d sup of its row alone, with rows
    # repeated and a stack of one.  Below 128 grid points the row's
    # line_evaluator gives the same bits; a 1-d grid call of 128 or more
    # evenly spaced points takes the NUFFT head, which a stack never does,
    # so there the row alone is a stack of one seen as 1-d
    rng = np.random.default_rng(1404 + grid_n)
    for k_rows, terms, delta in ((12, 16, 0.1), (1, 16, 0.05), (7, 5, 0.05)):
        coeffs = rng.normal(size=(k_rows, terms)) + 1j * rng.normal(size=(k_rows, terms))
        coeffs[:, 0] = 1.0
        if k_rows > 2:
            coeffs[2] = coeffs[0]
        window = (3.0, 3.0 + delta)
        sups = qd.interval_sup(se.classical_stack_evaluator(coeffs, 0.5), 0.5, window,
                               grid_n=grid_n)
        assert sups.shape == (k_rows,)
        for k in range(k_rows):
            if grid_n < 127:
                ev = se.line_evaluator(se.classical_polynomial(coeffs[k], 0.5), 0.5)
            else:
                row = se.classical_stack_evaluator(coeffs[k:k + 1], 0.5)
                ev = lambda points, row=row: row(points)[0]
            one = qd.interval_sup(ev, 0.5, window, grid_n=grid_n)
            assert isinstance(one, float) and sups[k] == one


@pytest.mark.parametrize("stacked", [False, True], ids=["1-d", "stacked"])
def test_interval_sup_zoom_rounds_are_linspace(stacked):
    # every zoom round samples np.linspace(lo, hi, 33) of its window bit for
    # bit, each row of a stacked round on its own; windows are wide enough
    # that no round's window collapses to one float
    rng = np.random.default_rng(3202 + stacked)
    coeffs = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    if stacked:
        line = se.classical_stack_evaluator(coeffs, 0.5)
    else:
        line = se.line_evaluator(se.classical_polynomial(coeffs[0], 0.5), 0.5)
    for _ in range(40):
        a = rng.uniform(-1e3, 1e3)
        b = a + 10.0 ** rng.uniform(-3.0, 2.0)
        calls = []

        def ev(points):
            calls.append(points.imag.copy())
            return line(points)

        qd.interval_sup(ev, 0.5, (a, b), grid_n=int(rng.integers(16, 200)))
        assert len(calls) == 5
        for ts in calls[1:]:
            assert ts.shape == ((5, 33) if stacked else (33,))
            for row in np.atleast_2d(ts):
                assert a <= row[0] < row[-1] <= b
                assert row.tobytes() == np.linspace(row[0], row[-1], 33).tobytes()
