"""Quadrature: closed-form integrals, log singularities, Poisson weighting."""

import math

import numpy as np
import pytest

from hardyseries import bounds as bd
from hardyseries import quadrature as qd
from hardyseries import series as se
from hardyseries.errors import InvalidParameterError, QuadratureError


def _const(c):
    return lambda s: np.full(np.shape(s), c, dtype=complex)


def _two_term_eval():
    # L(s) = 1 + 2^-s on sigma = 0: values 1 + e^(-i t log 2)
    return lambda s: 1.0 + 2.0 ** (-s)


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


def _per_segment_poisson(ev, sigma, d, sign, tol, l1_norm, minus_tail_bound):
    """poisson_log_integral with one adaptive pass per octave segment and
    side, as it was before the segments shared one pass: (value, error
    estimate, subdivisions, flagged, tail).  Run it with stack entries of
    256 panels, so that each entry's quarter points are one call."""
    log_part, hit_floor = qd._log_integrand(ev, sigma, sign)

    def f(t):
        return d / math.pi * log_part(t) / (d * d + t * t)

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
            v, e, count, seg_flagged = qd._integrate(f, [(a, b, tol / (2 * len(cuts)), base)])
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
    rng = np.random.default_rng(1500 + terms)
    coeffs = 2.0 / 3.0 * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, terms))
    coeffs[0] = 1.0
    s = se.classical_polynomial(coeffs, 0.5)
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


def test_evaluator_calls_at_most_512_points():
    sizes = []
    s = se.classical_polynomial([1.0, 0.7, -0.4, 0.25, 0.1], 0.5)
    line = se.line_evaluator(s, 0.5)

    def ev(points):
        sizes.append(points.size)
        assert np.all(points.real == 0.5)
        return line(points)

    qd.integrate_abs_pow(ev, 0.5, (0.0, 2000.0), 2, 1e-3)
    qd.integrate_log(ev, 0.5, (0.0, 1200.0), "plus", 1e-4)
    qd.poisson_log_integral(ev, 0.5, 1.0, "plus", 1e-6, l1_norm=se.l1_norm_at(s, 0.5))
    qd.interval_sup(ev, 0.5, (0.0, 100.0), grid_n=3000)
    assert max(sizes) == 512


@pytest.mark.parametrize("grid_n", [16, 64, 511, 3000])
def test_interval_sup_call_budget(grid_n):
    # the grid in calls of at most 512 points, then one call for each of
    # the 4 zoom rounds
    sizes = []
    line = se.line_evaluator(se.classical_polynomial([1.0, 0.7, -0.4, 0.25], 0.5), 0.5)

    def ev(points):
        sizes.append(points.size)
        return line(points)

    qd.interval_sup(ev, 0.5, (0.0, 10.0), grid_n=grid_n)
    assert len(sizes) == math.ceil((grid_n + 1) / 512) + 4
    assert max(sizes) <= 512
    # a stack of 12 series takes the same calls: the grid as one 1-d array,
    # each zoom round as one (12, 33) array
    shapes = []
    coeffs = np.random.default_rng(grid_n).normal(size=(12, 4)) + 0j
    stack = se.classical_stack_evaluator(coeffs, 0.5)

    def stacked(points):
        shapes.append(points.shape)
        return stack(points)

    assert qd.interval_sup(stacked, 0.5, (0.0, 10.0), grid_n=grid_n).shape == (12,)
    assert len(shapes) == len(sizes)
    assert max(shape[-1] for shape in shapes) <= 512
    assert shapes[-4:] == [(12, 33)] * 4


@pytest.mark.parametrize("grid_n", [32, 64, 600])
def test_stacked_interval_sup_is_each_row_bit_for_bit(grid_n):
    # each entry of a stacked sup is the 1-d sup of its row alone, with rows
    # repeated and a stack of one.  Below 128 grid points the row's
    # line_evaluator gives the same bits; a 1-d grid call of 128 or more
    # evenly spaced points takes the phase-matrix head, which a stack never
    # does, so there the row alone is a stack of one seen as 1-d
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
