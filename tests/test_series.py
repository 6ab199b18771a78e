"""Core series type: norms, separation constant, normalization, JSON reader."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyseries import quadrature as qd
from hardyseries import series as se
from hardyseries import special as sp
from hardyseries.errors import InvalidParameterError, InvalidSeriesError, ZeroSeriesError


def _tail_l1(s: se.DirichletSeries, sigma1: float) -> float:
    """|| L - a_0 ||_1 at sigma1 for a finite series."""
    lam = s.lambdas[1:]
    return float(np.sum(np.abs(s.coefficients[1:]) * np.exp(-lam * sigma1)))


def _random_series(rng, n_terms=12, sigma=0.5):
    coeffs = rng.uniform(-1, 1, n_terms) + 1j * rng.uniform(-1, 1, n_terms)
    coeffs[0] = 1.0
    return se.classical_polynomial(coeffs, sigma)


# ---------------------------------------------------------------------------
# separation constant
# ---------------------------------------------------------------------------

def test_separation_classical_half():
    s = se.classical_polynomial([1, 1], 0.5)
    assert abs(se.separation_constant(s) - 1.02014) < 1e-5
    assert abs(se.separation_constant(s) - 1 / (math.sqrt(2) * math.log(2))) < 1e-12


def test_separation_classical_longer_list_does_not_grow():
    s2 = se.classical_polynomial(np.ones(200), 0.5)
    assert abs(se.separation_constant(s2) - 1 / (math.sqrt(2) * math.log(2))) < 1e-12


def test_separation_explicit_pair():
    s = se.DirichletSeries(se.ExponentSequence.explicit([0.0, 1.0]), np.ones(2), 0.0)
    assert se.separation_constant(s) == pytest.approx(1.0)


def test_separation_linear_two_pi():
    s = se.DirichletSeries(se.ExponentSequence.linear(2 * math.pi), np.ones(1000), 0.0)
    val = se.separation_constant(s)
    lam = 2 * math.pi * np.arange(1000)
    brute = max(
        1.0 / abs(lam[n] - lam[m])
        for n in range(0, 50)
        for m in range(n + 1, 1000, 37)
    )
    assert val == pytest.approx(1 / (2 * math.pi), abs=1e-12)
    assert val == pytest.approx(brute, abs=1e-12)


def test_separation_requires_two_terms():
    s = se.classical_polynomial([1.0], 0.5)
    with pytest.raises(InvalidSeriesError):
        se.separation_constant(s)


def test_separation_negative_sigma_full_scan():
    # with sigma < 0 the sup can leave the adjacent pairs; brute force agrees
    lam = (0.0, 0.1, 0.2, 5.0)
    s = se.DirichletSeries(se.ExponentSequence.explicit(lam), np.ones(4), -1.0)
    brute = max(
        math.exp(-s.sigma * (lam[n] + lam[m])) / (lam[m] - lam[n])
        for n in range(4)
        for m in range(n + 1, 4)
    )
    assert se.separation_constant(s) == pytest.approx(brute)


def test_hurwitz_separation_below_classical():
    # the constant is largest at alpha = 1 where it matches the classical one
    c1 = se.separation_constant(se.hurwitz_family(1.0, n_terms=8))
    for alpha in (0.2, 0.5, 0.8):
        c = se.separation_constant(se.hurwitz_family(alpha, n_terms=8))
        assert c <= c1 + 1e-12
    assert c1 == pytest.approx(1 / (math.sqrt(2) * math.log(2)), abs=1e-12)


def test_separation_tail_scan_is_stable():
    # the four-term family already has the C of the whole family: its
    # adjacent-pair value falls along the exponents, so extending the scan
    # 12288 terms past the truncation changes nothing
    fam = se.hurwitz_family(0.7, n_terms=4)
    lam = fam.exponents.lambdas(12288)
    ext = float(np.max(np.exp(-fam.sigma * (lam[:-1] + lam[1:])) / np.diff(lam)))
    assert se.separation_constant(fam) == pytest.approx(ext, rel=1e-12)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_l2_norm_values():
    assert se.l2_norm(se.classical_polynomial([1.0])) == 1.0
    assert se.l2_norm(se.classical_polynomial([1, 2j, -2])) == pytest.approx(3.0)


@pytest.mark.parametrize("order,sq", [(1, 5), (2, 33), (3, 245)])
def test_l2_norm_binomial_family(order, sq):
    # exact expansion oracle: sum C(order,k)^2 4^k
    oracle = sum(math.comb(order, k) ** 2 * 4 ** k for k in range(order + 1))
    assert oracle == sq
    a = se.one_minus_two_power_series(order)
    assert se.l2_norm(a) == pytest.approx(math.sqrt(sq), rel=1e-14)
    # the cube-of-norm claim 3^order matches the coefficient l1 sum instead
    assert np.sum(np.abs(a.coefficients)) == pytest.approx(3.0 ** order)


def test_l1_norm_trivial():
    assert se.l1_norm_at(se.classical_polynomial([1.0]), 2.3) == pytest.approx(1.0)
    s = se.classical_polynomial([1, 1])
    assert se.l1_norm_at(s, 1.0) == pytest.approx(1.5)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("sigma1", [0.7, 1.2378, 2.0])
def test_l1_norm_hurwitz_tail_bounds(alpha, sigma1):
    # the family's l1 sum plus its tail beyond the 64 stored terms, from
    # special, is the whole sum alpha^p zeta(p, alpha), p = sigma1 + 1/2
    fam = se.hurwitz_family(alpha)
    value = se.l1_norm_at(fam, sigma1)
    assert type(value) is float
    p = sigma1 + 0.5
    tail = alpha ** p * sp.hurwitz_tail_sum(p, alpha, len(fam))[0].real
    exact = alpha ** p * sp.hurwitz_zeta(p, alpha).real
    assert value + tail == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_l1_norm_hurwitz_shifted_tail_falls(alpha):
    fam = se.hurwitz_family(alpha)
    tails = [se.l1_norm_at(fam, fam.sigma + x) - abs(fam.coefficients[0])
             for x in (0.3, 0.7, 1.5)]
    assert all(isinstance(v, float) for v in tails)
    assert tails[0] > tails[1] > tails[2] > 0


# ---------------------------------------------------------------------------
# shifted norms, rescaled exponents, normalization
# ---------------------------------------------------------------------------

def test_shift_l1_monotone_random():
    # ||L_x||_1 at sigma is the l1 norm at sigma + x, which decreases in x
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = _random_series(rng)
        base = se.l1_norm_at(s, s.sigma)
        for x in (0.1, 1.0):
            assert se.l1_norm_at(s, s.sigma + x) <= base + 1e-12


def test_rescale_separation_matches_bruteforce():
    # L(a s) has exponents a lambda_n and reference abscissa sigma / a
    rng = np.random.default_rng(3)
    for _ in range(20):
        gaps = rng.uniform(0.05, 1.5, rng.integers(2, 9))
        lam = np.concatenate([[0.0], np.cumsum(gaps)])
        sigma = float(rng.uniform(0.0, 1.0))
        a = float(rng.uniform(0.3, 2.5))
        lam2, sig2 = a * lam, sigma / a
        r = se.DirichletSeries(
            se.ExponentSequence.explicit(lam2), np.ones(lam.size), sig2
        )
        brute = max(
            math.exp(-sig2 * (lam2[n] + lam2[m])) / abs(lam2[m] - lam2[n])
            for n in range(lam.size)
            for m in range(n + 1, lam.size)
        )
        assert se.separation_constant(r) == pytest.approx(brute, rel=1e-12)


def test_normalize_leading():
    s = se.classical_polynomial([1, 5, 2])
    assert se.normalize_leading(s) is s
    s2 = se.classical_polynomial([0, 3, 6])
    n2 = se.normalize_leading(s2)
    np.testing.assert_allclose(n2.coefficients, [1.0, 2.0])
    np.testing.assert_allclose(n2.lambdas, [0.0, math.log(3) - math.log(2)])
    with pytest.raises(ZeroSeriesError):
        se.normalize_leading(se.classical_polynomial([0, 0.0]))


def test_normalize_leading_random_monotone():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_lead = int(rng.integers(1, 4))
        coeffs = np.concatenate(
            [np.zeros(n_lead), rng.uniform(0.2, 1, 6) + 1j * rng.uniform(-1, 1, 6)]
        )
        s = se.classical_polynomial(coeffs)
        n = se.normalize_leading(s)
        lam = n.lambdas
        assert lam[0] == 0.0
        assert np.all(np.diff(lam) > 0)
        assert n.coefficients[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _term_sum(s: se.DirichletSeries, point: complex) -> complex:
    """sum a_n e^(-lambda_n s) of a finite series, one cmath term at a time."""
    return sum(complex(a) * cmath.exp(-float(lam) * point)
               for a, lam in zip(s.coefficients, s.lambdas))


def _one_point(s: se.DirichletSeries, point: complex) -> complex:
    return complex(se.line_evaluator(s, point.real)(np.array(point)))


def test_evaluate_finite_exact():
    one = se.classical_polynomial([1.0])
    assert _one_point(one, 3 + 4j) == 1.0
    s = se.classical_polynomial([1, 1])
    assert _one_point(s, 1.0 + 0j) == pytest.approx(1.5)
    assert _one_point(s, 1.0 + 0j) == _term_sum(s, 1.0)


def test_evaluate_hurwitz_matches_zeta():
    # the family plus its tail from special sums to alpha^w zeta(w, alpha)
    # with w = s + 1/2
    mpmath = pytest.importorskip("mpmath")
    for alpha, n_terms, point in ((1.0, 64, 1.2378 + 0j), (0.4, 24, 0.75 + 17.5j),
                                  (0.7, 16, 1.1 - 3.0j)):
        fam = se.hurwitz_family(alpha, n_terms=n_terms)
        w = point + 0.5
        value = _one_point(fam, point) + alpha ** w * sp.hurwitz_tail_sum(w, alpha, n_terms)[0]
        with mpmath.workdps(25):
            ref = complex(mpmath.power(alpha, w) * mpmath.zeta(w, alpha))
        assert abs(value - ref) <= 1e-12


def test_hurwitz_family_checks_inputs_first():
    # a bad alpha is refused before any coefficient is computed, so no numpy
    # warning (an error under this suite's filter) comes first
    for alpha in (0.0, -0.5, math.nan):
        with pytest.raises(InvalidParameterError, match="alpha"):
            se.hurwitz_family(alpha)
    for n_terms in (2.5, 0):
        with pytest.raises(InvalidParameterError, match="n_terms"):
            se.hurwitz_family(0.5, n_terms)
    assert len(se.hurwitz_family(0.5, np.int64(3))) == 3


def test_line_evaluator_matches_term_sum():
    rng = np.random.default_rng(5)
    s = _random_series(rng)
    ev = se.line_evaluator(s, 0.5)
    ts = np.array([0.0, 0.3, 2.0])
    for t, value in zip(ts, ev(0.5 + 1j * ts)):
        assert abs(value - _term_sum(s, complex(0.5, t))) < 1e-12
    # the line is fixed: a quadrature on another line cannot silently use it
    with pytest.raises(InvalidParameterError):
        ev(np.array([0.5 + 1j, 0.6 + 1j]))
    with pytest.raises(InvalidParameterError):
        qd.integrate_abs_pow(ev, 2.0, (0.0, 1.0), 2, 1e-9)


def _head_reference(s: se.DirichletSeries, sigma1: float, ts: np.ndarray) -> np.ndarray:
    # one complex exp per (point, term), weights first, summed per row
    lam = s.lambdas
    weights = s.coefficients * np.exp(-lam * sigma1)
    return np.sum(weights * np.exp(-1j * np.outer(ts, lam)), axis=1)


def _euler_head_reference(s: se.DirichletSeries, sigma1: float, ts: np.ndarray) -> np.ndarray:
    # a classical head by its Euler product: exp(-i t log p) at a prime p,
    # row p times row m at n = p m with p the least prime factor of n, then
    # weighted (weights first) and added one term at a time in term order
    lam = s.lambdas
    weights = s.coefficients * np.exp(-lam * sigma1)
    sv = 1j * ts
    rows = {1: np.ones(ts.shape, dtype=complex)}
    total = weights[0] * rows[1]
    for n in range(2, len(s) + 1):
        p = next(q for q in range(2, n + 1) if n % q == 0)
        rows[n] = np.exp(-sv * lam[n - 1]) if p == n else rows[p] * rows[n // p]
        total = total + weights[n - 1] * rows[n]
    return total


def _kernel_series(rng):
    # classical, linear and explicit exponents, 2 to 600 terms
    for n_terms in (2, 37, 600):
        coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
        gaps = rng.uniform(0.01, 1.0, n_terms - 1)
        yield se.classical_polynomial(coeffs, 0.5)
        yield se.DirichletSeries(se.ExponentSequence.linear(0.37), coeffs, 0.5)
        yield se.DirichletSeries(
            se.ExponentSequence.explicit(np.concatenate([[0.0], np.cumsum(gaps)])),
            coeffs, 0.5)


def test_line_evaluator_off_progression_is_the_term_sum_bit_for_bit():
    # linear and explicit exponents sum one exp per (point, term); classical
    # ones their Euler product
    rng = np.random.default_rng(1988)
    for s in _kernel_series(rng):
        ev = se.line_evaluator(s, 0.5)
        classical = s.exponents.kind == "classical"
        reference = _euler_head_reference if classical else _head_reference
        for ts in (rng.uniform(-1e3, 1e3, 300), np.linspace(0.0, 5.0, 65),
                   rng.uniform(0.0, 1.0, 1)):
            assert np.array_equal(ev(0.5 + 1j * ts), reference(s, 0.5, ts))


def test_line_evaluator_on_even_grid_matches_the_term_sum():
    # 4001 evenly spaced ordinates take the NUFFT head whatever the term
    # count; the empty array gives an empty result
    rng = np.random.default_rng(2012)
    ts = np.linspace(0.0, 40.0, 4001)
    for s in _kernel_series(rng):
        ev = se.line_evaluator(s, 0.5)
        scale = np.sum(np.abs(s.coefficients * np.exp(-0.5 * s.lambdas)))
        deviation = np.abs(ev(0.5 + 1j * ts) - _head_reference(s, 0.5, ts))
        assert np.max(deviation) <= 1e-13 * scale
        empty = ev(np.empty(0, dtype=complex))
        assert empty.shape == (0,) and empty.dtype == complex


def test_classical_stack_evaluator_rows_are_line_evaluators():
    # row k of a stack is series k on the line, bit for bit, for points
    # shared by every row, one row of points per series, or one row of
    # points per named series
    rng = np.random.default_rng(1405)
    coeffs = rng.normal(size=(6, 16)) + 1j * rng.normal(size=(6, 16))
    coeffs[4] = coeffs[1]
    ev = se.classical_stack_evaluator(coeffs, 0.5)
    lines = [se.line_evaluator(se.classical_polynomial(c, 0.5), 0.5) for c in coeffs]
    shared = rng.uniform(0.0, 50.0, 33)
    rows = rng.uniform(0.0, 50.0, (6, 33))
    rows[3] = rows[0]
    for ts in (shared, rows):
        values = ev(0.5 + 1j * ts)
        assert values.shape == (6, 33)
        for k in range(6):
            assert np.array_equal(values[k], lines[k](0.5 + 1j * np.broadcast_to(ts, (6, 33))[k]))
    which = np.array([5, 0, 0, 2, 4, 1, 3])
    values = ev(0.5 + 1j * rows[which], rows=which)
    for j, k in enumerate(which):
        assert values[j].tobytes() == lines[k](0.5 + 1j * rows[k]).tobytes()
    with pytest.raises(InvalidParameterError):
        ev(0.25 + 1j * shared)


def test_classical_stack_evaluator_of_any_lengths_is_each_line_evaluator():
    # series of 1 to 20 terms in one stack, two of them alike: every row is
    # its series' line_evaluator bit for bit, for points shared by every
    # row, one row of points per series, and one point per row named by
    # ``rows``, repeated points and series included.  Each row sums only its
    # own terms, and the weights multiply the exponentials (weights first,
    # as the per-row path does): numpy's complex multiply may fuse one
    # product into the rounding of the other, so terms * weights can differ
    # from weights * terms in the last bit
    rng = np.random.default_rng(3300)
    coeffs = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in range(1, 21)]
    coeffs.append(coeffs[6].copy())
    k_rows = len(coeffs)
    lines = [se.line_evaluator(se.classical_polynomial(c, 0.5), 0.5) for c in coeffs]
    ev = se.classical_stack_evaluator(coeffs, 0.5)
    shared = rng.uniform(0.0, 50.0, 33)
    rows = rng.uniform(0.0, 50.0, (k_rows, 33))
    rows[3] = rows[0]
    for ts in (shared, rows):
        values = ev(0.5 + 1j * ts)
        assert values.shape == (k_rows, 33)
        for k in range(k_rows):
            expected = lines[k](0.5 + 1j * np.broadcast_to(ts, (k_rows, 33))[k])
            assert values[k].tobytes() == expected.tobytes()
    # 4000 one-point rows of up to 20 terms fill ten 2^13-entry blocks
    which = rng.integers(0, k_rows, 4000)
    points = rng.choice(rng.uniform(0.0, 5.0, 40), size=(4000, 1))
    values = ev(0.5 + 1j * points, rows=which)
    assert values.shape == (4000, 1)
    for j in range(4000):
        expected = lines[which[j]](0.5 + 1j * points[j])
        assert values[j].tobytes() == expected.tobytes()
    with pytest.raises(InvalidParameterError):
        ev(0.25 + 1j * points, rows=which)


# ---------------------------------------------------------------------------
# window L^2 as a Hermitian form
# ---------------------------------------------------------------------------

@given(n_terms=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_window_l2_matches_quadrature(n_terms, seed):
    rng = np.random.default_rng(seed)
    s = se.classical_polynomial(rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms))
    ev = se.line_evaluator(s, 0.5)
    for a, b in ((0.0, 1.0), (0.0, 10.0), (0.3, 0.35)):
        value = se.window_l2(s, 0.5, a, b)
        r = qd.integrate_abs_pow(ev, 0.5, (a, b), 2, 1e-12 * value)
        assert not r.flagged
        assert abs(value - r.value) <= 1e-11 * value


@pytest.mark.parametrize("a0, a, b", [(3 + 4j, 0.5, 2.5), (1.0, 0.0, 1.0), (-2j, 0.3, 0.35)])
def test_window_l2_one_term_is_exact(a0, a, b):
    # lambda_0 = 0, so w = a_0 on every line, and |a_0|^2 is a whole number here
    for sigma1 in (0.5, -3.0):
        assert se.window_l2(se.classical_polynomial([a0]), sigma1, a, b) == (b - a) * abs(a0) ** 2


def test_window_l2_near_coincident_exponents_match_mpmath():
    # exponents 1e-9 apart: (1 - e^(-iDx)) / (ix) would lose about 7 digits
    # of the off-diagonal entry, the sinc form keeps them
    mpmath = pytest.importorskip("mpmath")
    gap, coeffs, sigma1, a, b = 1e-9, (1.0, 0.5 - 0.25j), 0.5, 0.0, 1.0
    s = se.DirichletSeries(se.ExponentSequence.explicit([0.0, gap]), np.array(coeffs), 0.5)
    with mpmath.workdps(40):
        lam = mpmath.mpf(gap)
        c0, c1 = (mpmath.mpc(c.real, c.imag) for c in map(complex, coeffs))
        ref = mpmath.quad(
            lambda t: abs(c0 + c1 * mpmath.exp(-lam * mpmath.mpc(sigma1, t))) ** 2, [a, b])
    assert abs(se.window_l2(s, sigma1, a, b) - float(ref)) <= 1e-14 * float(ref)


def test_window_l2_refuses_bad_bounds():
    s = se.classical_polynomial([1.0, 0.5])
    for args, field in (((math.inf, 0.0, 1.0), "sigma1"), ((0.5, math.nan, 1.0), "a"),
                        ((0.5, 0.0, math.inf), "b"), ((0.5, 1.0, 0.0), "b"),
                        ((0.5, 1.0, 1.0), "b")):
        with pytest.raises(InvalidParameterError, match=f"'{field}'"):
            se.window_l2(s, *args)


def test_line_evaluator_logs_its_head_path(caplog):
    caplog.set_level("DEBUG", logger="hardyseries.special")
    s = se.classical_polynomial(np.ones(20), 0.5)
    ev = se.line_evaluator(s, 0.5)
    ev(0.5 + 1j * np.linspace(0.0, 40.0, 4001))
    ev(0.5 + 1j * np.array([0.0, 0.3, 2.0]))
    lines = [r.getMessage() for r in caplog.records if r.name == "hardyseries.special"]
    assert lines == [
        f"head sum: 4001 points, {len(s)} terms, nufft, grid 8100, half-width 16",
        f"head sum: 3 points, {len(s)} terms, euler-product, 8 exps per point",
    ]


# ---------------------------------------------------------------------------
# norm-decay inequalities on finite series
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=0.01, max_value=3.0),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_tail_decay_inequality(n_terms, x, seed):
    rng = np.random.default_rng(seed)
    s = _random_series(rng, n_terms)
    # ||L_x - a_0||_1 is the l1 norm of L - a_0 at abscissa sigma + x
    lhs = se.l1_norm_at(s, s.sigma + x) - abs(s.coefficients[0])
    rhs = math.exp(-s.lambda1 * x) * _tail_l1(s, s.sigma)
    assert lhs <= rhs * (1 + 1e-12) + 1e-15


def test_tail_decay_classical_two_power():
    rng = np.random.default_rng(17)
    s = _random_series(rng, 8)
    for x in (0.25, 1.0, 3.0):
        lhs = se.l1_norm_at(s, s.sigma + x) - abs(s.coefficients[0])
        assert lhs <= 2.0 ** (-x) * _tail_l1(s, s.sigma) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def test_json_round_trip():
    doc = json.dumps({"exponents": {"kind": "classical"},
                      "coefficients": [[1, 0], [0.5, 0.25], [-2, 0]], "sigma": 0.5})
    back = se.series_from_json(doc)
    np.testing.assert_array_equal(back.coefficients, [1, 0.5 + 0.25j, -2])
    assert back.sigma == 0.5
    assert back.exponents.kind == "classical"


def test_json_kinds():
    for doc in (
        {"exponents": {"kind": "hurwitz", "alpha": 0.3}, "coefficients": [[1, 0]], "sigma": 0.5},
        {"exponents": {"kind": "linear", "c": 2.0}, "coefficients": [[1, 0], [0, 1]], "sigma": 0.0},
        {"exponents": {"kind": "explicit", "values": [0, 1.5]}, "coefficients": [[1, 0], [2, 0]], "sigma": 0.0},
    ):
        s = se.series_from_json(json.dumps(doc))
        assert len(s) == len(doc["coefficients"])


def test_json_rejects_unknown_fields():
    doc = {
        "exponents": {"kind": "classical"},
        "coefficients": [[1, 0]],
        "sigma": 0.5,
        "extra": 1,
    }
    with pytest.raises(InvalidSeriesError):
        se.series_from_json(json.dumps(doc))
    doc2 = {
        "exponents": {"kind": "classical", "bogus": 2},
        "coefficients": [[1, 0]],
        "sigma": 0.5,
    }
    with pytest.raises(InvalidSeriesError):
        se.series_from_json(json.dumps(doc2))


def test_json_rejects_bad_exponents():
    doc = {
        "exponents": {"kind": "explicit", "values": [0.0, 1.0, 0.5]},
        "coefficients": [[1, 0], [1, 0], [1, 0]],
        "sigma": 0.0,
    }
    with pytest.raises(InvalidSeriesError):
        se.series_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# ClassParams
# ---------------------------------------------------------------------------

def test_class_params_invariants():
    cp = se.ClassParams(c=1.0201379, sigma=0.5, lambda1=math.log(2), k=0.693146)
    assert cp.k <= cp.lambda1 + 1e-9
    with pytest.raises(InvalidParameterError):
        se.ClassParams(c=1.0, sigma=0.5, lambda1=0.5, k=0.8)
    with pytest.raises(InvalidParameterError):
        se.ClassParams(c=2.0, sigma=0.0, lambda1=1.0, k=0.9)
