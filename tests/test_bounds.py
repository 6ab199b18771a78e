"""Bound engine: constants, roots, and soundness against direct measurement."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyseries import bounds as bd
from hardyseries import mollifier as mo
from hardyseries import quadrature as qd
from hardyseries import series as se
from hardyseries import special as sp
from hardyseries.errors import InvalidParameterError, InvalidSeriesError, NearZeroAnchorError


def _random_series(rng, n_terms=12, sigma=0.5, unit_tail=False):
    coeffs = rng.uniform(-1, 1, n_terms) + 1j * rng.uniform(-1, 1, n_terms)
    coeffs[0] = 1.0
    if unit_tail:
        tail_norm = np.sqrt(np.sum(np.abs(coeffs[1:]) ** 2))
        coeffs[1:] /= tail_norm
    return se.classical_polynomial(coeffs, sigma)


# ---------------------------------------------------------------------------
# lambda1_floor
# ---------------------------------------------------------------------------

def test_lambda1_floor_sigma_zero():
    assert bd.lambda1_floor(2.0, 0.0) == pytest.approx(0.5)


def test_lambda1_floor_classical_point():
    k = bd.lambda1_floor(1.02014, 0.5)
    assert abs(k - 0.6932) < 1e-4
    # Newton oracle for W(0.5 / 1.02014)
    x = 0.5 / 1.02014
    w = 0.4
    for _ in range(60):
        ew = math.exp(w)
        w -= (w * ew - x) / (ew * (w + 1))
    assert k == pytest.approx(w / 0.5, abs=1e-12)
    # the exact classical constant makes the floor land on log 2 itself
    k_exact = bd.lambda1_floor(bd.CLASSICAL_C, 0.5)
    assert abs(k_exact - math.log(2)) < 1e-12
    assert k_exact == math.log(2)  # W(log(2)/sqrt(2)) = log(2)/2, to the bit
    assert k <= math.log(2) + 1e-12
    assert math.log(2) - k <= 2e-4


def test_lambda1_floor_continuity_at_zero():
    c = 1.7
    assert abs(bd.lambda1_floor(c, 1e-8) - 1.0 / c) <= 1e-6


def test_lambda1_floor_invalid():
    with pytest.raises(InvalidParameterError):
        bd.lambda1_floor(0.0, 0.5)


# ---------------------------------------------------------------------------
# l1 tail from l2
# ---------------------------------------------------------------------------

def test_l1_tail_trivial_cases():
    assert bd.l1_tail_from_l2(0.0, 1.0, 1.0, 2.0) == 0.0
    assert bd.l1_tail_from_l2(1.0, 0.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0))


def test_l1_tail_classical_arithmetic():
    # 2^-2 sqrt(1 + 1/(2 sqrt8 log2)) at x = 2, unit tail norm
    v = bd.classical_l1_tail(1.0, 2.0)
    oracle = 0.25 * math.sqrt(1.0 + 1.0 / (2.0 * math.sqrt(8.0) * math.log(2.0)))
    assert v == pytest.approx(oracle, rel=1e-14)
    assert abs(v - 0.2800) < 5e-4


def test_l1_tail_dominates_actual_norm():
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = _random_series(rng, 10, unit_tail=True)
        p = bd.class_params(s)
        for x in (0.3, 1.0, 2.0):
            # ||L_x - a_0||_1 is the l1 norm of L - a_0 at abscissa sigma + x
            actual = se.l1_norm_at(s, s.sigma + x) - abs(s.coefficients[0])
            for rate in (p.lambda1, p.k):
                assert actual <= bd.l1_tail_from_l2(1.0, p.c, rate, x) * (1 + 1e-9)
            assert actual <= bd.classical_l1_tail(1.0, x) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# local L^2 bound
# ---------------------------------------------------------------------------

def test_local_l2_single_term():
    # constant series: true integral D * 1 <= (D + 3 pi C) for any C >= 0
    one = se.classical_polynomial([1.0])
    ev = se.line_evaluator(one, 0.5)
    r = qd.integrate_abs_pow(ev, 0.5, (0.0, 1.0), 2, 1e-9)
    assert r.value <= bd.local_l2_bound(1.0, 0.7, 1.0)


def test_local_l2_classical_pair():
    s = se.classical_polynomial([1.0, 1.0], 0.5)
    ev = se.line_evaluator(s, 0.5)
    r = qd.integrate_abs_pow(ev, 0.5, (0.0, 10.0), 2, 1e-7)
    c = se.separation_constant(s)
    assert r.value <= bd.local_l2_bound(se.l2_norm(s), c, 10.0)


def test_local_l2_random_sweep_small():
    rng = np.random.default_rng(1)
    for _ in range(25):
        s = _random_series(rng, int(rng.integers(2, 14)))
        ev = se.line_evaluator(s, 0.5)
        bound = bd.local_l2_bound(se.l2_norm(s), bd.CLASSICAL_C, 1.0)
        r = qd.integrate_abs_pow(ev, 0.5, (0.0, 1.0), 2, 1e-6)
        assert r.value <= bound * (1 + 1e-6)


# ---------------------------------------------------------------------------
# weighted log bounds
# ---------------------------------------------------------------------------

def test_log_plus_bound_values():
    v, ok = bd.log_plus_weighted_bound(1.0, "L1", norm1=1.0)
    assert v == 0.0 and ok
    v, ok = bd.log_plus_weighted_bound(0.7378, "H2", norm2=1.0, c=1.02014)
    oracle = 0.13675935776 + 0.5 * math.log(1.0 + 3 * math.pi * 1.02014 / 0.7378)
    assert v == pytest.approx(oracle, abs=1e-9)
    assert abs(v - 1.4575) < 2e-4
    assert ok


def test_log_plus_bound_dominates_quadrature():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = _random_series(rng, 8)
        ev = se.line_evaluator(s, 0.5)
        l1 = se.l1_norm_at(s, 0.5)
        r = qd.poisson_log_integral(ev, 0.5, 1.0, "plus", 1e-6, l1_norm=l1)
        bound, _ = bd.log_plus_weighted_bound(1.0, "L1", norm1=l1)
        assert r.value <= bound + 1e-5
        c = se.separation_constant(s)
        h2, ok = bd.log_plus_weighted_bound(1.0, "H2", norm2=se.l2_norm(s), c=c)
        if ok:
            assert r.value <= h2 + 1e-5


def test_log_minus_bound_constant_series():
    one = se.classical_polynomial([1.0])
    rep = bd.log_minus_weighted_bound(one, 1.0, "L1")
    assert rep.bound_value == pytest.approx(0.0, abs=1e-12)
    assert rep.side == "upper"


def test_log_minus_bound_classical_pair():
    s = se.classical_polynomial([1.0, 0.5], 0.5)
    rep = bd.log_minus_weighted_bound(s, 1.0, "L1")
    anchor = abs(1.0 + 0.5 * 2.0 ** -1.5)  # L(1.5) = 1 + 0.5 * 2^-1.5
    l1 = se.l1_norm_at(s, 0.5)
    assert rep.bound_value == pytest.approx(math.log(l1) - math.log(anchor), rel=1e-10)
    ev = se.line_evaluator(s, 0.5)
    r = qd.poisson_log_integral(
        ev, 0.5, 1.0, "minus", 1e-6, l1_norm=l1, minus_tail_bound=rep.bound_value
    )
    assert r.value <= rep.bound_value + 1e-5


def test_log_minus_near_zero_anchor():
    # 1 - (n+1)^-s has a real zero at s = 0; anchor at sigma + D = 0 blows up
    s = se.classical_polynomial([1.0, -1.0], -0.5)
    with pytest.raises(NearZeroAnchorError):
        bd.log_minus_weighted_bound(s, 0.5, "L1")


def test_hurwitz_anchor_chain_reproduction():
    chain = bd.hurwitz_anchor_chain()
    assert abs(chain["zeta_1_plus_d"] - 1.98357) < 2e-5
    assert chain["anchor_margin"] >= 0.01642
    assert abs(chain["product"] - 15.976) < 0.05
    assert abs(chain["kernel_factor"] - 2.3205) < 1e-3


# ---------------------------------------------------------------------------
# nonvanishing abscissas
# ---------------------------------------------------------------------------

def test_nonvanishing_h2_exponential_case():
    # C = 0, rate 1, norm 1: equation reduces to e^-x = 1 - xi
    x = bd.nonvanishing_abscissa(1.0, 0.0, 1.0, 1.0 - math.exp(-1.0), "H2")
    assert x == pytest.approx(1.0, abs=1e-12)


def test_nonvanishing_l1_closed_form():
    x = bd.nonvanishing_abscissa(2.0, 0.0, math.log(2.0), 0.5, "L1")
    assert x == pytest.approx(2.0, abs=1e-12)


def test_nonvanishing_h2_root_residual():
    s = _random_series(np.random.default_rng(1), 10, unit_tail=True)
    assert bd.nonvanishing(s, 0.5, "H2").residual <= 1e-10


def test_nonvanishing_bounded_root():
    s = se.classical_polynomial([1.0, 0.5, -0.5])
    assert bd.class_params(s).lambda1 == pytest.approx(math.log(2.0))
    assert bd.nonvanishing(s, 0.5, "BoundedCoeff").residual <= 1e-10


def test_nonvanishing_guarantee_sampled():
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = _random_series(rng, 10, unit_tail=True)
        for xi in (0.25, 0.5):
            x, _, cap = bd.nonvanishing(s, xi, "H2")
            ev = se.line_evaluator(s, 0.5 + x)
            mods = [abs(ev(complex(0.5 + x, t))) for t in np.linspace(0, 50, 400)]
            assert min(mods) >= xi - 1e-6
            assert max(mods) <= 2 - xi + 1e-6
            assert x <= cap + 1e-12


def _documented_inputs(s, variant):
    """(norm, C, rate) that the module docstring names for each variant."""
    p = bd.class_params(s)
    if variant == "L1":
        return se.l1_norm_at(s, s.sigma) - 1.0, p.c, p.lambda1
    if variant == "H2":
        return float(np.sqrt(np.sum(np.abs(s.coefficients[1:]) ** 2))), p.c, p.k
    return 1.0, p.c, p.lambda1


def _bounded(s):
    """``s`` with its tail divided by max(1, max |a_n|), so |a_n| <= 1."""
    coeffs = s.coefficients.copy()
    coeffs[1:] /= max(1.0, float(np.max(np.abs(coeffs))))
    return se.classical_polynomial(coeffs, s.sigma)


@pytest.mark.parametrize("variant", ["L1", "H2", "BoundedCoeff"])
def test_nonvanishing_matches_formula(variant):
    rng = np.random.default_rng(18)
    for n_terms in (2, 5, 12):
        for unit_tail in (False, True):
            s = _random_series(rng, n_terms, unit_tail=unit_tail)
            if variant == "BoundedCoeff":
                s = _bounded(s)
            norm, c, rate = _documented_inputs(s, variant)
            for xi in (0.1, 0.5, 0.9):
                x, residual, cap = bd.nonvanishing(s, xi, variant)
                assert x == bd.nonvanishing_abscissa(norm, c, rate, xi, variant)
                assert residual <= 1e-10
                assert x <= cap + 1e-12
                assert math.isinf(cap) == (variant != "H2")


def test_nonvanishing_bounded_refuses_large_coefficients():
    # L13 holds for |a_n| <= 1: at [1, 3] its x_xi = 1.683 would promise
    # |L| >= 0.5 where |L| dips to 0.34
    with pytest.raises(InvalidParameterError, match="BoundedCoeff"):
        bd.nonvanishing(se.classical_polynomial([1, 3]), 0.5, "BoundedCoeff")
    rng = np.random.default_rng(18)
    refused = 0
    for n_terms in (2, 5, 12):
        for unit_tail in (False, True):
            s = _random_series(rng, n_terms, unit_tail=unit_tail)
            if np.max(np.abs(s.coefficients)) > 1.0 + 1e-12:
                refused += 1
                with pytest.raises(InvalidParameterError):
                    bd.nonvanishing(s, 0.5, "BoundedCoeff")
    assert refused > 0


def test_nonvanishing_normalizes_leading_coefficient():
    s = se.classical_polynomial([2.0, 1.0, -0.5j])
    for variant in ("L1", "H2", "BoundedCoeff"):
        assert bd.nonvanishing(s, 0.5, variant) == bd.nonvanishing(
            se.normalize_leading(s), 0.5, variant)


@pytest.mark.parametrize("alpha, expected", [(0.1, 0.402), (0.5, 1.012), (1.0, 1.683)])
def test_nonvanishing_hurwitz_family(alpha, expected):
    s = se.hurwitz_family(alpha)
    assert bd.nonvanishing(s, 0.5, "BoundedCoeff").x == pytest.approx(expected, abs=5e-4)


@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=80, deadline=None)
def test_nonvanishing_monotone_in_xi_and_norm(xi1, xi2, norm):
    xi1, xi2 = min(xi1, xi2), max(xi1, xi2)
    c, k = 1.02014, 0.6932
    x1 = bd.nonvanishing_abscissa(norm, c, k, xi1, "H2")
    x2 = bd.nonvanishing_abscissa(norm, c, k, xi2, "H2")
    assert x1 <= x2 + 1e-9
    x3 = bd.nonvanishing_abscissa(norm + 0.5, c, k, xi1, "H2")
    assert x1 <= x3 + 1e-9


def test_nonvanishing_zero_norm_and_bad_xi():
    assert bd.nonvanishing_abscissa(0.0, 1.0, 1.0, 0.5, "H2") == 0.0
    x, residual, _ = bd.nonvanishing(se.classical_polynomial([1.0, 0.0]), 0.5, "H2")
    assert (x, residual) == (0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        bd.nonvanishing_abscissa(1.0, 1.0, 1.0, 1.5, "H2")


# ---------------------------------------------------------------------------
# short-interval bounds
# ---------------------------------------------------------------------------

def test_short_interval_t15_unit_norm():
    minus, plus = bd.short_interval_log_bounds(
        "T15", 0.1, norm1=1.0, lambda1=math.log(2.0)
    )
    assert plus == 0.0
    oracle = math.pi * (math.log(2.0) + 0.01 * math.log(2.0))
    assert minus == pytest.approx(oracle, rel=1e-12)


def test_theorem21_constants():
    k0, k1 = bd.theorem21_constants(1.02014, 0.6932, 0.05)
    assert abs(k0 - 6.285) < 2e-3
    assert abs(k1 - 19.95) < 1e-2
    assert k1 == pytest.approx(sp.kappa_constants().c0 * k0, rel=1e-14)
    # log4 / K sits at 2.0000 thanks to the K ~ log 2 coincidence
    assert abs(math.log(4.0) / 0.6932 - 2.0) < 2e-4


def test_short_interval_minus_sound_on_random_series():
    rng = np.random.default_rng(12)
    for _ in range(10):
        s = _random_series(rng, 10)
        p = bd.class_params(s)
        norm1 = se.l1_norm_at(s, 0.5)
        norm2 = se.l2_norm(s)
        ev = se.line_evaluator(s, 0.5)
        for delta in (0.05, 0.2):
            measured = qd.integrate_log(ev, 0.5, (0.0, delta), "minus", 1e-6).value
            plus_measured = qd.integrate_log(ev, 0.5, (0.0, delta), "plus", 1e-6).value
            m15, p15 = bd.short_interval_log_bounds(
                "T15", delta, norm1=norm1, lambda1=p.lambda1
            )
            m16, p16 = bd.short_interval_log_bounds(
                "T16", delta, norm2=norm2, c=p.c, k=p.k
            )
            assert measured <= m15 + 1e-3
            assert measured <= m16 + 1e-3
            assert plus_measured <= p15 + 1e-3
            assert plus_measured <= p16 + 1e-3


def test_short_interval_xi_override_still_sound():
    # overriding the tuned level evaluates the anchor assembly directly;
    # it must stay an upper bound for the measured window integral
    rng = np.random.default_rng(21)
    s = _random_series(rng, 8)
    p = bd.class_params(s)
    norm1 = se.l1_norm_at(s, 0.5)
    norm2 = se.l2_norm(s)
    ev = se.line_evaluator(s, 0.5)
    measured = qd.integrate_log(ev, 0.5, (0.0, 0.1), "minus", 1e-6).value
    for xi in (0.25, 0.5, bd.XI_DEFAULT_T16):
        m15, _ = bd.short_interval_log_bounds(
            "T15", 0.1, norm1=norm1, lambda1=p.lambda1, xi=xi
        )
        m16, _ = bd.short_interval_log_bounds(
            "T16", 0.1, norm2=norm2, c=p.c, k=p.k, xi=xi
        )
        assert measured <= m15 + 1e-3
        assert measured <= m16 + 1e-3
    with pytest.raises(InvalidParameterError):
        bd.short_interval_log_bounds(
            "T15", 0.1, norm1=norm1, lambda1=p.lambda1, xi=1.5
        )


def test_short_interval_bounded_variants():
    rng = np.random.default_rng(13)
    coeffs = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)
    coeffs /= np.maximum(1.0, np.abs(coeffs))  # clip to |a_n| <= 1
    coeffs[0] = 1.0
    s = se.classical_polynomial(coeffs, 0.5)
    p = bd.class_params(s)
    ev = se.line_evaluator(s, 0.5)
    measured = qd.integrate_log(ev, 0.5, (0.0, 0.1), "minus", 1e-6).value
    m21, none21 = bd.short_interval_log_bounds(
        "T21", 0.1, norm2=se.l2_norm(s), c=p.c, k=p.k
    )
    m22, none22 = bd.short_interval_log_bounds(
        "T22", 0.1, norm1=se.l1_norm_at(s, 0.5), c=p.c, k=p.k
    )
    assert none21 is None and none22 is None
    assert measured <= m21 + 1e-3
    assert measured <= m22 + 1e-3


# ---------------------------------------------------------------------------
# sup / L^p lower bounds
# ---------------------------------------------------------------------------

def test_suplp_t18_unit_norm():
    k = 0.6932
    v = bd.supnorm_lp_lower_bound("T18", 0.1, norm2=1.0, k=k)
    assert v == pytest.approx(-math.pi * (1.0 / (k * 0.1) + k * 0.1), rel=1e-12)


def test_suplp_t23_log_space():
    v = bd.supnorm_lp_lower_bound("T23", 0.05, norm2=1.0, c=1.02014, k=0.6932)
    k0, _ = bd.theorem21_constants(1.02014, 0.6932, 0.05)
    assert v == pytest.approx(-(k0 / 0.05) * math.log(24.0), rel=1e-12)
    assert abs(k0 / 0.05 - 125.7) < 0.1


def test_suplp_sanity_direction_constant_one():
    # L = 1: measured sup is 1, every lower bound must sit at or below it
    for variant, kwargs in [
        ("T17", dict(norm1=1.0, lambda1=math.log(2.0))),
        ("T18", dict(norm2=1.0, k=0.6932)),
        ("T19", dict(norm1=1.0, lambda1=math.log(2.0))),
        ("T20", dict(norm2=1.0, k=0.6932)),
        ("T23", dict(norm2=1.0, c=1.02014, k=0.6932)),
        ("T24", dict(norm1=1.0, c=1.02014, k=0.6932)),
        ("T25", dict(norm2=1.0, c=1.02014, k=0.6932)),
        ("T26", dict(norm1=1.0, c=1.02014, k=0.6932)),
    ]:
        assert bd.supnorm_lp_lower_bound(variant, 0.1, **kwargs) <= 0.0


# ---------------------------------------------------------------------------
# zeta-family lower bounds
# ---------------------------------------------------------------------------

def test_hurwitz_lower_bound_log_value():
    v = bd.hurwitz_lower_bound(1.0, 0.05, "HurwitzLerch")
    oracle = -(7.0 / 0.3) * math.log(21.0) - 180.0 * math.log(10.0)
    assert v == pytest.approx(oracle, rel=1e-12)
    assert abs(v - (-485.5)) < 0.1


def test_hurwitz_lower_bound_uniform_and_l14():
    v = bd.hurwitz_lower_bound(1.0, 0.05, "Uniform")
    assert v == pytest.approx(
        7.0 / 0.3 * math.log(0.05) - 180.0 * math.log(10.0), rel=1e-12
    )
    v14 = bd.hurwitz_lower_bound(1.0, 0.05, "DirichletL14", coeff_sum=2.0)
    assert v14 == pytest.approx(
        -29.0 / (25 * 0.05) * math.log(3.0) - 16.0 / 0.05, rel=1e-12
    )


def test_hurwitz_lower_bound_alpha_monotone_grid():
    vals = [
        bd.hurwitz_lower_bound(a, 0.03, "HurwitzLerch")
        for a in np.linspace(0.05, 1.0, 40)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_hurwitz_lower_bound_validity_window():
    with pytest.raises(InvalidParameterError):
        bd.hurwitz_lower_bound(1.0, 0.06, "HurwitzLerch")
    with pytest.raises(InvalidParameterError):
        bd.hurwitz_lower_bound(1.0, -0.01, "HurwitzLerch")


def test_consistency_fractions_exact():
    frs = bd.consistency_fractions()
    assert frs["seven_sixths"] is True
    assert frs["hump_exponent"] is True


def test_ab2_constants():
    ab2 = bd.ab2_constants()
    assert ab2["below_1e9"]
    assert abs(ab2["folded"] - 9.0e8) / 9.0e8 < 0.02
    assert abs(ab2["plain"] - 8.8e8) / 8.8e8 < 0.01


# ---------------------------------------------------------------------------
# BoundReport plumbing
# ---------------------------------------------------------------------------

def test_bound_report_json():
    rep = bd.BoundReport("T4", {"D": 1.0}, 4.2, "upper")
    doc = json.loads(json.dumps(rep.as_dict()))
    assert doc["theorem_id"] == "T4"
    assert doc["bound_value"] == 4.2
    assert doc["log_space"] is False


def test_bound_report_validation():
    with pytest.raises(InvalidParameterError):
        bd.BoundReport("T99", {}, 1.0, "upper")
    with pytest.raises(InvalidParameterError):
        bd.BoundReport("T8", {}, 1.0, "upper")  # an id without a formula
    with pytest.raises(InvalidParameterError):
        bd.BoundReport("T4", {}, math.inf, "upper")


def test_class_params_builder():
    s = se.classical_polynomial([1, 0.5, 0.25], 0.5)
    p = bd.class_params(s)
    assert p.c == pytest.approx(bd.CLASSICAL_C)
    assert p.lambda1 == pytest.approx(math.log(2.0))
    assert p.k <= p.lambda1 + 1e-12


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

# each public formula with one parameter whose domain it tests replaced by v
_NON_FINITE_CALLS = {
    "lambda1_floor C": lambda v: bd.lambda1_floor(v, 0.5),
    "lambda1_floor sigma": lambda v: bd.lambda1_floor(1.0, v),
    "l1_tail_from_l2 norm": lambda v: bd.l1_tail_from_l2(v, 1.0, 0.7, 1.0),
    "l1_tail_from_l2 C": lambda v: bd.l1_tail_from_l2(1.0, v, 0.7, 1.0),
    "l1_tail_from_l2 x": lambda v: bd.l1_tail_from_l2(1.0, 1.0, 0.7, v),
    "l1_tail_from_l2 rate": lambda v: bd.l1_tail_from_l2(1.0, 1.0, v, 1.0),
    "classical_l1_tail x": lambda v: bd.classical_l1_tail(1.0, v),
    "classical_l1_tail norm": lambda v: bd.classical_l1_tail(v, 1.0),
    "local_l2_bound D": lambda v: bd.local_l2_bound(1.0, 1.0, v),
    "local_l2_bound norm2": lambda v: bd.local_l2_bound(v, 1.0, 1.0),
    "local_l2_bound C": lambda v: bd.local_l2_bound(1.0, v, 1.0),
    "log_plus_weighted_bound D": lambda v: bd.log_plus_weighted_bound(v, "L1", norm1=2.0),
    "log_plus_weighted_bound norm1": lambda v: bd.log_plus_weighted_bound(1.0, "L1", norm1=v),
    "log_plus_weighted_bound norm2":
        lambda v: bd.log_plus_weighted_bound(1.0, "H2", norm2=v, c=1.0),
    "log_plus_weighted_bound C": lambda v: bd.log_plus_weighted_bound(1.0, "H2", norm2=1.0, c=v),
    "nonvanishing_abscissa norm": lambda v: bd.nonvanishing_abscissa(v, 1.0, 0.7, 0.5, "L1"),
    "nonvanishing_abscissa rate": lambda v: bd.nonvanishing_abscissa(1.0, 1.0, v, 0.5, "H2"),
    "nonvanishing_abscissa xi": lambda v: bd.nonvanishing_abscissa(1.0, 1.0, 0.7, v, "H2"),
    "nonvanishing_abscissa C H2": lambda v: bd.nonvanishing_abscissa(1.0, v, 0.7, 0.5, "H2"),
    "nonvanishing_abscissa C BoundedCoeff":
        lambda v: bd.nonvanishing_abscissa(1.0, v, 0.7, 0.5, "BoundedCoeff"),
    "theorem21_constants delta": lambda v: bd.theorem21_constants(1.0, 0.7, v),
    "theorem21_constants C": lambda v: bd.theorem21_constants(v, 0.7, 0.1),
    "theorem21_constants K": lambda v: bd.theorem21_constants(1.0, v, 0.1),
    "short_interval_log_bounds delta":
        lambda v: bd.short_interval_log_bounds("T15", v, norm1=1.5, lambda1=0.69),
    "short_interval_log_bounds xi":
        lambda v: bd.short_interval_log_bounds("T15", 0.1, norm1=1.5, lambda1=0.69, xi=v),
    "short_interval_log_bounds norm1":
        lambda v: bd.short_interval_log_bounds("T15", 0.1, norm1=v, lambda1=0.69),
    "short_interval_log_bounds norm2":
        lambda v: bd.short_interval_log_bounds("T16", 0.1, norm2=v, c=1.0, k=0.7),
    "short_interval_log_bounds lambda1 T15":
        lambda v: bd.short_interval_log_bounds("T15", 0.1, norm1=1.5, lambda1=v),
    "short_interval_log_bounds C T16":
        lambda v: bd.short_interval_log_bounds("T16", 0.1, norm2=1.5, c=v, k=0.7),
    "short_interval_log_bounds K T16":
        lambda v: bd.short_interval_log_bounds("T16", 0.1, norm2=1.5, c=1.0, k=v),
    "short_interval_log_bounds C T21":
        lambda v: bd.short_interval_log_bounds("T21", 0.1, norm2=1.0, c=v, k=0.7),
    "short_interval_log_bounds K T21":
        lambda v: bd.short_interval_log_bounds("T21", 0.1, norm2=1.0, c=1.0, k=v),
    "short_interval_log_bounds norm2 T21":
        lambda v: bd.short_interval_log_bounds("T21", 0.1, norm2=v, c=1.0, k=0.7),
    "short_interval_log_bounds norm1 T22":
        lambda v: bd.short_interval_log_bounds("T22", 0.1, norm1=v, c=1.0, k=0.7),
    "supnorm_lp_lower_bound delta":
        lambda v: bd.supnorm_lp_lower_bound("T17", v, norm1=1.5, lambda1=0.69),
    "supnorm_lp_lower_bound norm1 T17":
        lambda v: bd.supnorm_lp_lower_bound("T17", 0.1, norm1=v, lambda1=0.69),
    "supnorm_lp_lower_bound lambda1 T17":
        lambda v: bd.supnorm_lp_lower_bound("T17", 0.1, norm1=1.5, lambda1=v),
    "supnorm_lp_lower_bound norm2 T18":
        lambda v: bd.supnorm_lp_lower_bound("T18", 0.1, norm2=v, k=0.7),
    "supnorm_lp_lower_bound K T18":
        lambda v: bd.supnorm_lp_lower_bound("T18", 0.1, norm2=1.5, k=v),
    "supnorm_lp_lower_bound norm2 T23":
        lambda v: bd.supnorm_lp_lower_bound("T23", 0.1, norm2=v, c=1.0, k=0.7),
    "supnorm_lp_lower_bound C T23":
        lambda v: bd.supnorm_lp_lower_bound("T23", 0.1, norm2=1.5, c=v, k=0.7),
    "supnorm_lp_lower_bound norm1 T24":
        lambda v: bd.supnorm_lp_lower_bound("T24", 0.1, norm1=v, c=1.0, k=0.7),
    "supnorm_lp_lower_bound K T24":
        lambda v: bd.supnorm_lp_lower_bound("T24", 0.1, norm1=1.5, c=1.0, k=v),
    "hurwitz_lower_bound delta": lambda v: bd.hurwitz_lower_bound(1.0, v, "Uniform"),
    "hurwitz_lower_bound alpha": lambda v: bd.hurwitz_lower_bound(v, 0.05, "HurwitzLerch"),
    "hurwitz_lower_bound coeff_sum":
        lambda v: bd.hurwitz_lower_bound(1.0, 0.05, "DirichletL14", coeff_sum=v),
    "lambert_w0 x": lambda v: sp.lambert_w0(v),
    "weighted_square_sum alpha": lambda v: mo.weighted_square_sum(v, 0.05),
    "weighted_square_sum delta": lambda v: mo.weighted_square_sum(0.5, v),
    "ExponentSequence c": lambda v: se.ExponentSequence.linear(v),
    "DirichletSeries sigma":
        lambda v: se.DirichletSeries(se.ExponentSequence.classical(), np.ones(2), v),
    "ClassParams C": lambda v: se.ClassParams(v, 0.5, 0.7, 0.6),
    "ClassParams K": lambda v: se.ClassParams(1.0, 0.5, 0.7, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", sorted(_NON_FINITE_CALLS))
def test_formulas_refuse_non_finite_inputs(case, value):
    # NaN passes every sign test written as `x <= 0`, so each domain guard
    # must refuse it (and +-inf) outright, naming the parameter
    name = case.split()[1]
    with pytest.raises((InvalidParameterError, InvalidSeriesError), match=name):
        _NON_FINITE_CALLS[case](value)


# each formula that reads the log of a norm, or divides by C or K, with
# that parameter at 0: refused by name, not a bare math domain error or
# ZeroDivisionError
_ZERO_CALLS = {
    "log_plus_weighted_bound norm2": lambda: bd.log_plus_weighted_bound(1.0, "H2", norm2=0.0,
                                                                        c=1.0),
    "theorem21_constants C": lambda: bd.theorem21_constants(0.0, 0.7, 0.1),
    "theorem21_constants K": lambda: bd.theorem21_constants(1.0, 0.0, 0.1),
    "short_interval_log_bounds K T16":
        lambda: bd.short_interval_log_bounds("T16", 0.1, norm2=1.5, c=1.0, k=0.0),
    "short_interval_log_bounds norm2 T21":
        lambda: bd.short_interval_log_bounds("T21", 0.1, norm2=0.0, c=1.0, k=0.7),
    "short_interval_log_bounds norm1 T22":
        lambda: bd.short_interval_log_bounds("T22", 0.1, norm1=0.0, c=1.0, k=0.7),
    "short_interval_log_bounds lambda1 T15":
        lambda: bd.short_interval_log_bounds("T15", 0.1, norm1=1.5, lambda1=0.0),
    **{f"supnorm_lp_lower_bound {norm} {tid}":
       (lambda tid=tid, norm=norm: bd.supnorm_lp_lower_bound(
           tid, 0.1, **{"norm1": 1.5, "norm2": 1.5, norm: 0.0}, c=1.0, k=0.7,
           lambda1=0.69))
       for tid, norm in (("T17", "norm1"), ("T19", "norm1"), ("T18", "norm2"),
                         ("T20", "norm2"), ("T23", "norm2"), ("T25", "norm2"),
                         ("T24", "norm1"), ("T26", "norm1"))},
}


@pytest.mark.parametrize("case", sorted(_ZERO_CALLS))
def test_formulas_refuse_zero_norms_and_constants(case):
    with pytest.raises(InvalidParameterError, match=f"{case.split()[1]} must be finite and > 0"):
        _ZERO_CALLS[case]()
