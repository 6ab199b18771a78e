"""Bump profile, transform bounds, and the mollified coefficient map."""

import math

import numpy as np
import pytest

from hardyseries import mollifier as mo
from hardyseries.errors import InvalidParameterError


def test_profile_ceiling_and_support():
    xs = np.linspace(-0.01, 0.02, 40001)
    vals = mo.BUMP.value(xs)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 176.0)
    assert np.max(vals) == pytest.approx(mo.PEAK, rel=1e-6)
    outside = (xs <= 0.0) | (xs >= 1.0 / 175.0)
    assert np.all(vals[outside] == 0.0)


def test_profile_peak_needs_plateau():
    # a unit-mass bump on [0, 1/175] cannot peak below 175; the plateau
    # profile sits between that hard floor and the 176 ceiling
    assert 175.0 < mo.PEAK <= 176.0


def test_hat_at_zero_is_one():
    assert abs(mo.bump_hat(0.0) - 1.0) < 1e-10


def test_hat_modulus_bounded_on_grid():
    xs = np.linspace(-1000.0, 1000.0, 4001)
    assert np.max(np.abs(mo.bump_hat(xs))) <= 1.0 + 1e-12


def test_hat_derivative_bounded_on_grid():
    xs = np.linspace(-1000.0, 1000.0, 2001)
    d = (mo.bump_hat(xs + 1e-4) - mo.bump_hat(xs - 1e-4)) / 2e-4
    assert np.max(np.abs(d)) <= 1.0 / 175.0 + 1e-6
    # symmetry of the profile halves the first moment: the true sup is 1/350
    assert np.max(np.abs(d)) == pytest.approx(1.0 / 350.0, rel=1e-3)


def test_hat_conjugate_symmetry():
    xs = np.linspace(0.0, 500.0, 501)
    np.testing.assert_allclose(
        mo.bump_hat(-xs), np.conj(mo.bump_hat(xs)), atol=1e-14
    )


def test_hat_matches_outer_product_layer_sum(monkeypatch):
    # the edge layers go through the shared exponential-sum kernel; the
    # reference sums them as one exp per (point, node) and a BLAS product
    rng = np.random.default_rng(175)
    grid = np.linspace(0.0, 3.0e5, 100001)  # NUFFT path: 128 layer nodes
    scattered = np.concatenate([rng.uniform(-2.0e3, 2.0e3, 500),  # per-row path
                                rng.uniform(-3.0e5, 3.0e5, 500)])
    values = [mo.bump_hat(grid), mo.bump_hat(scattered)]
    monkeypatch.setattr(mo.sp, "_head_sum",
                        lambda sv, t, w: np.exp(-1j * np.outer(sv.imag, t)) @ w)
    for value, reference in zip(values, (mo.bump_hat(grid), mo.bump_hat(scattered))):
        assert np.max(np.abs(value - reference)) <= 1e-15


def test_parseval_own_convention():
    # int_R |hat-Phi|^2 = 2 pi int Phi^2 for hat-Phi(x) = int Phi e^(-ixt)
    y = 3.0e5
    grid = np.linspace(0.0, y, 100001)
    vals = np.abs(mo.bump_hat(grid)) ** 2
    total = 2.0 * np.trapezoid(vals, grid)
    target = 2.0 * math.pi * mo.BUMP.l2_squared()
    assert abs(total - target) / target < 0.01


def test_l2_squared_value():
    # plateau arithmetic: 175 (1 - eps - 2 eps q)/(1-eps)^2 with q = int S(1-S)
    val = mo.BUMP.l2_squared()
    assert 175.0 <= val <= 176.0


def test_weighted_square_sum_bound():
    res = mo.weighted_square_sum(1.0, 0.04)
    assert res["upper"] <= 90.0 / 0.04
    res2 = mo.weighted_square_sum(1.0, 0.049)
    assert res2["upper"] <= 90.0 / 0.049


def test_weighted_square_sum_split_consistency():
    # moving the head/tail split point only re-routes mass between the
    # direct sum and the substitution integral
    a = mo.weighted_square_sum(1.0, 0.04, n_head=2000)
    b = mo.weighted_square_sum(1.0, 0.04, n_head=50000)
    assert abs(a["value"] - b["value"]) / b["value"] < 1e-4


def test_weighted_square_sum_alpha_dependence():
    res = mo.weighted_square_sum(0.5, 0.04)
    assert res["upper"] <= 90.0 / 0.04


def test_weighted_square_sum_validation():
    with pytest.raises(InvalidParameterError):
        mo.weighted_square_sum(1.5, 0.04)
    with pytest.raises(InvalidParameterError):
        mo.weighted_square_sum(1.0, 0.0)
