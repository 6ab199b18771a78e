"""Audit: rows of the default ``log_bound_sweep`` against an independent
oracle.

Each sampled row's window integral is computed again with ``mpmath.quad``
at 20 digits, with L(1/2 + it) = sum_n a_n (n + 1)^-(1/2 + it) summed term
by term from the coefficients the sweep drew; the L14 row is its 512-term
series on Re s = 1.  The rule is |measured - oracle| <= the quadrature
tolerance the row requested (1e-5, or 1e-5 delta for |L|^p; 1e-8 for L14).
That is a tolerance, not a bound: adaptive Simpson's error estimate is not
an enclosure, so a row may in principle miss it by more.
"""

import mpmath
import numpy as np
import pytest

from hardyseries import bounds as bd
from hardyseries import harness as hn
from hardyseries import series as se

SAMPLES = 20  # distinct integrals per kind: log-, log+ and |L|


def _sweep():
    """The default sweep's rows and the coefficient lists of its series, in
    the order of its stacked evaluator: general and bounded series of index
    idx at 2 idx and 2 idx + 1."""
    coeffs = []
    real = se.classical_stack_evaluator

    def capture(coefficients, sigma1):
        coeffs.extend(np.asarray(c) for c in coefficients)
        return real(coefficients, sigma1)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(se, "classical_stack_evaluator", capture)
        rows = hn.dispatch(hn.ExperimentConfig("log_bound_sweep")).rows
    return rows, coeffs


def _oracle(coeffs, sigma, delta, kind) -> float:
    """int_0^delta of log+|L|, log-|L| or |L| at sigma + it by mpmath, a log
    cut where |L| crosses 1 on a grid of 17 points, its own error estimate
    checked."""
    with mpmath.workdps(20):
        logs = [mpmath.log(n + 1) for n in range(len(coeffs))]
        weights = [mpmath.mpc(complex(c)) * mpmath.exp(-sigma * lg)
                   for c, lg in zip(coeffs, logs)]

        def modulus(t):
            return abs(mpmath.fsum(w * mpmath.expj(-t * lg) for w, lg in zip(weights, logs)))

        f = {"plus": lambda t: max(0, mpmath.log(modulus(t))),
             "minus": lambda t: max(0, -mpmath.log(modulus(t))),
             1.0: modulus}[kind]
        # cut the window where |L| crosses 1, the kinks of log+ and log-
        grid = [delta * j / 16 for j in range(17)] if kind != 1.0 else []
        signs = [mpmath.log(modulus(t)) > 0 for t in grid]
        cuts = [mpmath.findroot(lambda t: mpmath.log(modulus(t)), (lo, hi), solver="anderson")
                for lo, hi, a, b in zip(grid, grid[1:], signs, signs[1:]) if a != b]
        value, error = mpmath.quad(f, [0, *cuts, delta], error=True)
        assert error <= 1e-12
        return float(value)


def test_sampled_sweep_rows_match_mpmath():
    rows, coeffs = _sweep()
    # (series, delta, kind) -> the integral and its rows' tolerance; a
    # log row measures its integral, an lp1 row the mean (integral / delta)
    integrals = {}
    for check, idx, delta, measured, _, _, _ in rows:
        tid, _, what = check.rpartition("_")
        if what not in ("minus", "plus", "lp1"):
            continue
        k = 2 * idx + (bd.CATALOG[tid].coeffs == "bounded")
        if what == "lp1":
            integrals[k, delta, 1.0] = (measured * delta, 1e-5 * delta)
        else:
            integrals[k, delta, what] = (measured, 1e-5)
    rng = np.random.default_rng(2100)
    misses = []
    for kind in ("minus", "plus", 1.0):
        keys = [key for key in integrals if key[2] == kind]
        for i in rng.choice(len(keys), SAMPLES, replace=False):
            k, delta, _ = keys[i]
            value, tol = integrals[keys[i]]
            miss = abs(value - _oracle(coeffs[k], 0.5, delta, kind))
            assert miss <= tol, (keys[i], value, miss)
            misses.append(miss)
    assert len(misses) == 3 * SAMPLES
    # L14: sum_{n <= 512} n^-(1 + it) on [0, delta], requested at 1e-8
    (delta, measured), = [(row[2], row[3]) for row in rows if row[0] == "L14"]
    assert abs(measured - _oracle(np.ones(512), 1.0, delta, 1.0)) <= 1e-8
