"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Runtime budgets are asserted on the
measured wall time of the workload the criterion describes; shared
measurement work (criteria 5 and 6 use the same sweep) is executed once and
timed against the first criterion's budget.
"""

import math
import time

import numpy as np
import pytest

from hardyseries import bounds as bd
from hardyseries import harness as hn
from hardyseries import mollifier as mo
from hardyseries import special as sp


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. constant reproduction  (< 1 s)
# ---------------------------------------------------------------------------

def test_criterion_1_constants():
    t0 = time.time()
    kc = sp.kappa_constants()
    checks = []
    checks.append(abs(bd.CLASSICAL_C - 1.02014) <= 1e-5)
    checks.append(abs(kc.kappa_printed - 0.2735187155) <= 1e-9)
    checks.append(abs(kc.kappa_alt - 0.27918489270) <= 1e-9)
    checks.append(abs(kc.c0 - 3.174092008) <= 1e-8)
    checks.append(23.89 <= math.exp(kc.c0) <= 23.91)
    zeta = sp.riemann_zeta(1.7378).real
    checks.append(abs(zeta - 1.98357) <= 2e-5)
    checks.append(2.0 - zeta >= 0.01642)
    chain = bd.hurwitz_anchor_chain()
    checks.append(abs(chain["product"] - 15.976) <= 0.05)
    ab2 = bd.ab2_constants()
    checks.append(abs(ab2["folded"] - 9.0e8) / 9.0e8 <= 0.02)
    frac = bd.consistency_fractions()
    checks.append(frac["seven_sixths"] and frac["hump_exponent"])
    elapsed = time.time() - t0
    checks.append(elapsed < 1.0)
    _report("1-constants", all(checks),
            f"c0={kc.c0:.10f} zeta={zeta:.6f} chain={chain['product']:.4f} "
            f"t={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. special-function oracles  (< 10 s)
# ---------------------------------------------------------------------------

def test_criterion_2_special_functions():
    t0 = time.time()
    ok = abs(sp.riemann_zeta(2.0) - math.pi ** 2 / 6) <= 1e-10
    sigmas = np.linspace(0.25, 3.0, 10)
    ims = [0.0, 3.0, 11.0, 27.0, 50.0]
    for sg in sigmas:
        for t_im in ims:
            s = complex(sg, t_im)
            z = sp.riemann_zeta(s)
            ok = ok and abs(sp.hurwitz_zeta(s, 1.0) - z) <= 1e-10
            ok = ok and abs(sp.hurwitz_zeta(s, 0.5) - (2 ** s - 1) * z) <= 1e-10
    for x in np.logspace(-8, 8, 33):
        w = sp.lambert_w0(float(x))
        ok = ok and abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)
    for s, alpha in [(1 + 7j, 0.3), (2.5, 1.0)]:
        v1, b1 = sp._zeta_sum(complex(s), alpha, None, cutoff=128, order=14)
        v2, b2 = sp._zeta_sum(complex(s), alpha, None, cutoff=256, order=14)
        ok = ok and abs(v1 - v2) <= b1 + b2 + 5e-14 * max(1.0, abs(v1))
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report("2-special-functions", ok, f"t={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. local mean-square sweep  (< 60 s)
# ---------------------------------------------------------------------------

def test_criterion_3_local_l2_sweep():
    t0 = time.time()
    cfg = hn.ExperimentConfig("local_l2_sweep", seed=42, n_series=200,
                              n_terms=20, d_values=(1.0, 10.0))
    result = hn.dispatch(cfg)
    elapsed = time.time() - t0
    ok = result.passed and result.summary["failures"] == 0 and elapsed < 60.0
    _report("3-local-l2", ok,
            f"{result.summary['n_rows']} checks, min margin "
            f"{result.summary['min_margin']:.3g}, t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. nonvanishing abscissas  (< 60 s)
# ---------------------------------------------------------------------------

def test_criterion_4_nonvanishing():
    t0 = time.time()
    cfg = hn.ExperimentConfig("nonvanishing_sweep", seed=42, n_series=50,
                              xis=(0.25, 0.5))
    result = hn.dispatch(cfg)
    cols = result.columns
    resid_idx = cols.index("residual")
    max_resid = max(row[resid_idx] for row in result.rows)
    elapsed = time.time() - t0
    ok = (result.passed and result.summary["failures"] == 0
          and max_resid <= 1e-10 and elapsed < 60.0)
    _report("4-nonvanishing", ok,
            f"{result.summary['n_rows']} checks, max residual {max_resid:.2e}, "
            f"t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5 + 6. short-interval log bounds and sup/L^p lower bounds  (< 5 min each)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def log_bound_sweep():
    t0 = time.time()
    cfg = hn.ExperimentConfig("log_bound_sweep", seed=42, n_series=50,
                              deltas=(0.05, 0.2))
    result = hn.dispatch(cfg)
    return result, time.time() - t0


def test_criterion_5_short_interval_log_bounds(log_bound_sweep):
    result, elapsed = log_bound_sweep
    rows = [r for r in result.rows if "_minus" in r[0] or "_plus" in r[0]]
    failures = [r for r in rows if not r[-1]]
    ok = not failures and elapsed < 300.0
    _report("5-short-interval-log", ok,
            f"{len(rows)} checks across T15/T16/T21/T22, t={elapsed:.1f}s")


def test_criterion_6_sup_lp_lower_bounds(log_bound_sweep):
    result, elapsed = log_bound_sweep
    rows = [r for r in result.rows if "_sup" in r[0] or "_lp" in r[0]]
    failures = [r for r in rows if not r[-1]]
    ok = not failures and elapsed < 300.0
    _report("6-sup-lp-lower", ok,
            f"{len(rows)} checks across T17-T20/T23-T26, t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. zeta-family scans  (< 10 min)
# ---------------------------------------------------------------------------

def test_criterion_7_hurwitz_lerch_scans():
    t0 = time.time()
    cfg = hn.ExperimentConfig(
        "hurwitz_scan", seed=42, alphas=(0.3, 0.5, 1.0), deltas=(0.05,),
        t_start=0.0, t_stop=1000.0, t_step=0.025,
    )
    result = hn.dispatch(cfg)
    ok = result.passed
    key = "alpha_1_delta_0.05"
    running = result.summary[key]["running_min"]
    target = result.summary[key]["asymptotic_target"]
    ok = ok and 5.77e-4 <= running <= 1.0
    ok = ok and abs(target - 5.772e-4) <= 1e-7
    print(f"  alpha=1 running min {running:.6g}, asymptotic target {target:.7g} "
          f"(ratio {running / target:.2f})")
    lerch_cfg = hn.ExperimentConfig(
        "lerch_scan", seed=42, alphas=(0.3, 0.5, 1.0), betas=(0.3, 0.7),
        deltas=(0.05,), t_start=0.0, t_stop=1000.0, t_step=0.025,
    )
    lerch = hn.dispatch(lerch_cfg)
    ok = ok and lerch.passed
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    _report("7-zeta-scans", ok,
            f"{len(result.rows)} windows x3 alphas + {len(lerch.rows)} "
            f"twisted windows, t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. mollifier  (< 60 s)
# ---------------------------------------------------------------------------

def test_criterion_8_mollifier():
    t0 = time.time()
    ok = abs(mo.bump_hat(0.0) - 1.0) <= 1e-10
    xs = np.linspace(-1000.0, 1000.0, 2001)
    ok = ok and float(np.max(np.abs(mo.bump_hat(xs)))) <= 1.0 + 1e-12
    deriv = (mo.bump_hat(xs + 1e-4) - mo.bump_hat(xs - 1e-4)) / 2e-4
    ok = ok and float(np.max(np.abs(deriv))) <= 1.0 / 175.0 + 1e-6
    res = mo.weighted_square_sum(1.0, 0.04)
    ok = ok and res["upper"] <= 90.0 / 0.04
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report("8-mollifier", ok,
            f"weighted sum {res['upper']:.1f} <= {90 / 0.04:.0f}, t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. min-max explorer  (< 5 min)
# ---------------------------------------------------------------------------

def test_criterion_9_minmax():
    t0 = time.time()
    cfg = hn.ExperimentConfig("minmax", seed=42, deltas=(0.1,), m_norm=3.0,
                              orders=(1, 2, 3), restarts=4)
    result = hn.dispatch(cfg)
    norms = {row[1]: row[2] for row in result.rows if row[0] == "witness_norm"}
    ok = result.passed
    ok = ok and abs(norms[1] - math.sqrt(5)) < 1e-12
    ok = ok and abs(norms[2] - math.sqrt(33)) < 1e-12
    ok = ok and abs(norms[3] - math.sqrt(245)) < 1e-12
    # flag the discrepancy against the 3^n value explicitly
    for order in (1, 2, 3):
        assert norms[order] < 3.0 ** order
    slopes = [row for row in result.rows if row[0] == "witness_slope"]
    ok = ok and all(abs(row[2] - row[1]) <= 0.1 for row in slopes)
    sups = [row for row in result.rows if row[0] == "search_sup"]
    ok = ok and all(row[-1] for row in sups)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report("9-minmax", ok,
            f"norms sqrt5/sqrt33/sqrt245 (all below the quoted 3^n), "
            f"best search sup {result.summary['search_best']:.4g}, "
            f"t={elapsed:.1f}s")
