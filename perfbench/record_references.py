"""Regenerate ``references.json``, the recorded integral values of the gates.

    PYTHONPATH=src python3 perfbench/record_references.py

Each reference is computed with a tolerance far tighter than the one the
workload requests, and the script refuses to write it unless the value at
the requested tolerance already agrees with it within that tolerance.  The
file therefore pins the values of the commit that recorded it, not a
particular algorithm: a later change passes the gate as long as it still
meets the tolerance it is asked for.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile

import numpy as np

import workloads as wl
from hardyseries import quadrature, special

# Reference tolerance as a share of the requested one.  The Poisson
# integrals use a milder factor: at 1e-3 the truncation point grows past the
# quadrature's panel limit.
TIGHTER = 1e-3
POISSON_TIGHTER = 0.02

# fixed series with coefficients inside the unit disc; |1 - 0.9 * 2^-s| < 1
# near t = 0, so its log- integral is not zero
SIX_TERMS = [[1.0, 0.0], [0.4, -0.3], [-0.2, 0.5], [0.6, 0.1], [0.0, -0.7], [0.3, 0.3]]
TWO_TERMS = [[1.0, 0.0], [-0.9, 0.0]]
CATALOG_CASES = (
    {"kind": "abs_pow", "coefficients": SIX_TERMS, "p": 2.0, "interval": [0.0, 10.0],
     "tol": 4e-6},
    {"kind": "abs_pow", "coefficients": SIX_TERMS, "p": 1.0, "interval": [0.0, 0.05],
     "tol": 5e-7},
    {"kind": "log", "coefficients": TWO_TERMS, "sign": "minus", "interval": [0.0, 0.05],
     "tol": 1e-5},
    {"kind": "log", "coefficients": SIX_TERMS, "sign": "plus", "interval": [0.0, 0.1],
     "tol": 1e-5},
)
POISSON_COEFFS = [[1.0, 0.0], [0.0, 2 / 3], [-2 / 3, 0.0], [0.4714045207910317, 0.4714045207910317]]
POISSON_CASES = ({"d": 1.0, "sign": "plus"}, {"d": 1.0, "sign": "minus"},
                 {"d": 10.0, "sign": "plus"})
# (segment, window index within it)
HURWITZ_WINDOWS = ((0, 40), (5, 500), (16, 0), (21, 111), (31, 111), (39, 1000))
LERCH_SPOTS = (200.0, 456.0, 600.0, 1000.0)


def _agreed(label: str, at_tol: float, reference: float, tol: float) -> float:
    if not abs(at_tol - reference) <= tol:
        sys.exit(f"{label}: {at_tol!r} at the requested tolerance is "
                 f"{abs(at_tol - reference):.3e} from the reference; not recorded")
    return reference


def catalog() -> list:
    out = []
    for i, case in enumerate(CATALOG_CASES):
        ref = {"label": f"catalog{i}_{case['kind']}", "sigma": 0.5, **case}
        tight = wl.catalog_integral({**ref, "tol": case["tol"] * TIGHTER})
        ref["value"] = _agreed(ref["label"], wl.catalog_integral(ref), tight, case["tol"])
        out.append(ref)
    return out


def poisson() -> list:
    out = []
    for case in POISSON_CASES:
        ref = {"label": f"poisson_{case['sign']}_d{case['d']:g}",
               "coefficients": POISSON_COEFFS, "sigma": wl.POISSON_SIGMA,
               "tol": wl.POISSON_TOL, **case}
        tight = wl.poisson_integral({**ref, "tol": wl.POISSON_TOL * POISSON_TIGHTER})
        ref["value"] = _agreed(ref["label"], wl.poisson_integral(ref), tight, wl.POISSON_TOL)
        out.append(ref)
    return out


def _scan_values(items, keys) -> dict:
    for item in items:
        item.run()
    values = {}
    for item in items:
        values.update(wl.csv_values(item.csv_path, keys))
    return values


def hurwitz(work_dir: str) -> list:
    delta = wl.HURWITZ_SCAN["deltas"][0]
    h = delta / 8
    weights = np.ones(9)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    tol = delta * wl.HURWITZ_TARGET_ERROR
    measured = _scan_values(wl.hurwitz_items(0, work_dir), ("alpha", "t"))
    out = []
    scan = wl.HURWITZ_SCAN
    stride = int(round(scan["t_step"] / h))
    for alpha in wl.HURWITZ_ALPHAS:
        for j, k in HURWITZ_WINDOWS:
            # the same floating-point ordinates the harness uses
            lo = scan["t_start"] + j * wl.HURWITZ_SEGMENT
            t = float(lo + scan["t_step"] * np.arange(k + 1)[k])
            nodes = lo + h * np.arange(k * stride, k * stride + 9)
            mods = np.abs(special.hurwitz_zeta_grid(alpha, nodes, 1.0,
                                                    wl.HURWITZ_TARGET_ERROR * TIGHTER))
            label = f"hurwitz_window alpha={alpha:g} t={t:g}"
            value = _agreed(label, measured[(alpha, t)], float(mods @ weights), tol)
            out.append({"label": label, "alpha": alpha, "t": t, "value": value, "tol": tol})
    return out


def twisted(work_dir: str) -> list:
    delta = wl.LERCH_SCAN["deltas"][0]
    tol = wl.LERCH_QUAD_TOL + delta * wl.LERCH_TARGET_ERROR
    measured = _scan_values(wl.twisted_items(0, work_dir), ("alpha", "beta", "t"))
    out = []
    for alpha, beta in wl.LERCH_PAIRS:
        for t in LERCH_SPOTS:

            def ev(s, alpha=alpha, beta=beta):
                return special.lerch_phi(alpha, beta, complex(1.0, s.imag),
                                         wl.LERCH_TARGET_ERROR * TIGHTER)

            tight = quadrature.integrate_abs_pow(ev, 1.0, (t, t + delta), 1,
                                                 wl.LERCH_QUAD_TOL * TIGHTER).value
            label = f"lerch_spot alpha={alpha:g} beta={beta:g} t={t:g}"
            value = _agreed(label, measured[(alpha, beta, t)], tight, tol)
            out.append({"label": label, "alpha": alpha, "beta": beta, "t": t,
                        "value": value, "tol": tol})
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as work_dir, \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        refs = {"catalog_sweep": catalog(), "poisson_log": poisson(),
                "hurwitz_grid": hurwitz(work_dir), "twisted_spots": twisted(work_dir)}
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {sum(map(len, refs.values()))} references to {wl.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
