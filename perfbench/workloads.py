"""The four benchmark workloads and their correctness gates.

A workload is a list of items.  Each item is one complete verdict on part of
the workload's pinned input (one ``hardyseries verify`` call, or the
Poisson-weighted checks of one series at one D), so the time to verdict for
the whole input is the sum of the items' times.  Items are cut small (mostly
0.05-0.5 s) because the machine's speed swings within a second: a short
item's fastest repetition comes from a quiet moment far more often than a
long item's does.

Inputs are made from the workload seed before any timing; the program only
receives the generated configs and series.  Every config pins ``threads = 1``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hardyseries.cli
from hardyseries import bounds, quadrature, series, special

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# The catalog experiments at the sizes measured when the benchmark was made
# (200, 50 and 50 series, 4 restarts), each cut into parts with seeds of
# their own: (config of one part, number of parts).
CATALOG = (
    ({"experiment": "local_l2_sweep", "n_series": 25, "d_values": [1.0, 10.0]}, 8),
    ({"experiment": "nonvanishing_sweep", "n_series": 5}, 10),
    ({"experiment": "log_bound_sweep", "n_series": 5, "deltas": [0.05, 0.1]}, 10),
    ({"experiment": "minmax", "deltas": [0.1], "restarts": 1}, 4),
)

# README scan config with the alpha grid cut from (0.3, 0.5, 1) to alpha = 1:
# every alpha costs the same.  The t-range is timed in short segments; peak
# memory is read after one verdict on the whole t-range.
HURWITZ_ALPHAS = (1.0,)
HURWITZ_SCAN = {"experiment": "hurwitz_scan", "alphas": list(HURWITZ_ALPHAS),
                "deltas": [0.05], "t_start": 0.0, "t_stop": 1000.0, "t_step": 0.025}
HURWITZ_SEGMENT = 25.0  # t-length of one item; segments share their end window
HURWITZ_TARGET_ERROR = 1e-9  # what the harness asks hurwitz_zeta_grid for

# lerch_scan reduced from 6 (alpha, beta) pairs x 40 001 spots to 4 x 101.
LERCH_PAIRS = ((0.3, 0.3), (0.3, 0.7), (0.7, 0.3), (0.7, 0.7))
LERCH_SCAN = {"experiment": "lerch_scan", "deltas": [0.05], "t_start": 200.0,
              "t_stop": 1000.0, "t_step": 8.0}
LERCH_SEGMENTS = ((200.0, 392.0), (400.0, 592.0), (600.0, 792.0), (800.0, 1000.0))
LERCH_SPOTS = len(LERCH_PAIRS) * 101
LERCH_DEFAULT_SPOTS = 6 * 40001
LERCH_TARGET_ERROR = 1e-9  # per point, as the harness asks
LERCH_QUAD_TOL = 1e-8

POISSON_TERMS = (2, 4, 6, 8)
POISSON_D = (1.0, 10.0)
POISSON_TOL = 1e-5
POISSON_SIGMA = 0.5
# Tail moduli are fixed and only the phases are seeded: the truncation point
# T and the anchors then do not depend on the seed, which cut the seed-to-seed
# spread of evaluator calls from ~10% to ~3% (ten seeds, series of 2 to 8
# terms), and |L(sigma + D)| >= 0.38 keeps every anchor far from the
# NearZeroAnchorError floor.
POISSON_MODULUS = 2.0 / 3.0


@dataclass
class Outcome:
    rows: int
    failed_rows: int
    digest: str


@dataclass
class Item:
    name: str
    run: Callable[[], object]  # the timed verdict
    outcome: Callable[[object], Outcome]  # reads the verdict, untimed
    csv_path: str | None = None


# ---------------------------------------------------------------------------
# CLI-driven items
# ---------------------------------------------------------------------------

def _write_config(work_dir: str, name: str, doc: dict) -> str:
    path = os.path.join(work_dir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**doc, "threads": 1}, fh)
    return path


def _cli_item(work_dir: str, name: str, doc: dict) -> Item:
    config = _write_config(work_dir, name, doc)
    out = os.path.join(work_dir, name + ".csv")

    def run() -> int:
        # looked up at call time so that a traced pass sees the wrapper
        return hardyseries.cli.main(["verify", "--config", config, "--out", out])

    def outcome(rc: int) -> Outcome:
        # streamed, so that the benchmark's own reading stays far below the
        # program's peak memory
        rows = failed = 0
        with open(out, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            ok = next(reader).index("pass")
            for row in reader:
                rows += 1
                failed += row[ok] != "true"
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(out + ".summary.json", encoding="utf-8") as fh:
            summary_passed = json.load(fh)["passed"]
        # a failed summary check without a failed row (e.g. the alpha = 1
        # asymptotic window) still fails the verdict
        if (rc != 0 or not summary_passed) and failed == 0:
            failed = 1
        return Outcome(rows, failed, digest)

    return Item(name, run, outcome, out)


def _cli_warmup(work_dir: str, docs) -> None:
    for i, doc in enumerate(docs):
        _cli_item(work_dir, f"warmup{i}", doc).run()


# ---------------------------------------------------------------------------
# catalog_sweep
# ---------------------------------------------------------------------------

def _seed(seed: int, part: int = 0) -> int:
    # numpy generators need a non-negative seed
    return (seed * 100 + part) % 2 ** 32


def catalog_items(seed: int, work_dir: str) -> list:
    return [_cli_item(work_dir, f"{doc['experiment']}{part}",
                      {**doc, "seed": _seed(seed, part)})
            for doc, parts in CATALOG for part in range(parts)]


def catalog_warmup(work_dir: str) -> None:
    _cli_warmup(work_dir, [
        {"experiment": "local_l2_sweep", "n_series": 1},
        {"experiment": "nonvanishing_sweep", "n_series": 1},
        {"experiment": "log_bound_sweep", "n_series": 1},
        {"experiment": "minmax", "restarts": 1, "search_terms": 2, "orders": [1]},
    ])


# ---------------------------------------------------------------------------
# poisson_log
# ---------------------------------------------------------------------------

def poisson_series(seed: int) -> list:
    rng = np.random.default_rng(_seed(seed))
    out = []
    for n in POISSON_TERMS:
        coeffs = POISSON_MODULUS * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
        coeffs[0] = 1.0
        out.append(series.classical_polynomial(coeffs, POISSON_SIGMA))
    return out


def poisson_checks(s, d_values=POISSON_D, signs=("plus", "minus"), tol=POISSON_TOL) -> list:
    """T10/L8 (log+) and T11/T12 (log-) rows for one series.

    A row is (check, D, measured, bound, pass); the measured integral may
    exceed the bound by at most the requested tolerance.
    """
    sigma = s.sigma
    ev = series.line_evaluator(s, sigma)
    l1 = series.l1_norm_at(s, sigma)
    rows = []

    def check(name, d, value, bound, valid) -> None:
        ok = valid and math.isfinite(value) and value <= bound + tol
        rows.append((name, d, value, bound, ok))

    for d in d_values:
        if "plus" in signs:
            plus = quadrature.poisson_log_integral(ev, sigma, d, "plus", tol, l1_norm=l1)
            l8, _ = bounds.log_plus_weighted_bound(d, "L1", norm1=l1)
            t10, t10_valid = bounds.log_plus_weighted_bound(
                d, "H2", norm2=series.l2_norm(s), c=series.separation_constant(s))
            check("L8", d, plus.value, l8, True)
            check("T10", d, plus.value, t10, t10_valid)
        if "minus" in signs:
            t11 = bounds.log_minus_weighted_bound(s, d, "H2")
            t12 = bounds.log_minus_weighted_bound(s, d, "L1")
            minus = quadrature.poisson_log_integral(
                ev, sigma, d, "minus", tol, l1_norm=l1,
                minus_tail_bound=min(t11.bound_value, t12.bound_value),
            )
            check("T11", d, minus.value, t11.bound_value, t11.valid)
            check("T12", d, minus.value, t12.bound_value, t12.valid)
    return rows


def _poisson_item(s, d: float, sign: str) -> Item:
    def outcome(rows) -> Outcome:
        failed = sum(1 for row in rows if not row[-1])
        return Outcome(len(rows), failed, hashlib.sha256(repr(rows).encode()).hexdigest())

    return Item(f"{len(s)}terms_d{d:g}_{sign}", lambda: poisson_checks(s, (d,), (sign,)),
                outcome)


def poisson_items(seed: int, work_dir: str) -> list:
    # one item per integral, so that items stay short
    return [_poisson_item(s, d, sign) for s in poisson_series(seed) for d in POISSON_D
            for sign in ("plus", "minus")]


def poisson_warmup(work_dir: str) -> None:
    poisson_checks(series.classical_polynomial([1.0, 0.5], POISSON_SIGMA),
                   d_values=(1.0,), tol=1e-3)


# ---------------------------------------------------------------------------
# hurwitz_grid and twisted_spots
# ---------------------------------------------------------------------------

def hurwitz_items(seed: int, work_dir: str) -> list:
    count = int(round((HURWITZ_SCAN["t_stop"] - HURWITZ_SCAN["t_start"]) / HURWITZ_SEGMENT))
    items = []
    for alpha in HURWITZ_ALPHAS:
        for j in range(count):
            lo = HURWITZ_SCAN["t_start"] + j * HURWITZ_SEGMENT
            items.append(_cli_item(work_dir, f"alpha{alpha:g}_t{lo:g}", {
                **HURWITZ_SCAN, "alphas": [alpha], "t_start": lo,
                "t_stop": lo + HURWITZ_SEGMENT}))
    return items


def hurwitz_full(work_dir: str) -> Item:
    """One verdict on the whole pinned input, run once for peak memory."""
    return _cli_item(work_dir, "full", HURWITZ_SCAN)


def hurwitz_warmup(work_dir: str) -> None:
    _cli_warmup(work_dir, [{**HURWITZ_SCAN, "alphas": [1.0], "t_stop": 1.0}])


def twisted_items(seed: int, work_dir: str) -> list:
    return [_cli_item(work_dir, f"alpha{a:g}_beta{b:g}_t{lo:g}",
                      {**LERCH_SCAN, "alphas": [a], "betas": [b], "t_start": lo,
                       "t_stop": hi})
            for a, b in LERCH_PAIRS for lo, hi in LERCH_SEGMENTS]


def twisted_warmup(work_dir: str) -> None:
    a, b = LERCH_PAIRS[0]
    _cli_warmup(work_dir, [{**LERCH_SCAN, "alphas": [a], "betas": [b],
                            "t_stop": LERCH_SCAN["t_start"]}])


# ---------------------------------------------------------------------------
# correctness gates beyond the verdict rows
# ---------------------------------------------------------------------------

def _load_references(workload: str) -> list:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _series_from(coeffs, sigma):
    return series.classical_polynomial([complex(re, im) for re, im in coeffs], sigma)


def catalog_integral(ref: dict) -> float:
    s = _series_from(ref["coefficients"], ref["sigma"])
    ev = series.line_evaluator(s, ref["sigma"])
    if ref["kind"] == "abs_pow":
        return quadrature.integrate_abs_pow(ev, ref["sigma"], ref["interval"],
                                            ref["p"], ref["tol"]).value
    return quadrature.integrate_log(ev, ref["sigma"], ref["interval"], ref["sign"],
                                    ref["tol"]).value


def poisson_integral(ref: dict) -> float:
    s = _series_from(ref["coefficients"], ref["sigma"])
    ev = series.line_evaluator(s, ref["sigma"])
    l1 = series.l1_norm_at(s, ref["sigma"])
    tail = None
    if ref["sign"] == "minus":
        tail = bounds.log_minus_weighted_bound(s, ref["d"], "L1").bound_value
    return quadrature.poisson_log_integral(ev, ref["sigma"], ref["d"], ref["sign"],
                                           ref["tol"], l1_norm=l1,
                                           minus_tail_bound=tail).value


def _recomputed(workload: str, compute) -> list:
    return [(f"reference {ref['label']}", abs(compute(ref) - ref["value"]), ref["tol"])
            for ref in _load_references(workload)]


def csv_values(path: str, key_columns) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {tuple(float(row[k]) for k in key_columns): float(row["measured"]) for row in rows}


def _scan_references(workload: str, items, key_columns) -> list:
    measured = {}
    for item in items:
        measured.update(csv_values(item.csv_path, key_columns))
    out = []
    for ref in _load_references(workload):
        key = tuple(ref[k] for k in key_columns)
        value = measured.get(key, math.nan)
        out.append((f"reference {ref['label']}", abs(value - ref["value"]), ref["tol"]))
    return out


def _zeta_samples(seed: int, items, count: int = 6) -> list:
    """Seeded ordinates of ``hurwitz_zeta_grid`` against ``mpmath.zeta``.

    Each sample evaluates the grid on the window ordinates of one timed
    segment, read from its CSV (t = 0, the pole at alpha = 1, left out), and
    checks one seeded ordinate of it."""
    import mpmath

    mpmath.mp.dps = 20
    rng = np.random.default_rng(_seed(seed))
    out = []
    for _ in range(count):
        item = items[int(rng.integers(len(items)))]
        with open(item.csv_path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        alpha = float(rows[0]["alpha"])
        ts = np.array([float(row["t"]) for row in rows if float(row["t"]) != 0.0])
        j = int(rng.integers(len(ts)))
        value = special.hurwitz_zeta_grid(alpha, ts, 1.0, HURWITZ_TARGET_ERROR)[j]
        ref = complex(mpmath.zeta(mpmath.mpc(1.0, float(ts[j])), alpha))
        out.append((f"hurwitz_zeta_grid alpha={alpha:g} t={ts[j]:.6f} vs mpmath.zeta",
                     abs(value - ref), HURWITZ_TARGET_ERROR))
    return out


def lerch_reference(alpha: float, beta: float, t: float) -> complex:
    """phi(alpha, beta; 1 + it) for rational alpha = p/q from q Hurwitz zetas:
    sum_r e^(2 pi i r p/q) q^-s zeta(s, (r + beta)/q), via mpmath."""
    import mpmath
    from fractions import Fraction

    mpmath.mp.dps = 20
    frac = Fraction(alpha).limit_denominator(100)
    p, q = frac.numerator, frac.denominator
    s = mpmath.mpc(1.0, t)
    total = mpmath.mpc(0)
    for r in range(q):
        total += mpmath.expjpi(2 * mpmath.mpf(r * p) / q) * mpmath.zeta(s, (r + mpmath.mpf(beta)) / q)
    return complex(total * mpmath.power(q, -s))


def _lerch_samples(seed: int, count: int = 4) -> list:
    rng = np.random.default_rng(_seed(seed))
    n_spots = int(round((LERCH_SCAN["t_stop"] - LERCH_SCAN["t_start"]) / LERCH_SCAN["t_step"])) + 1
    out = []
    for _ in range(count):
        alpha, beta = LERCH_PAIRS[int(rng.integers(len(LERCH_PAIRS)))]
        t = (LERCH_SCAN["t_start"] + LERCH_SCAN["t_step"] * int(rng.integers(n_spots))
             + LERCH_SCAN["deltas"][0] * float(rng.uniform()))
        value = special.lerch_phi(alpha, beta, complex(1.0, t), LERCH_TARGET_ERROR)
        out.append((f"lerch_phi alpha={alpha:g} beta={beta:g} t={t:.6f} vs mpmath",
                    abs(value - lerch_reference(alpha, beta, t)), LERCH_TARGET_ERROR))
    return out


def catalog_gate(seed: int, items) -> list:
    return _recomputed("catalog_sweep", catalog_integral)


def poisson_gate(seed: int, items) -> list:
    return _recomputed("poisson_log", poisson_integral)


def hurwitz_gate(seed: int, items) -> list:
    return (_scan_references("hurwitz_grid", items, ("alpha", "t"))
            + _zeta_samples(seed, items))


def twisted_gate(seed: int, items) -> list:
    return (_scan_references("twisted_spots", items, ("alpha", "beta", "t"))
            + _lerch_samples(seed))


def twisted_note(wall_s: float) -> str:
    per_spot = wall_s / LERCH_SPOTS
    return (f"reduced lerch_scan: the default config ({LERCH_DEFAULT_SPOTS} spots) "
            f"extrapolates to {per_spot * LERCH_DEFAULT_SPOTS / 3600:.2f} h "
            f"at {1e3 * per_spot:.3f} ms per spot")


@dataclass(frozen=True)
class Workload:
    items: Callable[[int, str], list]
    warmup: Callable[[str], None]
    # (label, |error|, tolerance) triples checked after timing
    gate: Callable[[int, list], list]
    note: Callable[[float], str] | None = None
    # one untimed verdict on the whole input, run before timing, after which
    # peak memory is read; without it, peak memory is read after one
    # verdict per item
    full: Callable[[str], Item] | None = None


WORKLOADS = {
    "catalog_sweep": Workload(catalog_items, catalog_warmup, catalog_gate),
    "poisson_log": Workload(poisson_items, poisson_warmup, poisson_gate),
    "hurwitz_grid": Workload(hurwitz_items, hurwitz_warmup, hurwitz_gate,
                             full=hurwitz_full),
    "twisted_spots": Workload(twisted_items, twisted_warmup, twisted_gate, twisted_note),
}
