"""End-to-end verification experiments.

Each experiment measures a quantity by quadrature, sampling or a closed
form and compares it against the corresponding explicit bound, producing
one CSV row per grid point with the measured value, the bound (log space
where the bound lives there), the margin, and a pass flag.  Log-space rows
(``_sup`` and ``_lp``, L14, both scans, ``search_sup``) pass when
margin >= -tolerance.  T4, the T15/T16/T21/T22 ``_minus``/``_plus`` rows,
``nonvanishing_sweep`` and ``witness_slope`` fold their tolerance into the
margin, and ``constants`` margins are the slack against each row's stated
tolerance: these pass when margin >= 0.  The ``witness_norm`` margin is the
gap to the quoted 3^order, which its pass does not read.  T4 and the
``_lp2`` rows measure int |L|^2 as the closed Hermitian form of
``series.window_l2``, with roundoff-only error and no flag; every other
integral comes from quadrature, and a flagged one fails its row.
``log_bound_sweep`` draws all its series first, then measures every
log-, log+ and |L|^p (p != 2) window integral of every series in one
adaptive pass (``quadrature.integrate_stack``) and the window sups in one
stacked ``interval_sup`` per delta, each result the bits of the same
measurement of its series alone; L14 is a pass of its own.  A
``nonvanishing_sweep`` row reads the l1 bracket 1 -+ tail of |L|, which
holds for every real t, and checks its upper end, residual and cap.
Comparisons against astronomically small lower bounds happen in
natural-log space, so a margin is finite except where no slack exists to
measure: an exact identity of ``constants`` carries +inf when it holds and
-inf when it does not, and a scan window holding the pole at t = 0 measures
+inf.

Both zeta scans are presets of one row builder over (twist, shift, delta),
phi(1, alpha; s) being zeta(s, alpha): ``hurwitz_scan`` is twist 1 at each
shift of ``alphas``, ``lerch_scan`` each twist of ``alphas`` at each shift
of ``betas``.  A window is 9-node Simpson on a grid of step delta/8, its nodes
evaluated by ``lerch_phi`` in bands of whole windows: a band of 4000 shared
nodes takes the NUFFT head, and a band of 444 windows of 9 nodes each, one
window per row, joins the blocked loop as rows of 9 spread from their first
node by one phase table per piece of terms, their first nodes recurring
from one direct exponential per 64 windows.  A last band of fewer than 128
nodes joins the band before it.  ``minmax`` zooms only the window sups that
might beat its running best.

``EXPERIMENT_TABLE`` names each experiment's row builder and the config
fields it reads, and a config that sets any other field away from its
default is refused.  Experiments are deterministic functions of their
config, the sweeps and ``minmax`` through its seed (the scans and
``constants`` read none): reruns produce bit-identical CSV files (runtime
lives only in the JSON summary).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bd
from . import quadrature as qd
from . import series as se
from . import special as sp
from .errors import InvalidParameterError

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_TABLE",
    "ExperimentConfig",
    "ExperimentResult",
    "dispatch",
    "named_constants",
]

_SCAN_SUBDIV = 8  # grid intervals of a scan window
_SCAN_BAND = 4000  # scan nodes per evaluator call
_MAX_ORDER = 20  # minmax witness order: 2^20 coefficients, 16 MiB
_MAX_TERMS = 1024  # series.window_l2 holds four n x n float64 arrays: 32 MiB


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 42
    alphas: tuple[float, ...] = (0.3, 0.5, 1.0)
    betas: tuple[float, ...] = (0.3, 0.7)
    deltas: tuple[float, ...] = (0.05,)
    t_start: float = 0.0
    t_stop: float = 1000.0
    t_step: float = 0.025
    tolerance: float = 1e-6
    n_series: int = 50
    n_terms: int = 20
    d_values: tuple[float, ...] = (1.0, 10.0)
    xis: tuple[float, ...] = (0.25, 0.5)
    p_values: tuple[float, ...] = (1.0, 2.0)
    m_norm: float = 3.0
    search_terms: int = 16
    orders: tuple[int, ...] = (1, 2, 3)
    restarts: int = 4
    threads: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_TABLE:
            raise InvalidParameterError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        # dispatch reads experiment and out; no experiment reads threads
        reads = ("experiment", "out", *EXPERIMENT_TABLE[self.experiment].reads)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in reads and value != f.default:
                raise InvalidParameterError(
                    f"{self.experiment} reads no config field {f.name!r}: leave it "
                    f"out or at its default {f.default!r}")
            values = value if isinstance(value, tuple) else (value,)
            if not values:  # an empty grid
                raise InvalidParameterError(f"config field {f.name!r} must be non-empty")
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise InvalidParameterError(f"config field {f.name!r} must be finite")
            if len(set(values)) < len(values):  # a grid point twice is one block twice
                raise InvalidParameterError(f"config field {f.name!r} repeats a value")
            # checked here, not where an integral or a bound would refuse them
            # with a message about its own parameter
            if f.name in ("deltas", "d_values", "t_step", "tolerance") and min(values) <= 0:
                raise InvalidParameterError(f"config field {f.name!r} must be positive")
            if f.name in ("alphas", "betas") and not all(0 < v <= 1 for v in values):
                raise InvalidParameterError(f"config field {f.name!r} must lie in (0, 1]")
        # a sweep over no series passes vacuously; a series needs a term
        # beyond a_0 to draw, a search a coordinate to move, and numpy a
        # non-negative seed
        for name, least in (("n_series", 1), ("n_terms", 2), ("search_terms", 2),
                            ("restarts", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise InvalidParameterError(f"config field {name!r} must be >= {least}")
        if self.n_terms > _MAX_TERMS:
            raise InvalidParameterError(f"config field 'n_terms' must be <= {_MAX_TERMS}")
        if self.t_stop < self.t_start:
            raise InvalidParameterError("config field 't_stop' must be >= t_start")
        if not all(0 < xi < 1 for xi in self.xis):
            raise InvalidParameterError("config field 'xis' must lie in (0, 1)")
        # one_minus_two_power_series holds 2^order coefficients
        if not all(1 <= order <= _MAX_ORDER for order in self.orders):
            raise InvalidParameterError(
                f"config field 'orders' must lie in [1, {_MAX_ORDER}]")
        if "t_step" in reads:  # a scan
            eps = np.finfo(float).eps
            # below this the slack of _scan_ordinates reaches half a step
            if self.t_step <= 8 * eps * (abs(self.t_start) + abs(self.t_stop)):
                raise InvalidParameterError(
                    "config field 't_step' must exceed 8 eps (|t_start| + |t_stop|)")
            if max(self.deltas) > 0.05:
                raise InvalidParameterError("config field 'deltas' must lie in (0, 0.05] "
                                            "for a scan")
            for h in (d / _SCAN_SUBDIV for d in self.deltas):
                # k h and t_step each round to within eps of the exact step
                if abs(max(1, round(self.t_step / h)) * h - self.t_step) > 4 * eps * self.t_step:
                    raise InvalidParameterError(
                        f"config field 't_step' must be a whole multiple of "
                        f"delta/{_SCAN_SUBDIV} = {h!r}, got {self.t_step!r}")
        if min(self.p_values) < 1:
            raise InvalidParameterError("config field 'p_values' must be >= 1")
        if self.m_norm < 1:
            raise InvalidParameterError("config field 'm_norm' must be >= 1")
        if self.experiment == "minmax" and len(self.deltas) > 1:
            # the search runs at one delta
            raise InvalidParameterError("config field 'deltas' must hold one entry "
                                        "for minmax")

    @classmethod
    def from_json(cls, text: str, **overrides) -> "ExperimentConfig":
        """The config of a JSON document, with the fields in ``overrides``
        replacing the document's: built, and so checked, once."""
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int of over 4300 digits
            raise InvalidParameterError(f"config document is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InvalidParameterError("config document must be an object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise InvalidParameterError(f"unknown config fields: {sorted(unknown)}")
        for key in obj:
            obj[key] = _json_value(key, obj[key], _CONFIG_TYPES[key])
        return cls(**{**obj, **overrides})


_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)  # field name -> annotation


def _json_value(name: str, value, hint):
    """A JSON config value checked against its field's annotation, with the
    field named on a mismatch; a list becomes a tuple, and an int is a float
    when it fits one."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise InvalidParameterError(f"config field {name!r} must be a list")
        return tuple(_json_value(name, v, typing.get_args(hint)[0]) for v in value)
    allowed = typing.get_args(hint) or (hint,)  # str | None -> (str, NoneType)
    if float in allowed:
        allowed += (int,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise InvalidParameterError(
            f"config field {name!r} must be "
            f"{' or '.join(t.__name__ for t in allowed)}, got {value!r}")
    if float in allowed and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise InvalidParameterError(f"config field {name!r} must be finite")
    return value


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".17g")
    return str(value)


_CSV_CHUNK = 4096  # rows of an array block rendered by one template


@dataclass
class ExperimentResult:
    """One experiment's verdict.  ``blocks`` holds its rows as blocks: a
    tuple with one entry per column, whose ``pass`` entry is a 1-d bool
    array over the block's rows.  Every other per-row column is an array of
    that length, and a column constant over the block may be a scalar."""

    experiment: str
    columns: list
    blocks: list
    summary: dict = field(default_factory=dict)
    passed: bool = True

    @property
    def rows(self) -> list:
        """The blocks expanded to one tuple of Python scalars per row."""
        out = []
        for block in self.blocks:
            n = len(block[-1])
            out.extend(zip(*(v.tolist() if isinstance(v, np.ndarray)
                             else itertools.repeat(v, n) for v in block)))
        return out

    def write_csv(self, path: str) -> None:
        """One line per row, each cell as ``_fmt`` spells it.  A block is
        written through one ``%`` template per chunk of rows: ``%.17g`` of a
        float is ``format(v, ".17g")``, inf and nan included, and ``%s`` of
        an int or a string is ``str(v)``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            for block in self.blocks:
                cells, arrays = [], []
                for v in block:
                    if isinstance(v, np.ndarray):
                        cells.append("%.17g" if v.dtype.kind == "f" else "%s")
                        arrays.append(v)
                    else:
                        cells.append(_fmt(v).replace("%", "%%"))
                line = ",".join(cells) + "\n"
                for lo in range(0, len(block[-1]), _CSV_CHUNK):
                    parts = [a[lo:lo + _CSV_CHUNK] for a in arrays]
                    values = [np.where(p, "true", "false").tolist() if p.dtype == bool
                              else p.tolist() for p in parts]
                    fh.write((line * len(parts[0]))
                             % tuple(itertools.chain.from_iterable(zip(*values))))

    def write_summary(self, path: str) -> None:
        """Strict JSON: a non-finite float is written as its CSV spelling."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"experiment": self.experiment, "passed": self.passed,
                       "summary": _strict(self.summary)}, fh, indent=2,
                      default=float, allow_nan=False)
            fh.write("\n")


def _strict(value):
    """``value`` with every non-finite float, nested dicts included, as text."""
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return _fmt(float(value))
    return value


def _block(rows: list) -> tuple:
    """Rows of scalars as one block: one array per column.  A column of ints
    stays int, strings and bools keep their kind, and ints beside floats
    become floats, whose ``%.17g`` is ``str`` of every int below 10^17."""
    return tuple(np.array(column) for column in zip(*rows))


# ---------------------------------------------------------------------------
# random series families
# ---------------------------------------------------------------------------

def _disc_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    radii = np.sqrt(rng.uniform(0.0, 1.0, n))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


def _random_classical(
    rng: np.random.Generator,
    n_terms: int,
    bounded: bool = False,
    unit_tail: bool = False,
) -> se.DirichletSeries:
    """A classical series at sigma = 1/2 with a_0 = 1 and the rest uniform on
    the unit disc; optionally clipped to |a_n| <= 1 (they already are) or
    rescaled so ||L - 1||_2 = 1."""
    n = int(rng.integers(2, n_terms + 1))
    coeffs = _disc_samples(rng, n)
    coeffs[0] = 1.0
    if unit_tail:
        tail = np.sqrt(np.sum(np.abs(coeffs[1:]) ** 2))
        if tail == 0.0:
            coeffs[1] = 0.5
            tail = 0.5
        coeffs[1:] /= tail
        if bounded:
            # keep |a_n| <= 1 while preserving the unit tail norm
            top = np.max(np.abs(coeffs[1:]))
            if top > 1.0:
                coeffs[1:] /= top
    return se.classical_polynomial(coeffs, 0.5)


# ---------------------------------------------------------------------------
# constants experiment
# ---------------------------------------------------------------------------

def named_constants() -> dict:
    """Every named constant of the catalog, by the name ``hardyseries
    constants`` prints."""
    kc = sp.kappa_constants()
    chain = bd.hurwitz_anchor_chain()
    ab2 = bd.ab2_constants()
    return {
        "classical_separation_constant": bd.CLASSICAL_C,
        "kappa_half": kc.kappa_half,
        "kappa_printed": kc.kappa_printed,
        "kappa_alt": kc.kappa_alt,
        "c0": kc.c0,
        "exp_c0": math.exp(kc.c0),
        "zeta_1p7378": chain["zeta_1_plus_d"],
        "anchor_margin": chain["anchor_margin"],
        "anchor_chain_product": chain["product"],
        "ab2_plain": ab2["plain"],
        "ab2_folded": ab2["folded"],
        "riemann_window_asymptotic_d0.05": bd.riemann_window_asymptotic(0.05),
    }


def _constants_rows(config: ExperimentConfig):
    """Check the named constants against their printed values; two-sided rows
    carry |value - target| margins, one-sided rows the signed slack, and exact
    identities +inf when they hold, -inf when they do not."""
    c = named_constants()
    frac = bd.consistency_fractions()
    rows = []

    def close(name, value, target, tol):
        rows.append((name, value, target, tol, tol - abs(value - target),
                     abs(value - target) <= tol))

    def at_least(name, value, floor_v):
        rows.append((name, value, floor_v, 0.0, value - floor_v, value >= floor_v))

    def holds(name, identity):
        rows.append((name, 1.0 if identity else 0.0, 1.0, 0.0,
                     math.inf if identity else -math.inf, identity))

    close("classical_separation", c["classical_separation_constant"], 1.02014, 1e-5)
    close("kappa_log_full", c["kappa_printed"], 0.2735187155, 1e-9)
    close("kappa_alt_log_full", c["kappa_alt"], 0.27918489270, 1e-9)
    close("c0_half_kappa_formula", c["c0"], 3.174092008, 1e-8)
    exp_c0 = c["exp_c0"]
    rows.append(("exp_c0_window", exp_c0, 23.9, 0.01,
                 min(exp_c0 - 23.89, 23.91 - exp_c0), 23.89 <= exp_c0 <= 23.91))
    close("zeta_1p7378", c["zeta_1p7378"], 1.98357, 2e-5)
    at_least("anchor_margin", c["anchor_margin"], 0.01642)
    close("anchor_chain_product", c["anchor_chain_product"], 15.976, 0.05)
    close("ab2_folded", c["ab2_folded"] / 9.0e8, 1.0, 0.02)
    at_least("ab2_below_1e9", 1e9 - c["ab2_plain"], 0.0)
    holds("fraction_7_6", frac["seven_sixths"])
    holds("fraction_1400_87", frac["hump_exponent"])
    close("riemann_window_asymptotic", c["riemann_window_asymptotic_d0.05"],
          5.772e-4, 1e-7)
    columns = ["check", "measured", "target", "tolerance", "margin", "pass"]
    return columns, [_block(rows)], {}, True


# ---------------------------------------------------------------------------
# soundness sweeps (local L^2, nonvanishing, short-interval log bounds)
# ---------------------------------------------------------------------------
# A flagged integral (depth limit or modulus floor hit) is no measurement to
# pass on, so it fails its row whatever its margin.  T4 and the p = 2 rows
# read ``se.window_l2``, exact up to roundoff, and carry no flag.

def _local_l2_rows(config: ExperimentConfig):
    rng = np.random.default_rng(config.seed)
    cases = [(idx, _random_classical(rng, config.n_terms)) for idx in range(config.n_series)]
    cases.append((-1, se.classical_polynomial([1.0])))  # edge case: |L| = 1 identically
    rows = []
    for idx, s in cases:
        norm2 = se.l2_norm(s)
        for d in config.d_values:
            bound = bd.local_l2_bound(norm2, bd.CLASSICAL_C, d)
            value = se.window_l2(s, 0.5, 0.0, d)
            limit = bound * (1.0 + 1e-6)
            rows.append(("T4", idx, d, value, bound, limit - value, value <= limit))
    columns = ["check", "series_id", "d", "measured", "bound", "margin", "pass"]
    return columns, [_block(rows)], {}, True


def _nonvanishing_rows(config: ExperimentConfig):
    rng = np.random.default_rng(config.seed)
    rows = []
    for idx in range(config.n_series):
        s = _random_classical(rng, config.n_terms, unit_tail=True)
        bounded = _random_classical(rng, config.n_terms, unit_tail=True, bounded=True)
        for xi in config.xis:
            for tid, target_series, variant in (("T14", s, "H2"), ("T13", s, "L1"),
                                                ("L13", bounded, "BoundedCoeff")):
                x, resid, cap = bd.nonvanishing(target_series, xi, variant)
                # a_0 = 1: ||L(0.5 + x + it)| - 1| <= the l1 tail for every real t
                tail = se.l1_norm_at(target_series, 0.5 + x) - 1.0
                lo, hi = 1.0 - tail, 1.0 + tail
                ok = (
                    lo >= xi - 1e-6
                    and (variant == "BoundedCoeff" or hi <= 2.0 - xi + 1e-6)
                    and resid <= 1e-10
                    and x <= cap + 1e-12
                )
                rows.append((tid, idx, xi, x, lo, hi, resid, lo - (xi - 1e-6), ok))
    columns = ["check", "series_id", "xi", "x_xi", "inf_lower", "sup_upper",
               "residual", "margin", "pass"]
    return columns, [_block(rows)], {}, True


# coefficient class -> ids of kinds log, sup and lp, in catalog order; each
# bound function picks the class parameters its id needs
_SWEEP_IDS = {c: [[tid for tid, e in bd.CATALOG.items() if (e.coeffs, e.kind) == (c, kind)]
                  for kind in ("log", "sup", "lp")] for c in ("general", "bounded")}


def _log_bound_rows(config: ExperimentConfig):
    """Every series is drawn first, in the order of one general and one
    bounded series per index.  Then one adaptive pass measures log-, log+
    and each |L|^p, p != 2, of every series on every window [0, delta],
    and one stacked ``interval_sup`` per delta its window sups; each result
    is the bits of the same measurement of its series alone.  The p = 2
    rows read the closed form ``se.window_l2``."""
    rng = np.random.default_rng(config.seed)
    stack = []  # general and bounded series of index idx at 2 idx and 2 idx + 1
    for _ in range(config.n_series):
        stack.append(_random_classical(rng, config.n_terms))
        stack.append(_random_classical(rng, config.n_terms, bounded=True, unit_tail=True))
    ev = se.classical_stack_evaluator([s.coefficients for s in stack], 0.5)
    tol = 1e-5
    kinds = ("minus", "plus", *(p for p in config.p_values if p != 2))
    windows = [(k, (0.0, delta), kind, tol if isinstance(kind, str) else tol * delta)
               for delta in config.deltas for k in range(len(stack)) for kind in kinds]
    measured = iter(qd.integrate_stack(ev, 0.5, windows))
    integrals = {(delta, k): {kind: next(measured) for kind in kinds}
                 for delta in config.deltas for k in range(len(stack))}
    sups = {delta: qd.interval_sup(ev, 0.5, (0.0, delta), grid_n=64)
            for delta in config.deltas}
    rows = []
    kc_tol = 1e-3  # stated tolerance for the upper log-integral comparisons
    for idx in range(config.n_series):
        for delta in config.deltas:
            for k, family in ((2 * idx, "general"), (2 * idx + 1, "bounded")):
                s = stack[k]
                p = bd.class_params(s)
                params = dict(norm1=se.l1_norm_at(s, 0.5), norm2=se.l2_norm(s),
                              c=p.c, k=p.k, lambda1=p.lambda1)
                measures = integrals[delta, k]
                sup = float(sups[delta][k])
                # (int_0^delta |L|^p dt, flagged); p = 2 is a closed form
                lp = {p_exp: (se.window_l2(s, 0.5, 0.0, delta), False) if p_exp == 2
                      else (measures[p_exp].value, measures[p_exp].flagged)
                      for p_exp in config.p_values}
                log_ids, sup_ids, lp_ids = _SWEEP_IDS[family]
                for tid in log_ids:
                    minus_b, plus_b = bd.short_interval_log_bounds(tid, delta, **params)
                    for side, b in (("minus", minus_b), ("plus", plus_b)):
                        r = measures[side]
                        if b is not None:
                            rows.append((f"{tid}_{side}", idx, delta, r.value, b,
                                         b + kc_tol - r.value,
                                         r.value <= b + kc_tol and not r.flagged))
                for tid in sup_ids:
                    lb = bd.supnorm_lp_lower_bound(tid, delta, **params)
                    margin = math.log(sup) - lb
                    rows.append((tid + "_sup", idx, delta, sup, lb, margin,
                                 margin >= -config.tolerance))
                for tid in lp_ids:
                    lb = bd.supnorm_lp_lower_bound(tid, delta, **params)
                    for p_exp in config.p_values:
                        value, flagged = lp[p_exp]
                        mean = (value / delta) ** (1.0 / p_exp)
                        margin = math.log(mean) - lb
                        rows.append((f"{tid}_lp{p_exp:g}", idx, delta, mean, lb, margin,
                                     margin >= -config.tolerance and not flagged))
    rows.extend(_lemma14_rows(config))
    columns = ["check", "series_id", "delta", "measured", "bound", "margin", "pass"]
    return columns, [_block(rows)], {}, True


def _lemma14_rows(config: ExperimentConfig) -> list:
    """sum_{n<512} (n+1)^-(1+it), the stored a_n all 1, on Re s = 1 against
    its window lower bound, read as ``hardyseries bound`` reads it."""
    rows = []
    fam = se.classical_polynomial(np.ones(512))
    ev = se.line_evaluator(fam, 1.0)
    for delta in config.deltas:
        if delta > 0.05:
            continue
        r = qd.integrate_abs_pow(ev, 1.0, (0.0, delta), 1, 1e-8)
        lb = bd.bound_report("L14", fam, delta=delta)[0].bound_value
        margin = math.log(r.value) - lb
        rows.append(("L14", -1, delta, r.value, lb, margin,
                     margin >= -config.tolerance and not r.flagged))
    return rows


# ---------------------------------------------------------------------------
# zeta-family scans
# ---------------------------------------------------------------------------

def _scan_ordinates(config: ExperimentConfig) -> np.ndarray:
    """The window starts of both scans, t_start + k t_step up to t_stop.

    The step count (t_stop - t_start) / t_step gets a slack of
    4 eps (|t_start| + |t_stop|) / t_step steps, the scale of the rounding
    of t_start, t_stop, t_step and the quotient, so a t_stop that float
    division puts just below a whole number of steps
    (0.3 / 0.1 = 2.9999999999999996) keeps its window and any t_stop
    further below a grid point does not."""
    start, stop, step = config.t_start, config.t_stop, config.t_step
    slack = 4 * np.finfo(float).eps * (abs(start) + abs(stop)) / step
    count = math.floor((stop - start) / step + slack) + 1
    return start + step * np.arange(count)


def _scan_windows(twist: float, shift: float, delta: float, config: ExperimentConfig):
    """(t_values, integrals): at each window start t of the scan, the
    9-node Simpson integral of |phi(twist, shift; 1+it)| over [t, t + delta].

    The nodes lie on the grid t_start + h j, h = delta/8.  Windows at most 8
    grid steps apart share one run of contiguous nodes, evaluated in bands
    of 4000.  Windows further apart get 9 nodes each, so no node between
    windows is evaluated: a (windows, 9) array, evaluated in bands of
    4000 // 9 = 444 whole windows, whose rows the head sum takes as
    progressions of one step h and their first nodes as one of step t_step.
    A last band of fewer than 128 nodes, the least NUFFT band, joins the
    band before it.  At twist 1, zeta(s, shift), the line holds
    the pole at t = 0: a window whose closed interval holds it measures
    +inf, and only so that its band can be evaluated, a shared node at
    t = 0 is moved to 1e-9, and a row of 9 nodes holding t = 0 is moved by
    1e-9 as a whole."""
    h = delta / _SCAN_SUBDIV
    stride = int(round(config.t_step / h))  # whole, checked with the config
    nodes = _SCAN_SUBDIV + 1
    t_values = _scan_ordinates(config)
    n_windows = t_values.size
    shared = stride <= _SCAN_SUBDIV  # windows share their nodes
    if shared:
        steps = np.arange((n_windows - 1) * stride + nodes)
        band = _SCAN_BAND
    else:
        steps = np.add.outer(stride * np.arange(n_windows), np.arange(nodes))
        band = _SCAN_BAND // nodes
    ts = config.t_start + h * steps
    if twist == 1:  # the line holds the pole
        # a row of 9 nodes moves as a whole, so it stays a progression of
        # step h and its band keeps its phase-table rows
        zero = ts == 0.0
        ts[zero if shared else zero.any(axis=1)] += 1e-9
    mods = np.empty(ts.shape)
    cuts = list(range(0, len(ts), band))
    # a last band of fewer nodes than the least NUFFT band joins the one
    # before it, rather than pay a per-point head and a kernel call of its own
    if len(cuts) > 1 and ts[cuts[-1]:].size < 2 * sp._PHASE_ROWS:
        cuts.pop()
    for lo, hi in zip(cuts, [*cuts[1:], len(ts)]):
        mods[lo:hi] = np.abs(sp.lerch_phi(twist, shift, 1 + 1j * ts[lo:hi], 1e-9))
    if shared:
        windows = np.lib.stride_tricks.sliding_window_view(mods, nodes)[::stride]
    else:
        windows = mods
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    integrals = windows @ weights
    if twist == 1:
        # |zeta(1+it, shift)| ~ 1/|t| near the pole, so the window diverges
        # and meets every lower bound
        integrals[(t_values <= 0.0) & (t_values + delta >= 0.0)] = math.inf
    return t_values, integrals


def _log_measured(integrals: np.ndarray) -> np.ndarray:
    """The log of each window integral, -inf where it is 0 or nan, so that
    such a window fails every margin check."""
    return np.log(integrals, out=np.full(integrals.shape, -np.inf), where=integrals > 0)


def _scan_rows(config: ExperimentConfig, twisted: bool):
    """Sliding-window integrals of |phi(twist, shift; 1+it)| against the
    fixed (T27, twisted T28) and uniform (T29, twisted T30) log-space lower
    bounds at the shift, one block and one summary entry with its running
    minimum per (twist, shift, delta); at twist 1, shift 1 the delta = 0.05
    running minimum must also land in its expected window.  ``twisted``
    picks the preset: ``lerch_scan`` (alphas x betas) or ``hurwitz_scan``
    (twist 1, the alphas as shifts, no twist column)."""
    pairs = (itertools.product(config.alphas, config.betas) if twisted
             else [(1.0, alpha) for alpha in config.alphas])
    names = ("alpha", "beta", "delta") if twisted else ("alpha", "delta")
    blocks = []
    summary: dict = {}
    in_windows = True
    for twist, shift in pairs:
        for delta in config.deltas:
            t_values, integrals = _scan_windows(twist, shift, delta, config)
            lb_fixed = bd.hurwitz_lower_bound(shift, delta, "HurwitzLerch")
            lb_uniform = bd.hurwitz_lower_bound(shift, delta, "Uniform")
            log_meas = _log_measured(integrals)
            margin = log_meas - lb_fixed
            margin_uniform = log_meas - lb_uniform
            ok = (margin >= -config.tolerance) & (margin_uniform >= -config.tolerance)
            labels = (twist, shift, delta) if twisted else (shift, delta)
            blocks.append((*labels, t_values, integrals, lb_fixed, lb_uniform,
                           margin, margin_uniform, ok))
            running = np.min(integrals)
            # repr tells floats apart and no grid repeats one: a key per block
            key = "_".join(f"{name}_{repr(v).removesuffix('.0')}"
                           for name, v in zip(names, labels))
            summary[key] = entry = {
                "running_min": float(running),
                "log_bound_fixed": lb_fixed,
                "log_bound_uniform": lb_uniform,
            }
            if twist == 1 and shift == 1:
                target = bd.riemann_window_asymptotic(delta)
                entry["asymptotic_target"] = target
                entry["min_over_target"] = float(running / target)
                in_window = bool(5.77e-4 <= running <= 1.0) if delta == 0.05 else True
                entry["min_in_expected_window"] = in_window
                in_windows = in_windows and in_window
    columns = [*names, "t", "measured", "log_bound_fixed", "log_bound_uniform",
               "margin", "margin_uniform", "pass"]
    return columns, blocks, summary, in_windows


# ---------------------------------------------------------------------------
# min-max explorer
# ---------------------------------------------------------------------------

def _zero_order_slopes(order: int) -> tuple[list, list]:
    deltas = (0.1, 0.05, 0.025)
    a = se.one_minus_two_power_series(order, sigma=0.5)
    ev = se.line_evaluator(a, 1.0)
    sups = [qd.interval_sup(ev, 1.0, (0.0, d), grid_n=64) for d in deltas]
    slopes = [
        math.log(sups[i] / sups[i + 1]) / math.log(deltas[i] / deltas[i + 1])
        for i in range(len(deltas) - 1)
    ]
    return sups, slopes


def _project(coeffs: np.ndarray, m_norm: float) -> np.ndarray:
    """Each row of the (K, terms) ``coeffs`` moved onto the slice a_0 = 1,
    ||a||_2 = m_norm: its tail rescaled, or, where the tail is 0, its
    a_1 set to the whole tail norm."""
    out = coeffs.copy()
    out[:, 0] = 1.0
    tail = math.sqrt(m_norm ** 2 - 1.0)
    cur = np.sqrt(np.sum(np.abs(out[:, 1:]) ** 2, axis=-1))
    zero = cur == 0.0
    out[~zero, 1:] *= (tail / cur[~zero])[:, None]
    out[zero, 1] = tail
    return out


_SEARCH_GROUP = 12  # candidate moves measured by one stacked interval_sup pass


def _window_sups(coeffs: np.ndarray, delta: float, level: float | None = None) -> np.ndarray:
    """interval_sup over [0, delta] of each row's classical series on
    Re s = 1/2, every row in one stacked pass; rows whose grid maximum
    reaches ``level`` are not refined."""
    ev = se.classical_stack_evaluator(coeffs, 0.5)
    return qd.interval_sup(ev, 0.5, (0.0, delta), grid_n=32, level=level)


def _search_min_sup(config: ExperimentConfig, rng, delta: float) -> list:
    """Random-restart coordinate descent over the fixed-norm slice.

    A sweep tries the moves (coordinate j, direction) in order and takes
    each one whose window sup beats the best so far.  The next 12 moves are
    measured together, all from the current coefficients; the first that
    beats the best is taken, and the moves after it are measured again from
    the new coefficients.  So every move is judged as the one-at-a-time
    search judges it, and the result is that search's result.  A candidate
    whose grid maximum already reaches the best is not refined: refining
    never lowers a sup, so it could not be taken either way."""
    # move m changes coordinate js[m] by directions[m] times the step
    js = np.repeat(np.arange(1, config.search_terms), 4)
    directions = np.tile([1.0, -1.0, 1.0j, -1.0j], config.search_terms - 1)
    results = []
    for restart in range(config.restarts):
        coeffs = _project(
            np.concatenate([[1.0], _disc_samples(rng, config.search_terms - 1)])[None],
            config.m_norm,
        )[0]
        (best,) = _window_sups(coeffs[None], delta)
        step = 0.4
        for _ in range(6):  # sweeps
            improved = False
            i = 0
            while i < js.size:
                group = slice(i, i + _SEARCH_GROUP)
                cands = np.repeat(coeffs[None], js[group].size, axis=0)
                rows = np.arange(js[group].size)
                cands[rows, js[group]] += directions[group] * step
                cands = _project(cands, config.m_norm)
                sups = _window_sups(cands, delta, level=best)
                better = np.flatnonzero(sups < best)
                if better.size:
                    k = int(better[0])
                    best, coeffs, improved = sups[k], cands[k], True
                    i += k + 1
                else:
                    i += _SEARCH_GROUP
            if not improved:
                step *= 0.5
        results.append((restart, float(best)))
    return results


def _minmax_rows(config: ExperimentConfig):
    """Witness family checks plus the minimal-window-sup search."""
    rows = []
    for order in config.orders:
        a = se.one_minus_two_power_series(order, sigma=0.5)
        norm2 = se.l2_norm(a)
        expected_sq = sum(
            math.comb(order, k) ** 2 * 4 ** k for k in range(order + 1)
        )
        sups, slopes = _zero_order_slopes(order)
        for slope in slopes:
            rows.append(("witness_slope", order, slope, float(order),
                         0.1 - abs(slope - order), abs(slope - order) <= 0.1))
        # the 3^order value quoted for this norm matches the coefficient
        # l1 sum, not the square-sum; flag the difference explicitly
        rows.append(("witness_norm", order, norm2, math.sqrt(expected_sq),
                     3.0 ** order - norm2,
                     abs(norm2 - math.sqrt(expected_sq)) < 1e-12))
    (delta,) = config.deltas
    rng = np.random.default_rng(config.seed)
    k = bd.lambda1_floor(bd.CLASSICAL_C, 0.5)
    lb = bd.supnorm_lp_lower_bound("T18", delta, norm2=config.m_norm, k=k)
    for restart, best in _search_min_sup(config, rng, delta):
        margin = math.log(best) - lb
        rows.append(("search_sup", restart, best, lb, margin, margin >= -config.tolerance))
    columns = ["check", "index", "measured", "reference", "margin", "pass"]
    summary = {"search_best": min(r[2] for r in rows if r[0] == "search_sup"),
               "t18_log_bound": lb}
    return columns, [_block(rows)], summary, True


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class _Experiment(typing.NamedTuple):
    """A row builder, returning (columns, blocks, summary entries of its own, the one
    summary-level check the rows cannot carry) with "pass" last, and the fields it reads."""

    rows: typing.Callable
    reads: tuple[str, ...]


_SWEEP_FIELDS = ("seed", "n_series", "n_terms")
_SCAN_FIELDS = ("alphas", "deltas", "t_start", "t_stop", "t_step", "tolerance")
EXPERIMENT_TABLE = {
    "constants": _Experiment(_constants_rows, ()),
    "local_l2_sweep": _Experiment(_local_l2_rows, (*_SWEEP_FIELDS, "d_values")),
    "nonvanishing_sweep": _Experiment(_nonvanishing_rows, (*_SWEEP_FIELDS, "xis")),
    "log_bound_sweep": _Experiment(_log_bound_rows,
                                   (*_SWEEP_FIELDS, "deltas", "p_values", "tolerance")),
    "hurwitz_scan": _Experiment(functools.partial(_scan_rows, twisted=False), _SCAN_FIELDS),
    "lerch_scan": _Experiment(functools.partial(_scan_rows, twisted=True),
                              (*_SCAN_FIELDS, "betas")),
    "minmax": _Experiment(_minmax_rows, ("seed", "deltas", "m_norm", "orders", "restarts",
                                         "search_terms", "tolerance")),
}
EXPERIMENTS = tuple(EXPERIMENT_TABLE)


def dispatch(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment: it passes when every row passes and its summary
    check holds.  With ``config.out`` set, the CSV goes there and the JSON
    summary next to it.  ``min_margin`` is nan when any margin is."""
    t0 = time.perf_counter()
    columns, blocks, extra, check = EXPERIMENT_TABLE[config.experiment].rows(config)
    margin = columns.index("margin")
    n_rows = failures = 0
    min_margin = math.inf
    for block in blocks:
        ok = block[-1]
        n_rows += ok.size
        failures += ok.size - int(np.count_nonzero(ok))
        m = float(np.min(block[margin]))  # nan when any cell is
        if m < min_margin or m != m:  # a nan, once in, stays
            min_margin = m
    summary = {"runtime_s": time.perf_counter() - t0, "n_rows": n_rows,
               "min_margin": min_margin, "failures": failures, **extra}
    result = ExperimentResult(config.experiment, columns, blocks, summary,
                              failures == 0 and check)
    if config.out:
        result.write_csv(config.out)
        result.write_summary(config.out + ".summary.json")
    return result
