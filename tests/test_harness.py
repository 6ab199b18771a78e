"""Harness: determinism, config validation, experiment behavior on small grids."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyseries import cli
from hardyseries import harness as hn
from hardyseries import quadrature as qd
from hardyseries import series as se
from hardyseries import special as sp
from hardyseries.errors import InvalidParameterError


def _small(experiment, **kw):
    return hn.ExperimentConfig(experiment, **kw)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        hn.ExperimentConfig("bogus")
    with pytest.raises(InvalidParameterError):
        hn.ExperimentConfig("hurwitz_scan", deltas=(0.1,))  # above validity window
    with pytest.raises(InvalidParameterError, match="'deltas' must be non-empty"):
        hn.ExperimentConfig("log_bound_sweep", deltas=())
    with pytest.raises(InvalidParameterError, match="'tolerance' must be positive"):
        hn.ExperimentConfig("minmax", tolerance=0.0)
    for threads in (0, 2):  # no experiment reads it, so it loads only at its default
        with pytest.raises(InvalidParameterError, match="reads no config field 'threads'"):
            hn.ExperimentConfig("constants", threads=threads)


def test_config_json_round_trip():
    cfg = hn.ExperimentConfig("hurwitz_scan", alphas=(0.5,), t_stop=3.0)
    doc = {key: list(value) if isinstance(value, tuple) else value
           for key, value in dataclasses.asdict(cfg).items()}
    back = hn.ExperimentConfig.from_json(json.dumps(doc))
    assert back == cfg
    with pytest.raises(InvalidParameterError):
        hn.ExperimentConfig.from_json(json.dumps({"experiment": "constants", "x": 1}))


def test_constants_experiment_passes():
    result = hn.dispatch(_small("constants"))
    assert result.passed
    assert all(row[-1] for row in result.rows)
    names = [row[0] for row in result.rows]
    assert "c0_half_kappa_formula" in names
    assert "anchor_chain_product" in names


def test_constants_min_margin_is_numeric_slack():
    # exact identities carry +inf when they hold, so the minimum is the
    # smallest slack among the numeric checks
    result = hn.dispatch(_small("constants"))
    margins = {row[0]: row[4] for row in result.rows}
    assert margins.pop("fraction_7_6") == margins.pop("fraction_1400_87") == math.inf
    assert result.summary["min_margin"] == min(margins.values()) > 0


def test_local_l2_small_sweep():
    result = hn.dispatch(_small("local_l2_sweep", n_series=8, d_values=(1.0,)))
    assert result.passed
    assert result.summary["failures"] == 0
    assert result.summary["min_margin"] > 0


def test_nonvanishing_small_sweep():
    result = hn.dispatch(_small("nonvanishing_sweep", n_series=4))
    assert result.passed
    checks = {row[0] for row in result.rows}
    assert checks == {"T13", "T14", "L13"}


def test_nonvanishing_sweep_computes_class_params_once_per_series(monkeypatch):
    # the default sweep: 50 x 2 series, each checked at 2 xis (3 variants);
    # every (series, xi, variant) reads C, lambda_1 and K, computed once
    calls = []
    separation = se.separation_constant
    monkeypatch.setattr(se, "separation_constant",
                        lambda series: calls.append(series) or separation(series))
    result = hn.dispatch(_small("nonvanishing_sweep"))
    assert result.summary["n_rows"] == 300 and result.passed
    assert len(calls) == 100 == len({id(series) for series in calls})


@given(kind=st.sampled_from(["classical", "linear", "hurwitz", "explicit"]),
       n_terms=st.integers(2, 20), sigma1=st.floats(0.0, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_l1_bracket_holds_for_every_kind(kind, n_terms, sigma1, seed):
    # with a_0 = 1, |L(sigma1 + it)| lies in 1 -+ (sum_n |a_n| e^(-lambda_n
    # sigma1) - 1), the bracket a nonvanishing_sweep row reads, at every t
    rng = np.random.default_rng(seed)
    exponents = {
        "classical": se.ExponentSequence.classical,
        "linear": lambda: se.ExponentSequence.linear(rng.uniform(0.05, 3.0)),
        "hurwitz": lambda: se.ExponentSequence.hurwitz(rng.uniform(0.05, 1.0)),
        "explicit": lambda: se.ExponentSequence.explicit(
            np.cumsum(np.r_[0.0, rng.exponential(0.3, n_terms - 1) + 1e-3])),
    }[kind]()
    coeffs = hn._disc_samples(rng, n_terms) * rng.uniform(0.0, 2.0)
    coeffs[0] = 1.0
    s = se.DirichletSeries(exponents, coeffs, 0.5)
    tail = se.l1_norm_at(s, sigma1) - 1.0
    ts = rng.uniform(-1e3, 1e3, 64)
    mods = np.abs(se.line_evaluator(s, sigma1)(sigma1 + 1j * ts))
    assert np.all(mods >= 1.0 - tail - 1e-12) and np.all(mods <= 1.0 + tail + 1e-12)


def test_nonvanishing_rows_read_the_bracket_at_x_xi(monkeypatch):
    # at x = 0 the l1 tail of a unit-l2-tail series exceeds 1 - xi, so every
    # T13 and T14 row fails on its bracket: the rows read the shift they get
    monkeypatch.setattr(hn.bd, "nonvanishing",
                        lambda series, xi, variant: hn.bd.Nonvanishing(0.0, 0.0, math.inf))
    result = hn.dispatch(_small("nonvanishing_sweep"))
    assert not result.passed
    assert all(not row[-1] for row in result.rows if row[0] in ("T13", "T14"))


def test_nonvanishing_rows_evaluate_no_series(monkeypatch):
    # the default sweep passes with every evaluator refused: no row samples |L|
    def refuse(*args, **kwargs):
        raise AssertionError("a nonvanishing_sweep row evaluated a series")

    monkeypatch.setattr(se, "line_evaluator", refuse)
    monkeypatch.setattr(sp, "_head_sum", refuse)
    result = hn.dispatch(_small("nonvanishing_sweep"))
    assert result.summary["n_rows"] == 300 and result.passed
    assert result.columns == ["check", "series_id", "xi", "x_xi", "inf_lower", "sup_upper",
                              "residual", "margin", "pass"]


def test_log_bound_small_sweep():
    result = hn.dispatch(_small("log_bound_sweep", n_series=3, deltas=(0.05, 0.2)))
    assert result.passed
    checks = {row[0] for row in result.rows}
    for tid in ("T15_minus", "T16_plus", "T21_minus", "T22_minus",
                "T17_sup", "T18_sup", "T25_sup", "T23_lp1", "T24_lp2", "L14"):
        assert tid in checks, tid


def test_hurwitz_scan_small():
    cfg = _small("hurwitz_scan", alphas=(1.0,), t_stop=3.0)
    result = hn.dispatch(cfg)
    assert result.passed
    key = "alpha_1_delta_0.05"
    assert result.summary[key]["running_min"] > 0
    assert "asymptotic_target" in result.summary[key]
    # running minimum is non-increasing along the scan
    meas = [row[3] for row in result.rows]
    running = np.minimum.accumulate(meas)
    assert running[-1] == min(meas)
    # the window at t = 0 holds the pole: it measures +inf and passes, and
    # every other margin is finite
    pole, *rest = result.rows
    assert pole[2] == 0.0 and pole[3] == pole[6] == pole[7] == math.inf and pole[-1]
    assert all(math.isfinite(row[6]) and math.isfinite(row[7]) for row in rest)


def test_hurwitz_scan_running_min_monotone_under_extension():
    base = hn.dispatch(_small("hurwitz_scan", alphas=(0.5,), t_stop=2.0))
    longer = hn.dispatch(_small("hurwitz_scan", alphas=(0.5,), t_stop=4.0))
    key = "alpha_0.5_delta_0.05"
    assert longer.summary[key]["running_min"] <= base.summary[key]["running_min"] + 1e-15


def _head_sum_lines(caplog) -> list:
    # the head-sum debug lines; Euler-Maclaurin calls log their cutoff too
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("head sum")]


def test_hurwitz_scan_nufft_bands_reproducible(tmp_path, caplog):
    # t 100-130 is 4809 nodes: two bands of 37 and 38 head terms, each a
    # 1-d progression, so both are summed by the NUFFT
    caplog.set_level("DEBUG", logger="hardyseries.special")
    cfg = _small("hurwitz_scan", alphas=(0.3,), t_start=100.0, t_stop=130.0)
    r1 = hn.dispatch(cfg)
    paths = [line.split(", ")[2] for line in _head_sum_lines(caplog)]
    assert paths == ["nufft"] * 2
    assert r1.passed and len(r1.rows) == 1201
    csvs = []
    for name in ("a.csv", "b.csv"):
        hn.dispatch(dataclasses.replace(cfg, out=str(tmp_path / name)))
        csvs.append((tmp_path / name).read_bytes())
    assert csvs[0] == csvs[1]


def test_short_last_scan_band_joins_the_one_before(caplog):
    # t 100-125 is 4009 shared nodes: the 9 past the first 4000 are fewer
    # than the least NUFFT band of 128, so they join it as one band of 4009;
    # t 100-126 leaves 169, which stay a band of their own
    caplog.set_level("DEBUG", logger="hardyseries.special")
    for t_stop, points in ((125.0, [4009]), (126.0, [4000, 169])):
        caplog.clear()
        hn.dispatch(_small("hurwitz_scan", alphas=(0.3,), t_start=100.0, t_stop=t_stop))
        lines = _head_sum_lines(caplog)
        assert [int(line.split()[2]) for line in lines] == points
        assert [line.split(", ")[2] for line in lines] == ["nufft"] * len(points)


def test_disjoint_scan_bands_log_phase_matrix(caplog):
    # t 0-100 at t_step 0.1 is 1001 windows of 9 nodes: bands of 444, 444
    # and 113 windows, each one (windows, 9) array; on a pole line the row
    # holding t = 0 moves by 1e-9 as a whole, so its band stays on the
    # progression too
    caplog.set_level("DEBUG", logger="hardyseries.special")
    common = dict(t_start=0.0, t_stop=100.0, t_step=0.1)
    for cfg in (
        _small("hurwitz_scan", alphas=(0.3,), **common),
        _small("lerch_scan", alphas=(1.0,), betas=(0.3,), **common),
        _small("lerch_scan", alphas=(0.3,), betas=(0.7,), **common),
    ):
        caplog.clear()
        assert hn.dispatch(cfg).passed
        lines = _head_sum_lines(caplog)
        assert [line.rsplit(", ", 1)[1] for line in lines] == ["phase-matrix"] * 3
        assert [int(line.split()[2]) for line in lines] == [444 * 9, 444 * 9, 113 * 9]


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_disjoint_pole_band_matches_per_row(alpha, monkeypatch):
    # t 0-1000 at t_step 8 is one band of 126 windows holding the pole row;
    # its phase-matrix windows sit within 2e-13 of the per-row head sum
    cfg = _small("hurwitz_scan", alphas=(alpha,), t_start=0.0, t_stop=1000.0, t_step=8.0)
    t, band = hn._scan_windows(1.0, alpha, 0.05, cfg)
    monkeypatch.setattr(sp, "_progression_step", lambda ts: None)
    _, rows = hn._scan_windows(1.0, alpha, 0.05, cfg)
    assert t.size == 126 and band[0] == rows[0] == math.inf
    np.testing.assert_allclose(band[1:], rows[1:], rtol=2e-13, atol=0)


def test_disjoint_windows_match_gauss_legendre():
    # 9-node Simpson sits within 1.4e-10 of a 20-node Gauss-Legendre rule on
    # 1e-12 values at these windows, and 5-node Simpson up to 2.1e-9 off
    common = dict(t_start=200.0, t_stop=1000.0, t_step=200.0)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    hurwitz = hn.dispatch(_small("hurwitz_scan", alphas=(0.3, 1.0), **common))
    lerch = hn.dispatch(_small("lerch_scan", alphas=(0.3,), betas=(0.7,), **common))
    scans = [(lambda ts, a=alpha: [sp.hurwitz_zeta(1.0 + 1j * u, a, 1e-12) for u in ts],
              delta, t, measured) for alpha, delta, t, measured, *_ in hurwitz.blocks]
    (alpha, beta, delta, t, measured, *_), = lerch.blocks
    scans.append((lambda ts: sp.lerch_phi(alpha, beta, 1.0 + 1j * ts, 1e-12),
                  delta, t, measured))
    for values, delta, t, measured in scans:
        assert measured.size == 5
        for t_lo, value in zip(t, measured):
            ts = t_lo + 0.5 * delta * (nodes + 1.0)
            reference = 0.5 * delta * (weights @ np.abs(values(ts)))
            assert value == pytest.approx(reference, abs=5e-10)


@pytest.mark.parametrize("t_stop", [0.3, 0.7, 2.3])
def test_scans_end_at_t_stop(t_stop):
    # t_stop / t_step rounds just below a whole number for each of these
    common = dict(alphas=(0.5,), t_stop=t_stop, t_step=0.1)
    hurwitz = hn.dispatch(_small("hurwitz_scan", **common))
    lerch = hn.dispatch(_small("lerch_scan", betas=(0.7,), **common))
    t_hurwitz = [row[2] for row in hurwitz.rows]
    t_lerch = [row[3] for row in lerch.rows]
    assert t_hurwitz == t_lerch
    assert len(t_hurwitz) == round(t_stop / 0.1) + 1
    assert t_hurwitz[-1] == pytest.approx(t_stop, abs=1e-12)


@pytest.mark.parametrize("t_start, t_stop, t_step, poles", [
    (0.0, 30.0, 0.025, 1),  # windows share nodes, two bands
    (100.0, 900.0, 8.0, 0),  # 9 nodes per window, back to back
    (-1.0, 1.0, 0.025, 3),  # windows cross the pole at t = 0
    (0.0, 50.0, 0.1, 1),  # 501 windows of 9 nodes: two bands of whole windows
])
def test_twist_one_lerch_scan_is_hurwitz_scan(t_start, t_stop, t_step, poles):
    # phi(1, beta; s) = zeta(s, beta), and both scans measure it on one path:
    # a twist-1 lerch_scan block less its twist column is the hurwitz_scan
    # block, every column to the bit, and both summary entries agree, the
    # asymptotic entries at shift 1 included
    common = dict(t_start=t_start, t_stop=t_stop, t_step=t_step)
    for shift in (0.3, 1.0):
        hurwitz = hn.dispatch(_small("hurwitz_scan", alphas=(shift,), **common))
        lerch = hn.dispatch(_small("lerch_scan", alphas=(1.0,), betas=(shift,), **common))
        assert lerch.columns == ["alpha", "beta", *hurwitz.columns[1:]]
        (hurwitz_block,), ((twist, *lerch_block),) = hurwitz.blocks, lerch.blocks
        assert twist == 1.0
        for h_cell, l_cell in zip(hurwitz_block, lerch_block, strict=True):
            assert np.asarray(h_cell).tobytes() == np.asarray(l_cell).tobytes()
        entry = hurwitz.summary[f"alpha_{shift:g}_delta_0.05"]
        assert lerch.summary[f"alpha_1_beta_{shift:g}_delta_0.05"] == entry
        assert ("asymptotic_target" in entry) == (shift == 1.0)
        assert lerch.passed == hurwitz.passed and all(row[-1] for row in lerch.rows)
        t_lerch, m_lerch = lerch_block[2:4]
        pole = (t_lerch <= 0.0) & (t_lerch + 0.05 >= 0.0)
        assert np.isinf(m_lerch[pole]).all() and np.isfinite(m_lerch[~pole]).all()
        assert np.count_nonzero(pole) == poles


def test_scan_summary_keys_tell_close_shifts_apart():
    # 0.3 and 0.3000001 are one value under :g; each block keeps its entry
    result = hn.dispatch(_small("hurwitz_scan", alphas=(0.3, 0.3000001), t_stop=1.0))
    assert len(result.blocks) == 2
    assert [key for key in result.summary if key.startswith("alpha_")] == [
        "alpha_0.3_delta_0.05", "alpha_0.3000001_delta_0.05"]


def test_scan_ordinates_slack_is_float_rounding():
    # 40 000 steps of 0.025: a t_stop a tenth of a step below the last grid
    # point loses that window, one a few ulp below keeps it
    cfg = _small("hurwitz_scan", t_start=0.0, t_stop=1000.0, t_step=0.025)
    assert hn._scan_ordinates(cfg).size == 40001
    for below, windows in ((1e-6, 40000), (2.5e-3, 40000), (4 * np.spacing(1000.0), 40001)):
        short = dataclasses.replace(cfg, t_stop=1000.0 - below)
        assert hn._scan_ordinates(short).size == windows


def test_lerch_scan_spot():
    cfg = _small("lerch_scan", alphas=(0.3, 0.7), betas=(0.3, 0.7),
                 t_stop=0.5, t_step=0.25)
    result = hn.dispatch(cfg)
    assert result.passed
    assert len(result.rows) == 2 * 2 * 3


def test_lerch_scan_spots_near_t_1000():
    # at t ~ 1000 the Abel plan needs N ~ 1900 head terms; each measured
    # window must match composite Simpson on one-point lerch_phi values
    cfg = _small("lerch_scan", alphas=(0.3, 0.5, 1.0), betas=(0.7,),
                 t_start=992.0, t_stop=1000.0, t_step=4.0)
    result = hn.dispatch(cfg)
    assert result.passed and len(result.rows) == 3 * 3
    assert hn.dispatch(cfg).rows == result.rows
    weights = np.ones(129)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    for alpha, beta, delta, t_lo, measured, *_ in result.rows[::4]:
        ts = t_lo + np.linspace(0.0, delta, 129)
        mods = [abs(sp.lerch_phi(alpha, beta, complex(1.0, t), 1e-10)) for t in ts]
        assert measured == pytest.approx(weights @ mods * delta / 384, abs=1e-8)


def test_minmax_small():
    cfg = _small("minmax", deltas=(0.1,), orders=(1, 2), restarts=1)
    result = hn.dispatch(cfg)
    assert result.passed
    norms = {row[1]: row[2] for row in result.rows if row[0] == "witness_norm"}
    assert norms[1] == pytest.approx(math.sqrt(5.0))
    assert norms[2] == pytest.approx(math.sqrt(33.0))
    sup_rows = [row for row in result.rows if row[0] == "search_sup"]
    assert sup_rows and all(row[-1] for row in sup_rows)


def _project_one(coeffs, m_norm):
    # the one-series projection the batched search replaced
    out = coeffs.copy()
    out[0] = 1.0
    tail = math.sqrt(m_norm ** 2 - 1.0)
    cur = np.sqrt(np.sum(np.abs(out[1:]) ** 2))
    if cur == 0.0:
        out[1] = tail
    else:
        out[1:] *= tail / cur
    return out


def _search_one_move_at_a_time(config, rng, delta):
    """The coordinate descent measuring one candidate per interval_sup call,
    through a DirichletSeries and a line_evaluator each."""
    results = []
    for restart in range(config.restarts):
        coeffs = _project_one(
            np.concatenate([[1.0], hn._disc_samples(rng, config.search_terms - 1)]),
            config.m_norm,
        )

        def sup_of(c):
            ev = se.line_evaluator(se.classical_polynomial(c, 0.5), 0.5)
            return qd.interval_sup(ev, 0.5, (0.0, delta), grid_n=32)

        best = sup_of(coeffs)
        step = 0.4
        for _ in range(6):
            improved = False
            for j in range(1, config.search_terms):
                for direction in (1.0, -1.0, 1.0j, -1.0j):
                    cand = coeffs.copy()
                    cand[j] = cand[j] + direction * step
                    cand = _project_one(cand, config.m_norm)
                    val = sup_of(cand)
                    if val < best:
                        best, coeffs, improved = val, cand, True
            if not improved:
                step *= 0.5
        results.append((restart, best))
    return results


@pytest.mark.parametrize("search_terms, m_norm, delta", [
    (2, 1.0, 0.05), (2, 3.0, 0.1), (5, 2.0, 0.05), (5, 1.0, 0.1), (16, 3.0, 0.1),
    (16, 2.0, 0.05),
])
def test_batched_search_is_the_one_move_search(search_terms, m_norm, delta):
    # moves measured 12 at a time, accepted in order: the same (restart,
    # best) tuples, bit for bit, as measuring one move per call
    for seed in (7, 2012):
        cfg = _small("minmax", seed=seed, search_terms=search_terms, m_norm=m_norm,
                     deltas=(delta,), restarts=2)
        batched = hn._search_min_sup(cfg, np.random.default_rng(seed), delta)
        one = _search_one_move_at_a_time(cfg, np.random.default_rng(seed), delta)
        assert batched == one
        assert all(isinstance(best, float) for _, best in batched)


def test_search_zooms_only_candidates_below_the_best(monkeypatch):
    # a candidate whose grid maximum already reaches the running best cannot
    # be taken, so its sup is not refined: over the default search at two
    # seeds (1944 and 2070 candidates) at most a quarter of the candidates
    # reach a zoom round, where each of them took four
    made = se.classical_stack_evaluator
    counts = {"candidates": 0, "zoomed": 0}

    def counting(coeffs, sigma1):
        ev = made(coeffs, sigma1)

        def call(s, rows=None):
            if s.ndim == 1:  # the grid, shared by every candidate
                counts["candidates"] += len(coeffs)
            else:
                counts["zoomed"] += len(s)
            return ev(s, rows)

        return call

    monkeypatch.setattr(se, "classical_stack_evaluator", counting)
    for seed in (42, 7):
        counts.update(candidates=0, zoomed=0)
        cfg = hn.ExperimentConfig("minmax", seed=seed)
        hn._search_min_sup(cfg, np.random.default_rng(seed), cfg.deltas[0])
        assert counts["candidates"] > 1900
        assert counts["zoomed"] <= counts["candidates"], counts  # 4 rounds each


def test_project_rows_are_the_one_series_projection():
    # every row keeps its own branch: a row with a zero tail gets a_1 = the
    # tail norm, which no search move reaches (a move adds a nonzero step)
    rng = np.random.default_rng(14)
    coeffs = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    coeffs[2, 1:] = 0.0
    coeffs[4, 1:] = -0.0
    for m_norm in (1.0, 3.0):
        rows = hn._project(coeffs, m_norm)
        for k in range(5):
            assert np.array_equal(rows[k], _project_one(coeffs[k], m_norm))
            assert rows[k].tobytes() == _project_one(coeffs[k], m_norm).tobytes()
        assert rows[2, 1] == math.sqrt(m_norm ** 2 - 1.0)


def test_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = hn.ExperimentConfig("local_l2_sweep", n_series=5,
                                  d_values=(1.0,), out=str(out))
        hn.dispatch(cfg)
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.summary.json").exists()
    header = out1.read_text().splitlines()[0]
    assert header == "check,series_id,d,measured,bound,margin,pass"


def test_csv_seed_changes_rows(tmp_path):
    cfg1 = hn.ExperimentConfig("local_l2_sweep", n_series=5, d_values=(1.0,),
                               seed=1, out=str(tmp_path / "s1.csv"))
    cfg2 = hn.ExperimentConfig("local_l2_sweep", n_series=5, d_values=(1.0,),
                               seed=2, out=str(tmp_path / "s2.csv"))
    hn.dispatch(cfg1)
    hn.dispatch(cfg2)
    assert (tmp_path / "s1.csv").read_text() != (tmp_path / "s2.csv").read_text()


def _integral_free(check: str) -> bool:
    # window sups are sampled, and T4 and the p = 2 rows read the closed
    # form series.window_l2; every other sweep row rests on a quadrature
    return check.endswith(("_sup", "_lp2")) or check == "T4"


def test_sweep_flagged_integral_fails_row(monkeypatch):
    configs = (_small("local_l2_sweep", n_series=2, d_values=(1.0,)),
               _small("log_bound_sweep", n_series=1))
    before = [hn.dispatch(cfg) for cfg in configs]
    assert all(result.passed for result in before)
    integrate = qd._integrate
    # every integral of a pass comes back flagged
    monkeypatch.setattr(qd, "_integrate",
                        lambda *a, **k: [(*r[:3], True) for r in integrate(*a, **k)])
    for cfg, old in zip(configs, before):
        result = hn.dispatch(cfg)
        # every row resting on an integral (log-, log+, _lp1, L14) fails
        assert result.summary["failures"] == sum(not _integral_free(r[0]) for r in result.rows)
        assert all(bool(r[-1]) == _integral_free(r[0]) for r in result.rows)
        assert result.passed == (cfg.experiment == "local_l2_sweep")
        # T4 and the _lp2 rows pass unchanged
        closed = [r for r in old.rows if r[0] == "T4" or r[0].endswith("_lp2")]
        assert closed and closed == [r for r in result.rows
                                     if r[0] == "T4" or r[0].endswith("_lp2")]


def test_sweeps_integrate_no_quadratic_form(monkeypatch):
    # local_l2_sweep integrates nothing; log_bound_sweep integrates log-, log+
    # and |L| once per (series, family, delta), all in one pass, and |L|
    # once per L14 delta
    calls = []  # the integrals of each pass
    integrate = qd._integrate

    def counted(*a, **k):
        results = integrate(*a, **k)
        calls.append(len(results))
        return results

    monkeypatch.setattr(qd, "_integrate", counted)
    assert hn.dispatch(_small("local_l2_sweep", n_series=3)).passed
    assert calls == []
    cfg = _small("log_bound_sweep", n_series=2, deltas=(0.05, 0.2))
    assert hn.dispatch(cfg).passed
    l14 = sum(delta <= 0.05 for delta in cfg.deltas)
    assert calls == [3 * cfg.n_series * 2 * len(cfg.deltas)] + [1] * l14 == [24, 1]


def test_log_bound_sweep_part_calls_and_memory(monkeypatch):
    # one benchmark part (5 series, delta 0.05 and 0.1): one adaptive pass
    # of its 60 window integrals (2 calls), one stacked sup per delta (5
    # calls each) and L14 (2 calls), 14 evaluator calls where a pass and a
    # sup per (series, family, delta) made 222; a traced peak of 0.48 MB,
    # against 0.45 MB for those 222 calls
    cfg = _small("log_bound_sweep", seed=100, n_series=5, deltas=(0.05, 0.1))
    calls = []

    def counting(make):
        def made(*args, **kwargs):
            ev = make(*args, **kwargs)
            return lambda *a, **k: calls.append(1) or ev(*a, **k)
        return made

    with monkeypatch.context() as m:
        for name in ("line_evaluator", "classical_stack_evaluator"):
            m.setattr(se, name, counting(getattr(se, name)))
        assert hn.dispatch(cfg).passed
    assert len(calls) <= 16
    tracemalloc.start()
    try:
        hn.dispatch(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.56e6


def test_lerch_scan_pole_window_diverges(tmp_path, monkeypatch, capsys):
    # |phi(1, beta; 1+it)| ~ 1/|t|, so the window [0, delta] diverges
    doc = {"experiment": "lerch_scan", "alphas": [1.0], "betas": [0.3],
           "t_stop": 0.5, "t_step": 0.25}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(path)]) == 0
    cfg = hn.ExperimentConfig.from_json(json.dumps(doc))
    rows = hn.dispatch(cfg).rows
    assert rows[0][4] == math.inf and rows[0][-1]
    assert all(math.isfinite(r[4]) and r[-1] for r in rows[1:])
    # the pole window alone: every margin is +inf, and the summary stays
    # strict JSON with the CSV spelling of the infinity
    path.write_text(json.dumps({**doc, "t_stop": 0.0}))
    out = tmp_path / "pole.csv"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    text = (tmp_path / "pole.csv.summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)["summary"]
    assert summary["min_margin"] == "inf" and summary["n_rows"] == 1
    for value in (0.0, math.nan):  # a measured 0 or NaN still fails
        monkeypatch.setattr(sp, "lerch_phi",
                            lambda alpha, beta, s, tol, v=value: np.full(s.shape, v, complex))
        rows = hn.dispatch(cfg).rows
        assert rows[0][-1] and not any(r[-1] for r in rows[1:])


@pytest.mark.parametrize("nan_first", [True, False])
@pytest.mark.parametrize("as_array", [False, True])
def test_min_margin_is_nan_when_any_margin_is(tmp_path, monkeypatch, nan_first, as_array):
    # min() over the margins kept or dropped a NaN depending on row order;
    # the rows come as one array block, or as one block per row
    margins = [math.nan, 1.0] if nan_first else [1.0, math.nan]
    if as_array:
        blocks = [("x", np.array(margins), np.array([False, True]))]
    else:
        blocks = [hn._block([("x", m, m == m)]) for m in margins]
    entry = hn.EXPERIMENT_TABLE["constants"]._replace(
        rows=lambda config: (["check", "margin", "pass"], blocks, {}, True))
    monkeypatch.setitem(hn.EXPERIMENT_TABLE, "constants", entry)
    out = tmp_path / "nan.csv"
    result = hn.dispatch(_small("constants", out=str(out)))
    assert math.isnan(result.summary["min_margin"])
    assert (result.summary["n_rows"], result.summary["failures"]) == (2, 1)
    assert not result.passed
    summary = json.loads((tmp_path / "nan.csv.summary.json").read_text())["summary"]
    assert summary["min_margin"] == "nan"


def _oracle_csv(columns, rows) -> str:
    """The per-cell rendering the block writer replaces."""
    lines = [",".join(columns)] + [",".join(hn._fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _block_rows(block) -> list:
    """The rows of an array block, each cell a numpy or Python scalar."""
    return [tuple(v[i] if isinstance(v, np.ndarray) else v for v in block)
            for i in range(len(block[-1]))]


_SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3]
_STRINGS = st.sampled_from(["T4", "50%", "a,b", "%s", "%%d,%.17g"])
_SCALARS = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=64).map(np.float64),
    st.integers(-10**6, 10**6),
    st.booleans().map(np.bool_),
    _STRINGS,
)
# the cells of one column of a row builder: ints (series ids), ints beside
# floats (a d_values entry 1 from JSON beside 10.5), strings, bools, floats
_COLUMN_CELLS = (
    st.integers(-10**18, 10**18),  # "%.17g" would write 1e+18
    st.one_of(st.integers(-10**6, 10**6), st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    _STRINGS,
    st.booleans() | st.booleans().map(np.bool_),
    st.sampled_from(_SPECIAL_FLOATS) | st.floats() | st.floats(width=64).map(np.float64),
)


@st.composite
def _blocks(draw, n_columns):
    """(blocks, rows): row-builder blocks made by ``hn._block`` from rows
    of scalars, or scan-style blocks of arrays and constants."""
    blocks, rows = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            kinds = [draw(st.sampled_from(_COLUMN_CELLS)) for _ in range(n_columns - 1)]
            block_rows = [(*(draw(kind) for kind in kinds), draw(st.booleans()))
                          for _ in range(draw(st.integers(1, 5)))]
            blocks.append(hn._block(block_rows))
            rows.extend(block_rows)
            continue
        n = draw(st.sampled_from([1, 2, 17, 4095, 4096, 4097]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cells = []
        for _ in range(n_columns - 1):
            if draw(st.booleans()):
                cells.append(draw(_SCALARS))
            else:
                col = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-320, 309, n)
                picks = rng.random(n) < 0.2
                col[picks] = rng.choice(_SPECIAL_FLOATS, picks.sum())
                cells.append(col)
        blocks.append((*cells, rng.random(n) < 0.5))
        rows.extend(_block_rows(blocks[-1]))
    return blocks, rows


@given(data=st.data(), n_columns=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_block_writer_matches_per_row_rendering(tmp_path_factory, data, n_columns):
    columns = [f"c{j}" for j in range(n_columns - 1)] + ["pass"]
    blocks, rows = data.draw(_blocks(n_columns))
    path = tmp_path_factory.mktemp("csv") / "blocks.csv"
    hn.ExperimentResult("constants", columns, blocks).write_csv(str(path))
    assert path.read_text(encoding="utf-8") == _oracle_csv(columns, rows)


def test_hurwitz_scan_bytes_and_margins(tmp_path, monkeypatch):
    # t = 0 holds the nudged pole node
    cfg = _small("hurwitz_scan", alphas=(0.3, 1.0), deltas=(0.05, 0.025),
                 t_step=0.025, t_start=0.0, t_stop=50.0, out=str(tmp_path / "scan.csv"))
    result = hn.dispatch(cfg)
    assert result.passed and len(result.rows) == 4 * 2001
    assert (tmp_path / "scan.csv").read_text() == _oracle_csv(result.columns, result.rows)
    for alpha, delta, t, measured, lb_fixed, lb_uniform, m27, m29, ok in result.rows:
        assert m27 == math.log(measured) - lb_fixed
        assert m29 == math.log(measured) - lb_uniform
    # a bound near -485 absorbs a last-bit change of the log, so with the
    # bounds at 0 the margin is the log itself, the bits of np.log over the
    # measured column; np.log parts from math.log in the last bit at the
    # alpha = 1, delta = 0.05 window t = 39 (x86-64, AVX-512)
    monkeypatch.setattr(hn.bd, "hurwitz_lower_bound", lambda *args: 0.0)
    rows = hn.dispatch(dataclasses.replace(cfg, out=None)).rows
    logs = np.log(np.array([row[3] for row in rows]))
    assert np.array_equal([row[6] for row in rows], logs)
    assert np.array_equal([row[7] for row in rows], logs)


def test_scan_result_memory_per_row():
    cfg = _small("hurwitz_scan", alphas=(1.0,), t_stop=250.0)
    hn.dispatch(cfg)  # fills every cache first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = hn.dispatch(cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.summary["n_rows"] == 10001
    assert held <= 64 * 10001, f"{held / 10001:.0f} bytes per row"


class _Recording:
    """A config that records the name of every field read from it."""

    def __init__(self, config):
        self._config, self.read = config, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


def test_every_runner_returns_array_blocks():
    # one block kind: every block's pass column is a bool array, and every
    # per-row column an array of its length; and each builder reads exactly
    # the fields its table entry lists
    small = {"n_series": 1, "restarts": 1, "search_terms": 2, "orders": (1,),
             "alphas": (1.0,), "betas": (0.7,), "t_stop": 0.5, "t_step": 0.25}
    for experiment, entry in hn.EXPERIMENT_TABLE.items():
        config = _Recording(_small(experiment, **{name: value for name, value in small.items()
                                                  if name in entry.reads}))
        columns, blocks, _, _ = entry.rows(config)
        assert config.read == set(entry.reads), experiment
        assert blocks and columns[-1] == "pass"
        for block in blocks:
            ok = block[-1]
            assert isinstance(ok, np.ndarray) and ok.dtype == bool and ok.ndim == 1
            assert len(block) == len(columns)
            assert all(v.shape == ok.shape for v in block if isinstance(v, np.ndarray))
