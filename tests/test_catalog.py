"""The catalog as one table: its entries, the one lookup that evaluates
them, and which command and ``verify`` experiment reaches each id."""

import json

import pytest

from hardyseries import bounds as bd
from hardyseries import cli
from hardyseries import harness as hn
from hardyseries import series as se
from hardyseries.errors import InvalidParameterError

# ids that no command evaluates yet; closing the catalog gives them rows
NO_COMMAND = {"T6", "T7", "T9", "T10", "L8", "T11", "T12"}
# ids that no verify experiment checks yet
NO_VERIFY = NO_COMMAND
# scan columns do not name ids: margin is the fixed bound at the shift and
# margin_uniform the uniform one, T27 and T29 in hurwitz_scan, and for the
# twisted family in lerch_scan T28 and T30
SCAN_IDS = {"hurwitz_scan": {"T27", "T29"}, "lerch_scan": {"T28", "T30"}}
SMALL = {
    "constants": {},
    "local_l2_sweep": {"n_series": 1, "d_values": [1.0]},
    "nonvanishing_sweep": {"n_series": 1, "xis": [0.5]},
    "log_bound_sweep": {"n_series": 1},
    "hurwitz_scan": {"alphas": [1.0], "t_stop": 1.0},
    "lerch_scan": {"alphas": [0.5], "betas": [0.5], "t_stop": 1.0},
    "minmax": {"restarts": 1, "orders": [1], "search_terms": 2},
}
SERIES = se.series_from_json(json.dumps({
    "exponents": {"kind": "classical"},
    "coefficients": [[1.0, 0.0], [0.5, 0.0], [-0.25, 0.1]], "sigma": 0.5}))


def test_catalog_holds_every_id_once():
    assert len(bd.CATALOG) == 28 and "L8" in bd.CATALOG
    for entry in bd.CATALOG.values():
        assert entry.side in ("upper", "lower")
        assert entry.coeffs in ("general", "bounded")
        assert entry.kind in (*bd.BOUND_KINDS, "nonvanishing", None)
        assert entry.statement and "  " not in entry.statement
    bd.BoundReport("L8", {}, 1.0, "upper")  # every id names a report
    with pytest.raises(InvalidParameterError):
        bd.BoundReport("T8", {}, 1.0, "upper")


@pytest.mark.parametrize("tid", [t for t, e in bd.CATALOG.items()
                                 if e.kind in bd.BOUND_KINDS])
def test_bound_report_follows_its_entry(tid):
    entry = bd.CATALOG[tid]
    report, plus = bd.bound_report(tid, SERIES)
    assert report.theorem_id == tid
    assert (report.side, report.log_space) == (entry.side, entry.log_space)
    assert (plus is not None) == (tid in ("T15", "T16"))


@pytest.mark.parametrize("tid", [t for t, e in bd.CATALOG.items()
                                 if e.kind not in bd.BOUND_KINDS])
def test_bound_report_refuses_ids_without_a_bound_formula(tid):
    with pytest.raises(InvalidParameterError, match=tid):
        bd.bound_report(tid, SERIES, 0.05, 1.0, 1.0)


def test_sweep_ids_keep_their_row_order():
    assert hn._SWEEP_IDS == {
        "general": [["T15", "T16"], ["T17", "T18"], ["T19", "T20"]],
        "bounded": [["T21", "T22"], ["T25", "T26"], ["T23", "T24"]],
    }


def _reached_by_command(tid, path) -> bool:
    entry = bd.CATALOG[tid]
    if cli.main(["bound", "--variant", tid, "--series", path]) == 0:
        return True
    return entry.variant is not None and cli.main(
        ["nonvanishing", "--series", path, "--xi", "0.5", "--variant", entry.variant]) == 0


def test_every_id_is_reached_or_listed(tmp_path, capsys):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"exponents": {"kind": "classical"},
                                "coefficients": [[1.0, 0.0], [0.5, 0.0]], "sigma": 0.5}))
    by_command = {tid for tid in bd.CATALOG if _reached_by_command(tid, str(path))}
    assert set(SMALL) == set(hn.EXPERIMENTS)
    by_verify = set()
    for name, doc in SMALL.items():
        result = hn.dispatch(hn.ExperimentConfig.from_json(
            json.dumps({"experiment": name, **doc})))
        assert result.passed, name
        by_verify |= SCAN_IDS.get(name, set())
        if "check" in result.columns:
            col = result.columns.index("check")
            by_verify |= {row[col].split("_")[0] for row in result.rows} & set(bd.CATALOG)
    capsys.readouterr()
    # an id leaving a set must gain its reach, and a reached id must leave
    assert set(bd.CATALOG) - by_command == NO_COMMAND
    assert set(bd.CATALOG) - by_verify == NO_VERIFY
