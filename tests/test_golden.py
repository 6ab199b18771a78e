"""Golden verdicts: recorded CSVs, summaries and ``bound`` documents.

``tests/golden`` holds, for each experiment named in ``EXPERIMENTS``, a
config ``<name>.json``, the CSV it gave when recorded (``<name>.csv.gz``) and
its summary (``<name>.summary.json``, without ``runtime_s``).  The two scans
are reduced: both cross the pole at t = 0 and one band edge (the Hurwitz
scan shares its nodes and a band of 4000 nodes ends at t = 25; the Lerch
scan takes its windows as rows of 9 nodes, a band of 444 windows ends at
t = 44.4, at twist 1, the Euler-Maclaurin path, and 0.3).  The five sweeps
run at their defaults.

A run must give the recorded columns, row count, ``pass`` cells and every
cell that is not a number, and every number within a relative
``REL_TOL`` of the recorded one (inf and nan exactly), or within the
absolute floor ``ABS_FLOOR`` names for its column.  Bytes are not
compared: numpy's complex ``exp`` may round differently on another SIMD
path.

``bound.json`` holds the stdout and the ``--out`` document of
``hardyseries bound`` for every id it evaluates, on the series stored in
that file, with default flags; these are compared exactly.

A change that moves cells on purpose records every golden again from its
config and states what moved, which this module prints: per column, the
cells moved and the largest moves, or, where the header or the row count
changed, the columns only one side has and both row counts.  A run that
is checked against a golden fails on such a change with the same message.

    python tests/test_golden.py --record
    python tests/test_golden.py old.csv.gz new.csv
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import math
import pathlib
import sys
import tempfile

import pytest

from hardyseries import bounds as bd
from hardyseries import cli
from hardyseries import harness as hn

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXPERIMENTS = ("hurwitz_scan", "lerch_scan", "constants", "local_l2_sweep",
               "nonvanishing_sweep", "log_bound_sweep", "minmax")
REL_TOL = 1e-12
# nonvanishing_sweep residuals are 0 or whole multiples of 1.1e-16: a roundoff
# move there is of relative order 1, or infinite from 0
ABS_FLOOR = {"residual": 1e-15}


def _flat(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        elif key != "runtime_s":
            out[prefix + key] = str(value)
    return out


def _read(path) -> tuple[list, list]:
    """(header, rows of text cells) of a CSV, gzipped or not, or of a summary
    JSON as one row of its flattened entries, ``runtime_s`` left out."""
    data = pathlib.Path(path).read_bytes()
    if str(path).endswith(".gz"):
        data = gzip.decompress(data)
    if str(path).endswith(".json"):
        flat = _flat(json.loads(data))
        return list(flat), [list(flat.values())]
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return header, rows


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


class ShapeChange(AssertionError):
    """Two CSVs, or two summaries, differ in header or row count."""


def largest_moves(old, new) -> dict:
    """column -> (largest relative move of a number, largest absolute move,
    cells moved, cells whose text changed and which are not numbers) between
    two CSVs, or two summaries, of one header and row count; a change of
    header or row count raises ``ShapeChange``, naming the columns only one
    side has and both row counts."""
    header, old_rows = _read(old)
    new_header, new_rows = _read(new)
    if new_header != header or len(new_rows) != len(old_rows):
        gone = [name for name in header if name not in new_header]
        added = [name for name in new_header if name not in header]
        if not gone and not added:  # the same names in another order
            gone, added = header, new_header
        raise ShapeChange(f"{pathlib.Path(old).name}: columns {gone} -> {added}, "
                          f"rows {len(old_rows)} -> {len(new_rows)}")
    moves = {name: [0.0, 0.0, 0, 0] for name in header}
    for old_row, new_row in zip(old_rows, new_rows):
        for name, a, b in zip(header, old_row, new_row):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                moves[name][3] += 1
                continue
            rel = abs(y - x) / abs(x) if x else math.inf
            moves[name][0] = max(moves[name][0], math.inf if math.isnan(rel) else rel)
            move = abs(y - x)
            moves[name][1] = max(moves[name][1], math.inf if math.isnan(move) else move)
            moves[name][2] += 1
    return {name: tuple(m) for name, m in moves.items()}


def _assert_within(moves: dict) -> None:
    assert all(text == 0 for *_, text in moves.values()), moves
    # a number within REL_TOL passes; inf against a finite cell moves by inf
    assert all(rel <= REL_TOL or move <= ABS_FLOOR.get(name, 0.0)
               for name, (rel, move, _, _) in moves.items()), moves


def _run(name: str, out: pathlib.Path) -> None:
    """Run the golden config of ``name``, writing its CSV and its summary
    without ``runtime_s``."""
    result = hn.dispatch(hn.ExperimentConfig.from_json((GOLDEN / f"{name}.json").read_text()))
    result.write_csv(str(out))
    del result.summary["runtime_s"]
    result.write_summary(f"{out}.summary.json")


def _check(name: str, tmp_path: pathlib.Path) -> None:
    out = tmp_path / f"{name}.csv"
    _run(name, out)
    _assert_within(largest_moves(GOLDEN / f"{name}.csv.gz", out))
    _assert_within(largest_moves(GOLDEN / f"{name}.summary.json", f"{out}.summary.json"))


def _bound_ids() -> list:
    return [tid for tid, entry in bd.CATALOG.items() if entry.kind in bd.BOUND_KINDS]


def _bound_outputs(series: dict, ids, tmp: pathlib.Path) -> dict:
    """id -> stdout and ``--out`` text of ``hardyseries bound`` on ``series``."""
    path, out = tmp / "series.json", tmp / "bound.json"
    path.write_text(json.dumps(series))
    docs = {}
    for tid in ids:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["bound", "--variant", tid.lower(), "--series", str(path),
                           "--out", str(out)])
        assert rc == 0, tid
        docs[tid] = {"stdout": stdout.getvalue(), "out": out.read_text()}
    return docs


def test_every_experiment_has_a_golden():
    assert set(EXPERIMENTS) == set(hn.EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS[:2])
def test_scan_verdicts_match_golden(name, tmp_path):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", EXPERIMENTS[2:])
def test_default_verdicts_match_golden(name, tmp_path):
    _check(name, tmp_path)


def test_bound_documents_match_golden(tmp_path):
    golden = json.loads((GOLDEN / "bound.json").read_text())
    assert list(golden["documents"]) == _bound_ids()
    assert _bound_outputs(golden["series"], _bound_ids(), tmp_path) == golden["documents"]


def _renamed_golden(monkeypatch, tmp: pathlib.Path) -> pathlib.Path:
    """A copy of the golden directory whose constants CSV names its
    ``measured`` column ``value``, made the golden directory."""
    golden = tmp / "golden"
    golden.mkdir()
    for name in ("constants.json", "constants.summary.json", "bound.json"):
        (golden / name).write_bytes((GOLDEN / name).read_bytes())
    text = gzip.decompress((GOLDEN / "constants.csv.gz").read_bytes()).decode()
    header, rest = text.split("\n", 1)
    renamed = header.replace("measured", "value") + "\n" + rest
    (golden / "constants.csv.gz").write_bytes(gzip.compress(renamed.encode(), mtime=0))
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    return golden


def test_renamed_column_fails_check_with_its_names(tmp_path, monkeypatch):
    _renamed_golden(monkeypatch, tmp_path)
    message = r"constants.csv.gz: columns \['value'\] -> \['measured'\], rows 13 -> 13"
    with pytest.raises(ShapeChange, match=message):
        _check("constants", tmp_path)


def test_record_reports_and_rewrites_a_renamed_column(tmp_path, monkeypatch, capsys):
    golden = _renamed_golden(monkeypatch, tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "EXPERIMENTS", ("constants",))
    record()
    printed = capsys.readouterr().out.splitlines()
    assert "constants.csv.gz: columns ['value'] -> ['measured'], rows 13 -> 13" in printed
    assert _read(golden / "constants.csv.gz")[0][1] == "measured"
    _check("constants", tmp_path)


def _print_moves(prefix: str, moves: dict) -> None:
    for column, (rel, move, moved, text) in moves.items():
        print(f"{prefix}{column}: {moved} moved, largest relative {rel:.3g}, "
              f"largest absolute {move:.3g}, {text} text changed")


def record() -> None:
    """Record every golden again from its config, printing what moved."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name in EXPERIMENTS:
            out = tmp / f"{name}.csv"
            _run(name, out)
            for golden, new in ((GOLDEN / f"{name}.csv.gz", out),
                                (GOLDEN / f"{name}.summary.json", f"{out}.summary.json")):
                if golden.exists():
                    try:
                        _print_moves(f"{golden.name} ", largest_moves(golden, new))
                    except ShapeChange as change:
                        print(change)
            (GOLDEN / f"{name}.csv.gz").write_bytes(
                gzip.compress(out.read_bytes(), mtime=0))
            (GOLDEN / f"{name}.summary.json").write_bytes(
                pathlib.Path(f"{out}.summary.json").read_bytes())
        path = GOLDEN / "bound.json"
        golden = json.loads(path.read_text())
        docs = _bound_outputs(golden["series"], _bound_ids(), tmp)
        for tid in sorted(set(docs) | set(golden["documents"])):
            if docs.get(tid) != golden["documents"].get(tid):
                print(f"bound.json {tid}: changed")
        path.write_text(json.dumps({"series": golden["series"], "documents": docs},
                                   indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        _print_moves("", largest_moves(*sys.argv[1:3]))
