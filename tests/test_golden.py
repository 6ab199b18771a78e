"""Golden verdicts of the two zeta scans.

``tests/golden`` holds reduced ``hurwitz_scan`` and ``lerch_scan`` configs
and the CSVs they gave when recorded.  Both cross the pole at t = 0 and one
band edge: the Hurwitz scan shares its nodes (a band of 4000 nodes ends at
t = 25), the Lerch scan takes its windows as rows of 9 nodes (a band of 444
windows ends at t = 44.4), at twist 1 (the Euler-Maclaurin path) and 0.3.

A run must give the recorded columns, row count, ``pass`` cells and every
cell that is not a number, and every number within a relative
``REL_TOL`` of the recorded one (inf and nan exactly).  Bytes are not
compared: numpy's complex ``exp`` may round differently on another SIMD
path.  A change that moves cells on purpose records the CSVs again and
states the largest relative move per column, which this module prints:

    python tests/test_golden.py recorded.csv.gz new.csv
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import pathlib
import sys

import pytest

from hardyseries import harness as hn

GOLDEN = pathlib.Path(__file__).parent / "golden"
REL_TOL = 1e-12


def _read(path) -> tuple[list, list]:
    data = pathlib.Path(path).read_bytes()
    if str(path).endswith(".gz"):
        data = gzip.decompress(data)
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return header, rows


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def largest_moves(old, new) -> dict:
    """column -> (largest relative move of a number, cells moved, cells
    whose text changed and which are not numbers) between two CSVs of one
    header and row count."""
    header, old_rows = _read(old)
    new_header, new_rows = _read(new)
    assert new_header == header and len(new_rows) == len(old_rows)
    moves = {name: [0.0, 0, 0] for name in header}
    for old_row, new_row in zip(old_rows, new_rows):
        for name, a, b in zip(header, old_row, new_row):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                moves[name][2] += 1
                continue
            rel = abs(y - x) / abs(x) if x else math.inf
            moves[name][0] = max(moves[name][0], math.inf if math.isnan(rel) else rel)
            moves[name][1] += 1
    return {name: tuple(m) for name, m in moves.items()}


@pytest.mark.parametrize("name", ["hurwitz_scan", "lerch_scan"])
def test_scan_verdicts_match_golden(name, tmp_path):
    config = hn.ExperimentConfig.from_json((GOLDEN / f"{name}.json").read_text())
    out = tmp_path / f"{name}.csv"
    hn.dispatch(config).write_csv(str(out))
    moves = largest_moves(GOLDEN / f"{name}.csv.gz", out)
    assert all(text == 0 for _, _, text in moves.values()), moves
    # a number within REL_TOL passes; inf against a finite cell moves by inf
    assert all(rel <= REL_TOL for rel, _, _ in moves.values()), moves


if __name__ == "__main__":
    for column, (rel, moved, text) in largest_moves(*sys.argv[1:3]).items():
        print(f"{column}: {moved} moved, largest relative {rel:.3g}, {text} text changed")
