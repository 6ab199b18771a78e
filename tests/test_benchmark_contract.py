"""The benchmark's hold on the package: the entry points its span tracer
patches, the config documents it writes and the verdict it reads back.  A
renamed entry point fails here rather than in a benchmark run."""

import importlib
import json
import os

import pytest

from hardyseries import cli
from hardyseries import harness as hn

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_traced_constants_verdict(tmp_path, bench):
    spans, workloads = bench
    originals = (cli.main, hn.dispatch, hn.ExperimentResult.write_csv)
    item = workloads._cli_item(str(tmp_path), "constants", {"experiment": "constants"})
    assert json.loads((tmp_path / "constants.json").read_text())["threads"] == 1
    tracer = spans.Tracer()
    tracer.install()  # looks up every patched name
    try:
        rc, _ = tracer.run_root(item.run)
    finally:
        tracer.uninstall()
    assert (cli.main, hn.dispatch, hn.ExperimentResult.write_csv) == originals
    assert rc == 0
    assert tracer.rows == 13 and tracer.calls["harness"] == 1
    outcome = item.outcome(rc)
    assert (outcome.rows, outcome.failed_rows) == (13, 0)


def test_traced_scan_counts_every_row(tmp_path, bench):
    # the tracer counts len(result.rows), which expands the scan's row blocks
    spans, workloads = bench
    doc = {"experiment": "hurwitz_scan", "alphas": [0.3, 1.0], "t_stop": 20.0}
    item = workloads._cli_item(str(tmp_path), "scan", doc)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc, _ = tracer.run_root(item.run)
    finally:
        tracer.uninstall()
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())["summary"]
    assert rc == 0 and summary["n_rows"] == 2 * 801
    assert tracer.rows == summary["n_rows"] == item.outcome(rc).rows


def test_lerch_scan_meets_twisted_references(bench):
    # the twisted_spots gate in the suite: each recorded window, measured
    # alone, agrees with its reference within the recorded tolerance
    _, workloads = bench
    refs = workloads._load_references("twisted_spots")
    assert len(refs) == 16
    for ref in refs:
        doc = {**workloads.LERCH_SCAN, "alphas": [ref["alpha"]], "betas": [ref["beta"]],
               "t_start": ref["t"], "t_stop": ref["t"]}
        (row,) = hn.dispatch(hn.ExperimentConfig.from_json(json.dumps(doc))).rows
        assert abs(row[4] - ref["value"]) <= ref["tol"], ref["label"]


def test_every_benchmark_config_loads(tmp_path, bench, monkeypatch):
    # a config document that the package refuses would fail a benchmark run
    _, workloads = bench
    docs = []

    def capture(work_dir, warmup_docs):  # the warm-up documents, written but not run
        for doc in warmup_docs:
            with open(workloads._write_config(work_dir, "warmup", doc), encoding="utf-8") as fh:
                docs.append(json.load(fh))

    monkeypatch.setattr(workloads, "_cli_warmup", capture)
    for warmup in (workloads.catalog_warmup, workloads.hurwitz_warmup,
                   workloads.twisted_warmup):
        warmup(str(tmp_path))
    assert len(docs) == 6
    items = (workloads.catalog_items(1701, str(tmp_path))
             + workloads.hurwitz_items(1701, str(tmp_path))
             + [workloads.hurwitz_full(str(tmp_path))]
             + workloads.twisted_items(1701, str(tmp_path)))
    docs += [json.loads((tmp_path / f"{item.name}.json").read_text()) for item in items]
    for doc in docs:
        assert doc["threads"] == 1
        hn.ExperimentConfig.from_json(json.dumps(doc))
