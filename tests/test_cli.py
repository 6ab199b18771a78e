"""CLI: exit codes, output formatting, reproducibility."""

import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import hardyseries
from hardyseries import bounds, cli, harness


@pytest.fixture()
def series_file(tmp_path):
    doc = {
        "exponents": {"kind": "classical"},
        "coefficients": [[1.0, 0.0], [0.5, 0.0], [-0.25, 0.1]],
        "sigma": 0.5,
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_constants_command(capsys):
    assert cli.main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "kappa_half" in out
    assert "0.273518715" in out
    assert "3.17409200" in out
    assert "23.90" in out


def test_constants_out_file(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert cli.main(["constants", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert abs(doc["c0"] - 3.174092008) < 1e-8


def test_norms_command(capsys, series_file):
    assert cli.main(["norms", "--series", series_file]) == 0
    out = capsys.readouterr().out
    assert "l2_norm" in out and "separation_constant" in out
    assert "1.02013944" in out  # 12 significant digits of the class constant


def test_norms_where_w_e_w_overflows(tmp_path, capsys):
    # sigma/C = 7.1e306: the Lambert floor W(sigma/C)/sigma ~ 503 is finite
    # although w e^w overflows on the way there, and K = min(that, lambda_1)
    doc = {"exponents": {"kind": "explicit", "values": [0.0, 500.0]},
           "coefficients": [[1.0, 0.0], [0.5, 0.0]], "sigma": 1.4}
    path, out = tmp_path / "far.json", tmp_path / "norms.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["norms", "--series", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["lambert_floor_k"] == 500.0


def test_lemma14_row_reads_the_bound_command(tmp_path, capsys):
    # the log_bound_sweep L14 row measures sum_{n<512} (n+1)^-(1+it), the
    # stored coefficients as the a_n, and its bound is what
    # `hardyseries bound --variant L14` prints for that series
    doc = {"exponents": {"kind": "classical"}, "coefficients": [[1.0, 0.0]] * 512,
           "sigma": 0.5}
    path, out = tmp_path / "ones.json", tmp_path / "l14.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["bound", "--variant", "L14", "--delta", "0.05", "--series", str(path),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    row = next(r for r in harness._lemma14_rows(harness.ExperimentConfig(
        experiment="log_bound_sweep", deltas=(0.05,))))
    assert row[4] == json.loads(out.read_text())["bound_value"]


def test_bound_short_interval(capsys, series_file):
    assert cli.main(["bound", "--variant", "t16", "--series", series_file,
                     "--delta", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "t16_logminus_bound" in out and "t16_logplus_bound" in out


def test_bound_log_space_prefix(capsys, series_file):
    assert cli.main(["bound", "--variant", "t23", "--series", series_file,
                     "--delta", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "log:-" in out


def test_bound_hurwitz_variant(capsys):
    assert cli.main(["bound", "--variant", "t27", "--alpha", "1.0",
                     "--delta", "0.05"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t27_lower_bound")
    assert "log:-485.50" in out


@pytest.mark.parametrize("variant", [tid.lower() for tid, entry in bounds.CATALOG.items()
                                     if entry.kind in bounds.BOUND_KINDS])
def test_bound_out_document(tmp_path, capsys, series_file, variant):
    out = tmp_path / "bound.json"
    assert cli.main(["bound", "--variant", variant, "--series", series_file,
                     "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["theorem_id"] == variant.upper()
    assert doc["side"] in ("upper", "lower")
    assert math.isfinite(doc["bound_value"])


def test_bound_id_in_either_case(tmp_path, capsys, series_file):
    docs = []
    for variant in ("t4", "T4"):
        out = tmp_path / f"{variant}.json"
        assert cli.main(["bound", "--variant", variant, "--series", series_file,
                         "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
    assert capsys.readouterr().out == "t4_upper_bound  14.0377923301\n" * 2


@pytest.mark.parametrize("argv, message", [
    (["bound", "--variant", "t99"], "argument --variant: invalid choice"),
    (["bound", "--variant", "t6"], "argument --variant: invalid choice"),  # no formula yet
    (["bound", "--variant", "t13"], "argument --variant: invalid choice"),  # nonvanishing
    (["bound", "--variant", "t4"], "T4 needs a series"),
    (["bound", "--variant", "l14"], "L14 needs a series"),
    (["bound", "--variant", "t21", "--xi", "0.3"], "T21 reads no xi"),
    (["bound", "--variant", "t27", "--xi", "0.3"], "T27 reads no xi"),
    # an input the id's formula does not read is refused, not ignored
    (["bound", "--variant", "t27", "--d", "7"], "T27 reads no d"),
    (["bound", "--variant", "t4", "--delta", "0.1"], "T4 reads no delta"),
    (["bound", "--variant", "t4", "--alpha", "0.5"], "T4 reads no alpha"),
    (["bound", "--variant", "t15", "--alpha", "0.5"], "T15 reads no alpha"),
    (["bound", "--variant", "t21", "--d", "2"], "T21 reads no d"),
])
def test_bound_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_bound_xi_is_recorded(tmp_path, capsys, series_file):
    # an explicit level moves the log- bound, so the document must say so
    docs = {}
    for flags in ([], ["--xi", "0.5"]):
        out = tmp_path / "t15.json"
        assert cli.main(["bound", "--variant", "t15", "--series", series_file,
                         "--out", str(out), *flags]) == 0
        docs[bool(flags)] = json.loads(out.read_text())
    capsys.readouterr()
    assert docs[False]["bound_value"] != docs[True]["bound_value"]
    assert "xi" not in docs[False]["inputs"]
    assert docs[True]["inputs"] == {**docs[False]["inputs"], "xi": 0.5}


def test_nonvanishing_command(capsys, series_file):
    assert cli.main(["nonvanishing", "--series", series_file, "--xi", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "x_xi" in out and "guarantee" in out


def test_nonvanishing_bounded_refuses_large_coefficient(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"exponents": {"kind": "classical"},
                                "coefficients": [[1, 0], [3, 0]], "sigma": 0.5}))
    assert cli.main(["nonvanishing", "--series", str(path), "--xi", "0.5",
                     "--variant", "BoundedCoeff"]) == 2
    assert "|a_n| <= 1" in capsys.readouterr().err


def test_bound_refuses_zero_series_norm(tmp_path, capsys):
    # T18 reads log ||L||_2: the zero series is an input error (exit 2),
    # not a math domain error
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"exponents": {"kind": "classical"},
                                "coefficients": [[0, 0], [0, 0]], "sigma": 0.5}))
    assert cli.main(["bound", "--variant", "t18", "--series", str(path)]) == 2
    assert "error: norm2 must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["H2", "L1", "BoundedCoeff"])
def test_nonvanishing_out_matches_bounds(tmp_path, capsys, series_file, variant):
    out = tmp_path / "nonvanishing.json"
    assert cli.main(["nonvanishing", "--series", series_file, "--xi", "0.5",
                     "--variant", variant, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    series = cli._load_series(series_file)
    assert doc["x_xi"] == bounds.nonvanishing(series, 0.5, variant).x
    assert doc["variant"] == variant


def test_integrate_command(capsys, series_file):
    assert cli.main(["integrate", "--series", series_file, "--delta", "0.5",
                     "--p", "2", "--variant", "abs"]) == 0
    out = capsys.readouterr().out
    assert "abs_pow_integral" in out


def test_scan_command(tmp_path, capsys):
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "hurwitz_scan", "alphas": [1.0], "t_stop": 2.0}))
    out = tmp_path / "scan.csv"
    rc = cli.main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("alpha,delta,t,measured")
    assert capsys.readouterr().out.startswith("experiment hurwitz_scan: PASS")


def test_verify_command_with_config(tmp_path, capsys):
    cfg = {"experiment": "local_l2_sweep", "n_series": 4, "d_values": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    rc = cli.main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "check,series_id,d,measured,bound,margin,pass"
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_reproducible(tmp_path, capsys):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        rc = cli.main(["verify", "--experiment", "minmax", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_usage_errors(capsys, tmp_path):
    assert cli.main(["bound", "--variant", "nope"]) == 2
    assert cli.main(["norms", "--series", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["verify"]) == 2
    assert cli.main(["definitely-not-a-command"]) == 2
    # experiments run only through verify: the old subcommands are gone
    assert cli.main(["scan", "--alpha", "1.0"]) == 2
    assert cli.main(["minmax"]) == 2


def test_numeric_failure_exit_code(tmp_path, capsys):
    # Hurwitz-family JSON at an abscissa where the L1 norm diverges is a
    # numerical failure, not a usage error
    doc = {
        "exponents": {"kind": "explicit", "values": [0.0, 1e-308]},
        "coefficients": [[1.0, 0.0], [1.0, 0.0]],
        "sigma": 0.0,
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["nonvanishing", "--series", str(path), "--xi", "0.5"])
    assert rc in (2, 3)  # gap 1e-308 gives a astronomically large C


def test_public_names_resolve(capsys):
    # a deleted function must take its exports and its subcommand with it
    for info in pkgutil.iter_modules(hardyseries.__path__):
        module = importlib.import_module(f"hardyseries.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert cli.main(["--help"]) == 0
    usage = capsys.readouterr().out
    listed = usage[usage.index("{") + 1:usage.index("}")].split(",")
    assert listed == ["constants", "norms", "bound", "nonvanishing",
                      "integrate", "verify"]


def test_package_import_loads_no_module():
    # the package exports its modules; importing it alone loads none of them
    src = os.path.dirname(os.path.dirname(os.path.abspath(hardyseries.__file__)))
    code = ("import sys, hardyseries; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('hardyseries.')))")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_module_entry_point_runs_from_source():
    # python -m hardyseries needs no install, only src on the path
    src = os.path.dirname(os.path.dirname(os.path.abspath(hardyseries.__file__)))
    run = subprocess.run([sys.executable, "-m", "hardyseries", "bound", "--help"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert "T27" in run.stdout


def test_help_mentions_catalog(capsys):
    # argparse exits 0 after printing help; main folds that into its code
    assert cli.main(["bound", "--help"]) == 0
    out = capsys.readouterr().out
    assert "T4" in out and "T27" in out


def test_verify_flags_override_config(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": "local_l2_sweep", "n_series": 3,
                                    "d_values": [1.0], "seed": 7}))

    def run(*flags):
        out = tmp_path / "out.csv"
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out),
                         *flags]) == 0
        return out.read_bytes()

    seed1, seed2 = run("--seed", "1"), run("--seed", "2")
    assert seed1 != seed2
    assert run() == run("--seed", "7")  # no flag keeps the config's seed
    assert cli.main(["verify", "--config", str(cfg_path), "--threads", "1"]) == 2  # no such flag


_NAN, _INF = float("nan"), float("inf")
_SERIES = {"exponents": {"kind": "classical"}, "coefficients": [[1.0, 0.0], [0.5, 0.0]],
           "sigma": 0.5}


@pytest.mark.parametrize("command, field, doc", [
    ("norms", "sigma", {**_SERIES, "sigma": _NAN}),
    ("norms", "alpha", {**_SERIES, "exponents": {"kind": "hurwitz", "alpha": _NAN}}),
    ("norms", "c", {**_SERIES, "exponents": {"kind": "linear", "c": _NAN}}),
    ("norms", "values", {**_SERIES, "exponents": {"kind": "explicit",
                                                  "values": [0.0, _INF]}}),
    ("norms", "coefficients", {**_SERIES, "coefficients": [[1.0, 0.0], [_NAN, 0.0]]}),
    ("verify", "tolerance", {"experiment": "minmax", "tolerance": _NAN}),
    ("verify", "t_step", {"experiment": "lerch_scan", "t_step": _NAN}),
    ("verify", "t_stop", {"experiment": "lerch_scan", "t_stop": _INF}),
    ("verify", "alphas", {"experiment": "hurwitz_scan", "alphas": [0.5, _NAN]}),
    ("verify", "d_values", {"experiment": "local_l2_sweep", "d_values": [-_INF]}),
    ("norms", "sigma", {**_SERIES, "sigma": "0.5"}),
    ("norms", "coefficients", {**_SERIES, "coefficients": [[True, 0], [0.5, 0.0]]}),
    ("norms", "c", {**_SERIES, "exponents": {"kind": "linear", "c": "2"}}),
    ("norms", "sigma", {**_SERIES, "sigma": 10 ** 400}),
    ("verify", "tolerance", {"experiment": "minmax", "tolerance": 10 ** 400}),
    ("verify", "t_stop", {"experiment": "lerch_scan", "t_stop": 10 ** 400}),
])
def test_nonfinite_input_names_field(tmp_path, capsys, command, field, doc):
    # also a bool, a string, or an integer past the float range where a
    # float is parsed
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # json writes NaN / Infinity literals
    flag = "--series" if command == "norms" else "--config"
    assert cli.main([command, flag, str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("norms", json.dumps(_SERIES)[:-1]),  # no closing brace
    ("verify", "[1,2"),
    # json's int parser refuses more than 4300 digits with a bare ValueError
    ("verify", '{"experiment": "constants", "tolerance": ' + "9" * 5001 + "}"),
], ids=["series-unclosed", "config-unclosed", "config-5001-digits"])
def test_unreadable_document_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    flag = "--series" if command == "norms" else "--config"
    assert cli.main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert "document is not valid JSON" in err and "Traceback" not in err


def test_remainder_bound_past_float_range_exits_3(tmp_path, capsys):
    # at alpha = 1e-20 the log of the Euler-Boole bound passes 709.8, where
    # exp overflows: a precision failure, as at alpha = 1e-15
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"experiment": "lerch_scan", "alphas": [1e-20],
                                "betas": [0.5], "t_stop": 1}))
    assert cli.main(["verify", "--config", str(path)]) == 3
    assert "remainder bound inf > target" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, flag", [
    (["norms"], "--sigma"),
    (["bound", "--variant", "t15"], "--delta"),
    (["bound", "--variant", "t27"], "--alpha"),
    (["bound", "--variant", "t4"], "--d"),
    (["bound", "--variant", "t16"], "--xi"),
    (["nonvanishing"], "--xi"),
    (["integrate"], "--sigma"),
    (["integrate"], "--t0"),
    (["integrate"], "--delta"),
    (["integrate"], "--p"),
])
def test_nonfinite_flag_names_flag(capsys, series_file, argv, flag, value):
    assert cli.main(argv + ["--series", series_file, f"{flag}={value}"]) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("seed", "abc"),
    ("n_series", "2"),
    ("seed", True),
    ("alphas", [[0.3], 0.5]),
    ("deltas", 0.05),
    ("tolerance", "1e-6"),
    ("experiment", 3),
])
def test_wrong_json_type_names_field(tmp_path, capsys, field, value):
    # on an experiment that reads the field, so that its type is what is refused
    experiment = next((name for name, entry in harness.EXPERIMENT_TABLE.items()
                       if field in entry.reads), "local_l2_sweep")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"experiment": experiment, field: value}))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ({"experiment": "local_l2_sweep", "n_series": -3}, "n_series"),
    ({"experiment": "local_l2_sweep", "n_series": 0}, "n_series"),
    ({"experiment": "local_l2_sweep", "n_terms": 1}, "n_terms"),
    ({"experiment": "minmax", "restarts": 0}, "restarts"),
    ({"experiment": "minmax", "search_terms": 1}, "search_terms"),
    ({"experiment": "minmax", "orders": []}, "orders"),
    ({"experiment": "local_l2_sweep", "d_values": []}, "d_values"),
    ({"experiment": "nonvanishing_sweep", "xis": []}, "xis"),
    ({"experiment": "log_bound_sweep", "p_values": []}, "p_values"),
    ({"experiment": "lerch_scan", "betas": []}, "betas"),
    ({"experiment": "log_bound_sweep", "p_values": [1.0, 0.5]}, "p_values"),
    ({"experiment": "minmax", "m_norm": 0.5}, "m_norm"),
    ({"experiment": "constants", "threads": 2}, "threads"),
    # rejected before numpy or an integral sees them
    ({"experiment": "local_l2_sweep", "seed": -1}, "seed"),
    ({"experiment": "minmax", "orders": [70]}, "orders"),
    ({"experiment": "minmax", "orders": [2, 21]}, "orders"),
    ({"experiment": "minmax", "orders": [0]}, "orders"),
    ({"experiment": "log_bound_sweep", "deltas": [0.05, 0.0]}, "deltas"),
    ({"experiment": "minmax", "deltas": [-0.1]}, "deltas"),
    ({"experiment": "local_l2_sweep", "d_values": [1.0, -1.0]}, "d_values"),
    ({"experiment": "local_l2_sweep", "d_values": [0]}, "d_values"),
    ({"experiment": "nonvanishing_sweep", "xis": [0.0]}, "xis"),
    ({"experiment": "nonvanishing_sweep", "xis": [0.5, 1.0]}, "xis"),
    ({"experiment": "nonvanishing_sweep", "xis": [-0.5]}, "xis"),
    # the search runs at one delta, so a second would be dropped unchecked
    ({"experiment": "minmax", "deltas": [0.05, 0.1]}, "deltas"),
    # a step below the rounding of the ordinates: refused before any array
    ({"experiment": "hurwitz_scan", "alphas": [1.0], "t_start": 1e200, "t_stop": 1e200},
     "t_step"),
    # window_l2 memory grows as n_terms^2: 32 MiB at the ceiling of 1024
    ({"experiment": "local_l2_sweep", "n_series": 1, "n_terms": 1025}, "n_terms"),
    ({"experiment": "hurwitz_scan", "t_stop": -1}, "t_stop"),
    ({"experiment": "hurwitz_scan", "t_step": 0}, "t_step"),
    ({"experiment": "minmax", "tolerance": 0}, "tolerance"),
    # twists and shifts outside (0, 1], named before lerch_phi refuses them
    ({"experiment": "hurwitz_scan", "alphas": [1.5]}, "alphas"),
    ({"experiment": "lerch_scan", "alphas": [1.5]}, "alphas"),
    ({"experiment": "lerch_scan", "betas": [2]}, "betas"),
    ({"experiment": "lerch_scan", "betas": [0.7, 0.0]}, "betas"),
    # a value twice would be one block twice under one summary key
    ({"experiment": "hurwitz_scan", "alphas": [0.5, 0.5]}, "alphas"),
    ({"experiment": "lerch_scan", "betas": [1, 1.0]}, "betas"),
    ({"experiment": "log_bound_sweep", "deltas": [0.05, 0.05]}, "deltas"),
])
def test_degenerate_config_names_field(tmp_path, capsys, doc, field):
    # no series, term, restart or grid value to check is no verdict to pass
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_log_bound_sweep_integrates_each_p(tmp_path, capsys):
    # every p of p_values gets its own integral of |L|^p, not just 1 and 2
    cfg_path = tmp_path / "lb.json"
    cfg_path.write_text(json.dumps({"experiment": "log_bound_sweep", "n_series": 1,
                                    "p_values": [1.0, 3.0]}))
    out = tmp_path / "lb.csv"
    assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    checks = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    lp_checks = sorted(c for c in checks if "_lp" in c)
    assert lp_checks == [f"{tid}_lp{p}" for tid in ("T19", "T20", "T23", "T24")
                         for p in (1, 3)]


def test_minmax_unit_norm_runs(tmp_path, capsys):
    # m_norm = 1 leaves only a_0 = 1 on the slice, the least norm it holds
    cfg_path = tmp_path / "mm.json"
    cfg_path.write_text(json.dumps({"experiment": "minmax", "m_norm": 1.0, "restarts": 1,
                                    "orders": [1], "search_terms": 2}))
    assert cli.main(["verify", "--config", str(cfg_path)]) == 0
    assert "search_best: 1\n" in capsys.readouterr().out


@pytest.mark.parametrize("experiment", ["hurwitz_scan", "lerch_scan"])
def test_hurwitz_scan_step_must_align(tmp_path, capsys, experiment):
    # windows are 8 grid steps of delta/8 and t_step must be a whole number
    # of grid steps: 0.03 is not a multiple of 0.05/8
    cfg_path = tmp_path / "scan.json"
    doc = {"experiment": experiment, "alphas": [1.0], "t_stop": 1.0}
    cfg_path.write_text(json.dumps({**doc, "t_step": 0.03}))
    assert cli.main(["verify", "--config", str(cfg_path)]) == 2
    assert "t_step" in capsys.readouterr().err
    cfg_path.write_text(json.dumps(doc))  # default delta 0.05, t_step 0.025
    assert cli.main(["verify", "--config", str(cfg_path)]) == 0


def test_scan_step_slack_is_relative(tmp_path, capsys):
    # 8192.01875 is 1310723 steps of 0.05/8, but k h and the float t_step
    # differ by more than 1e-12 there; a step off the grid is refused with
    # the value given
    step = 8192.01875
    cfg = harness.ExperimentConfig.from_json(json.dumps(
        {"experiment": "hurwitz_scan", "t_step": step, "t_stop": step}))
    assert harness._scan_ordinates(cfg).tolist() == [0.0, step]
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"experiment": "hurwitz_scan", "t_step": 8200.33,
                                "t_stop": 8200.33}))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert "'t_step' must be a whole multiple of delta/8 = 0.00625, got 8200.33" in (
        capsys.readouterr().err)


# a value off each field's default that every experiment reading the field
# accepts; dispatch reads experiment and out for every experiment
_OFF_DEFAULT = {"seed": 7, "alphas": [0.5], "betas": [0.5], "deltas": [0.025],
                "t_start": 1.0, "t_stop": 10.0, "t_step": 0.05, "tolerance": 1e-3,
                "n_series": 3, "n_terms": 5, "d_values": [2.0], "xis": [0.75],
                "p_values": [3.0], "m_norm": 2.0, "search_terms": 4, "orders": [2],
                "restarts": 2, "threads": 2}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(harness.ExperimentConfig)
                                   if f.name not in ("experiment", "out")])
@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_config_refuses_a_field_its_experiment_does_not_read(tmp_path, capsys, experiment,
                                                              field):
    # builds configs only: a refused document runs nothing
    doc = {"experiment": experiment, field: _OFF_DEFAULT[field]}
    if field in harness.EXPERIMENT_TABLE[experiment].reads:
        cfg = harness.ExperimentConfig.from_json(json.dumps(doc))
        assert getattr(cfg, field) == (tuple(doc[field]) if isinstance(doc[field], list)
                                       else doc[field])
        return
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert f"{experiment} reads no config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", [name for name, entry in harness.EXPERIMENT_TABLE.items()
                                        if "seed" not in entry.reads])
def test_seed_flag_is_refused_where_no_seed_is_read(capsys, experiment):
    assert cli.main(["verify", "--experiment", experiment, "--seed", "3"]) == 2
    assert f"{experiment} reads no config field 'seed'" in capsys.readouterr().err
