"""CLI: exit codes, output formatting, reproducibility."""

import importlib
import json
import pkgutil

import pytest

import hardyseries
from hardyseries import cli


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


def test_nonvanishing_command(capsys, series_file):
    assert cli.main(["nonvanishing", "--series", series_file, "--xi", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "x_xi" in out and "guarantee" in out


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
    ("verify", "tolerance", {"experiment": "constants", "tolerance": _NAN}),
    ("verify", "t_step", {"experiment": "lerch_scan", "t_step": _NAN}),
    ("verify", "t_stop", {"experiment": "lerch_scan", "t_stop": _INF}),
    ("verify", "alphas", {"experiment": "hurwitz_scan", "alphas": [0.5, _NAN]}),
    ("verify", "d_values", {"experiment": "local_l2_sweep", "d_values": [-_INF]}),
])
def test_nonfinite_input_names_field(tmp_path, capsys, command, field, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # json writes NaN / Infinity literals
    flag = "--series" if command == "norms" else "--config"
    assert cli.main([command, flag, str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


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
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"experiment": "local_l2_sweep", field: value}))
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
