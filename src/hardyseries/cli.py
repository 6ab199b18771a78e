"""Command-line front end.

Subcommands: constants, norms, bound, nonvanishing, integrate, verify.
Every experiment, the zeta-family scans and the minmax explorer included,
runs through ``verify`` from an ExperimentConfig JSON document.  All numeric
output uses 12 significant digits; values that live in natural-log space
are printed with a ``log:`` prefix.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 numerical failure.
The HD_LOG_LEVEL environment variable (error | info | debug) controls the
package logger.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

from . import bounds as bd
from . import harness as hn
from . import quadrature as qd
from . import series as se
from .errors import HardySeriesError, InvalidParameterError, InvalidSeriesError

log = logging.getLogger("hardyseries")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: refuses nan and +-inf."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _setup_logging() -> None:
    level = os.environ.get("HD_LOG_LEVEL", "error").lower()
    mapping = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=mapping.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_series(path: str) -> se.DirichletSeries:
    with open(path, "r", encoding="utf-8") as fh:
        return se.series_from_json(fh.read())


def _write_out(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=float)
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    table = hn.named_constants()
    width = max(len(name) for name in table)
    for name, value in table.items():
        print(f"{name:<{width}}  {_fmt(value)}")
    _write_out(args.out, table)
    return 0


def _cmd_norms(args) -> int:
    series = _load_series(args.series)
    p = bd.class_params(series)
    sigma = args.sigma if args.sigma is not None else series.sigma
    rows = [
        ("l2_norm", se.l2_norm(series)),
        ("l1_norm", se.l1_norm_at(series, sigma)),
        ("separation_constant", p.c),
        ("lambda1", p.lambda1),
        ("lambert_floor_k", p.k),
    ]
    for name, value in rows:
        print(f"{name:<22}  {_fmt(value)}")
    _write_out(args.out, {name: value for name, value in rows})
    return 0


def _cmd_bound(args) -> int:
    series = _load_series(args.series) if args.series else None
    report, plus = bd.bound_report(args.variant, series, args.delta, args.d, args.alpha, args.xi)
    name, value = args.variant.lower(), report.bound_value
    if bd.CATALOG[args.variant].kind == "log":
        print(f"{name}_logminus_bound  {_fmt(value)}")
        if plus is not None:
            print(f"{name}_logplus_bound   {_fmt(plus)}")
    else:
        print(f"{name}_{report.side}_bound  {'log:' if report.log_space else ''}{_fmt(value)}")
    _write_out(args.out, report.as_dict())
    return 0


def _cmd_nonvanishing(args) -> int:
    series = _load_series(args.series)
    x = bd.nonvanishing(series, args.xi, args.variant).x
    print(f"x_xi           {_fmt(x)}")
    print(f"abscissa       {_fmt(series.sigma + x)}")
    print(f"guarantee      {_fmt(args.xi)} <= |L| <= {_fmt(2 - args.xi)}")
    _write_out(args.out, {"variant": args.variant, "xi": args.xi, "x_xi": x,
                          "abscissa": series.sigma + x})
    return 0


def _cmd_integrate(args) -> int:
    series = _load_series(args.series)
    sigma = args.sigma if args.sigma is not None else series.sigma
    ev = se.line_evaluator(series, sigma)
    interval = (args.t0, args.t0 + args.delta)
    if args.variant == "sup":
        value = qd.interval_sup(ev, sigma, interval)
        print(f"interval_sup  {_fmt(value)}")
        _write_out(args.out, {"kind": "sup", "value": value})
        return 0
    if args.variant in ("logplus", "logminus"):
        sign = "plus" if args.variant == "logplus" else "minus"
        r = qd.integrate_log(ev, sigma, interval, sign, 1e-8)
        print(f"log_{sign}_integral  {_fmt(r.value)}  (error <= {_fmt(r.error_estimate)})")
        _write_out(args.out, {"kind": f"log_{sign}", "value": r.value,
                              "error_estimate": r.error_estimate})
        return 0
    r = qd.integrate_abs_pow(ev, sigma, interval, args.p, 1e-9)
    print(f"abs_pow_integral  {_fmt(r.value)}  (error <= {_fmt(r.error_estimate)})")
    _write_out(args.out, {"kind": "abs_pow", "p": args.p, "value": r.value,
                          "error_estimate": r.error_estimate})
    return 0


def _result_to_exit(result: hn.ExperimentResult) -> int:
    print(f"experiment {result.experiment}: "
          f"{'PASS' if result.passed else 'FAIL'} ({result.summary['n_rows']} rows)")
    for key, value in result.summary.items():
        if isinstance(value, float):
            print(f"  {key}: {_fmt(value)}")
        elif isinstance(value, dict):
            inner = ", ".join(
                f"{k}={_fmt(v) if isinstance(v, float) else v}"
                for k, v in value.items()
            )
            print(f"  {key}: {inner}")
        else:
            print(f"  {key}: {value}")
    return 0 if result.passed else 1


def _cmd_verify(args) -> int:
    # an explicit flag overrides the config document; an absent one keeps it
    overrides = {name: getattr(args, name)
                 for name in ("experiment", "seed", "out")
                 if getattr(args, name) is not None}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = hn.ExperimentConfig.from_json(fh.read(), **overrides)
    elif args.experiment:
        cfg = hn.ExperimentConfig(**overrides)
    else:
        print("verify needs --experiment or --config", file=sys.stderr)
        return 2
    return _result_to_exit(hn.dispatch(cfg))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs some
    25 times what parsing one command line does."""
    parser = argparse.ArgumentParser(
        prog="hardyseries",
        description="Explicit constants and verified inequalities for "
                    "generalized Dirichlet series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, series_required=False):
        p.add_argument("--series", required=series_required,
                       help="path to a series JSON document")
        p.add_argument("--out", help="write machine-readable output here")

    p = sub.add_parser("constants", help="print every named constant")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("norms", help="norms and class parameters of a series")
    add_common(p, series_required=True)
    p.add_argument("--sigma", type=_finite_float, help="abscissa for the L1 norm")
    p.set_defaults(func=_cmd_norms)

    ids = [tid for tid, entry in bd.CATALOG.items() if entry.kind in bd.BOUND_KINDS]
    p = sub.add_parser("bound", help="evaluate a catalog bound",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="catalog ids:\n" + "\n".join(
                           f"  {tid:<4} {bd.CATALOG[tid].statement}" for tid in ids))
    add_common(p)
    p.add_argument("--variant", required=True, type=str.upper, choices=ids,
                   metavar="ID", help="catalog id, in either case (listed below)")
    p.add_argument("--delta", type=_finite_float,
                   help="window length, default 0.05 (every id but T4)")
    p.add_argument("--alpha", type=_finite_float,
                   help="shift parameter, default 1 (zeta-family bounds)")
    p.add_argument("--d", type=_finite_float,
                   help="interval length D of the local mean square, default 1 (T4)")
    p.add_argument("--xi", type=_finite_float,
                   help="override the tuned level baked into the general log bounds")
    p.set_defaults(func=_cmd_bound)

    variants = {entry.variant: tid for tid, entry in bd.CATALOG.items()
                if entry.kind == "nonvanishing"}
    p = sub.add_parser("nonvanishing", help="nonvanishing abscissa x_xi ("
                       + ", ".join(variants.values()) + ")")
    add_common(p, series_required=True)
    p.add_argument("--xi", type=_finite_float, required=True,
                   help="level in (0,1): xi <= |L| <= 2-xi beyond the abscissa")
    p.add_argument("--variant", choices=tuple(variants), default="H2",
                   help=", ".join(f"{v} ({tid})" for v, tid in variants.items()))
    p.set_defaults(func=_cmd_nonvanishing)

    p = sub.add_parser("integrate", help="window integrals of |L|^p or log|L|")
    add_common(p, series_required=True)
    p.add_argument("--sigma", type=_finite_float, help="line Re(s); defaults to series sigma")
    p.add_argument("--t0", type=_finite_float, default=0.0, help="window start")
    p.add_argument("--delta", type=_finite_float, default=0.05, help="window length")
    p.add_argument("--p", type=_finite_float, default=1.0, help="power for |L|^p")
    p.add_argument("--variant", default="abs",
                   choices=("abs", "logplus", "logminus", "sup"),
                   help="integrand: |L|^p, log+|L|, log-|L|, or the window sup")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument("--experiment", choices=hn.EXPERIMENTS)
    p.add_argument("--config", help="ExperimentConfig JSON path")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--seed", type=int, help="overrides the config's seed (default 42); read by "
                   + ", ".join(e for e, entry in hn.EXPERIMENT_TABLE.items()
                               if "seed" in entry.reads))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (InvalidParameterError, InvalidSeriesError) as exc:
        log.error("invalid input: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HardySeriesError as exc:
        log.error("numerical failure: %s", exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
