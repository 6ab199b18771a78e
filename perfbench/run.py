"""hardyseries benchmark launcher.

    python3 perfbench/run.py --workload catalog_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Every benchmark process runs with BLAS pinned to one thread.

With ``--trace 0`` it prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``) and ``fail_frac``; with ``--trace 1`` the per-layer metrics
of a traced run.  ``--workload all`` runs every workload in turn.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when a result was printed,
including a result with ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalog_sweep", "poisson_log", "hurwitz_grid", "twisted_spots")
# Set-up is timed in this many fresh processes, started by the measuring
# process at even steps through its timed window, and the median is
# reported.  On a shared 2-vCPU machine the median of five probes taken
# before and after the measurement spread by up to 0.38 of its value over
# ten runs; eleven spread over the window, by at most 0.20.
SETUP_RUNS = 11
DEADLINE_S = 170  # a workload's processes are killed after this many seconds

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(root: str, work_dir: str, deadline: float, **kw) -> dict:
    result = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--work-dir", work_dir,
           "--result", result]
    for key, value in kw.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    # the worker starts set-up probes of its own: on time-out the whole
    # session is killed, and waited for
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {kw} exited {proc.returncode}:\n{stderr}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(root: str, scratch: str, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """Returns (measure result, metrics by name as {"value", "unit"})."""
    deadline = time.monotonic() + DEADLINE_S
    work_dir = tempfile.mkdtemp(prefix=workload + "-", dir=scratch)
    try:
        result = _worker(root, work_dir, deadline, mode="measure", workload=workload,
                         seed=seed, seconds=seconds, trace=trace,
                         setup_runs=0 if trace else SETUP_RUNS)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        metrics = result["layers"]
    else:
        values = {"wall_s": result["wall_s"],
                  "setup_s": statistics.median(result["setup_samples"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return result, metrics


def report(workload: str, result: dict, metrics: dict, trace: int) -> None:
    print(f"# workload {workload}: env {json.dumps(result['env'])}")
    items = ", ".join(f"{name} {min(t):.4f}/{statistics.median(t):.4f}/{max(t):.4f} s (n={len(t)})"
                      for name, t in result["item_samples"].items() if t)
    print(f"# {workload} item min/median/max: {items}")
    print(f"# {workload} sum of item medians {result['wall_median_s']:.4f} s; "
          f"cpu_s of the fastest repetitions {result['cpu_s']:.4f}")
    if result["setup_samples"]:
        print(f"# {workload} setup_s samples: "
              + " ".join(f"{x:.4f}" for x in result["setup_samples"]))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{workload:14s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{workload:14s} {'fail_frac':34s} {frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    if trace:
        layer = {name: metric["value"] for name, metric in result["layers"].items()}
        print(f"# {workload} traced wall {layer['trace.wall_s']:.4f} s, of which "
              f"{layer['bench.self_s']:.4f} s is outside every named layer; "
              f"overhead {layer['trace.overhead_s']:.4f} s")
    if "note" in result:
        print(f"# {workload} {result['note']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hardyseries", "__init__.py")):
        print("run.py: no src/hardyseries here; run it from the root of a "
              "hardyseries checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            result, wl_metrics = run_workload(root, scratch, workload, args.seed,
                                              args.seconds, args.trace)
            report(workload, result, wl_metrics, args.trace)
            correct = correct and result["failed"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = "" if len(workloads) == 1 else workload + "."
            metrics.update({prefix + name: m for name, m in wl_metrics.items()})
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
