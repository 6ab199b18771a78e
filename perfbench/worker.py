"""One benchmark process: set up, time a workload, check its outputs.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
import path.  ``--mode setup`` times a fresh ``import hardyseries`` plus the
workload's first tiny call and exits.  ``--mode measure`` warms up the same
way, then runs the workload's items round-robin for ``--seconds`` seconds,
then checks every output.  Between items it starts ``--setup-runs`` set-up
processes of its own, one at a time.  With ``--trace 1`` traced and untraced
passes alternate, so the tracing overhead is measured in the same process.
The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, traced: bool, work_dir: str,
            probe=None, setup_runs: int = 0) -> dict:
    """Times the workload's items; calls ``probe`` ``setup_runs`` times."""
    import spans

    items = workload.items(seed, work_dir)
    tracer = spans.Tracer() if traced else None
    plain = {item.name: [] for item in items}
    cpu = {item.name: [] for item in items}
    with_trace = {item.name: [] for item in items}
    attempted = failed = 0
    failures = []
    broken = set()
    digests = {}
    peak_rss_mb = None
    if workload.full is not None and not traced:
        full = workload.full(work_dir)
        try:
            out = full.outcome(full.run())
            attempted += out.rows
            failed += out.failed_rows
            if out.failed_rows:
                failures.append(f"{full.name}: {out.failed_rows} of {out.rows} rows failed")
        except Exception:
            attempted += 1
            failed += 1
            failures.append(f"{full.name} raised:\n{traceback.format_exc()}")
        peak_rss_mb = _peak_rss_mb()
    start = time.perf_counter()
    # set-up probes are spread evenly over the timed window, so that they
    # sample the same machine states as the items; the window is extended by
    # their own time
    probe_at = [seconds * (k + 0.5) / setup_runs for k in range(setup_runs)]
    setup = []

    def due_probes(final: bool = False) -> None:
        nonlocal start
        while probe_at and (final or time.perf_counter() - start >= probe_at[0]):
            probe_at.pop(0)
            t0 = time.perf_counter()
            setup.append(probe())
            start += time.perf_counter() - t0

    passes = 0
    min_passes = 2 if traced else 1  # traced runs need an untraced pass too
    # passes after the first ones stop at the first item that would start
    # after the time is up
    while (passes < min_passes or time.perf_counter() - start < seconds) \
            and len(broken) < len(items):
        use_trace = traced and passes % 2 == 1
        if use_trace:
            tracer.install()
        try:
            for item in items:
                if item.name in broken:
                    continue
                due_probes()
                if passes >= min_passes and time.perf_counter() - start >= seconds:
                    break
                if use_trace:
                    tracer.reset()
                c0 = time.process_time()
                try:
                    if use_trace:
                        result, dt = tracer.run_root(item.run)
                    else:
                        t0 = time.perf_counter()
                        result = item.run()
                        dt = time.perf_counter() - t0
                    c1 = time.process_time()
                    out = item.outcome(result)
                except Exception:
                    attempted += 1
                    failed += 1
                    broken.add(item.name)
                    failures.append(f"{item.name} raised:\n{traceback.format_exc()}")
                    continue
                if use_trace:
                    with_trace[item.name].append((dt, tracer.snapshot()))
                else:
                    plain[item.name].append(dt)
                    cpu[item.name].append(c1 - c0)
                attempted += out.rows
                failed += out.failed_rows
                if out.failed_rows:
                    failures.append(f"{item.name}: {out.failed_rows} of {out.rows} rows failed")
                if digests.setdefault(item.name, out.digest) != out.digest:
                    failed += 1
                    failures.append(f"{item.name}: output differs between repetitions")
        finally:
            if use_trace:
                tracer.uninstall()
        passes += 1
        if passes == 1 and peak_rss_mb is None:
            # read after one verdict per item: later repetitions raise the
            # high-water mark through allocator fragmentation, and their
            # number depends on the program's speed
            peak_rss_mb = _peak_rss_mb()

    due_probes(final=True)
    gate = workload.gate(seed, items) if not broken else []
    for label, error, tol in gate:
        attempted += 1
        if not error <= tol:
            failed += 1
            failures.append(f"{label}: |error| {error:.3e} > tolerance {tol:.1e}")

    # An item's time is its fastest repetition.  On a shared 2-vCPU virtual
    # machine, other tenants slowed stretches of a run by up to 2x, which
    # moved whole-run medians by up to 40%; the fastest repetition is the one
    # least disturbed, and a slower program still shows in every repetition.
    timed = [name for name in plain if plain[name]]
    fastest = {name: min(range(len(plain[name])), key=plain[name].__getitem__)
               for name in timed}
    result = {
        "wall_s": sum(plain[name][fastest[name]] for name in timed),
        "cpu_s": sum(cpu[name][fastest[name]] for name in timed),
        "wall_median_s": sum(statistics.median(plain[name]) for name in timed),
        "item_samples": plain,
        "peak_rss_mb": peak_rss_mb,
        "setup_samples": setup,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": passes,
    }
    if workload.note is not None and timed:
        result["note"] = workload.note(result["wall_s"])
    if traced:
        total = spans.Tracer()
        trace_wall = 0.0
        for samples in filter(None, with_trace.values()):
            dt, snap = min(samples, key=lambda sample: sample[0])
            trace_wall += dt
            total.add(snap)
        layers = total.layers()
        layers["trace.wall_s"] = (trace_wall, "s")
        layers["trace.overhead_s"] = (trace_wall - result["wall_s"], "s")
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
    return result


def _probe(args) -> float:
    """Set-up time of a fresh process, which this one waits for."""
    probe_dir = os.path.join(args.work_dir, "probe")
    result = os.path.join(probe_dir, "result.json")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--mode", "setup",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--work-dir", probe_dir, "--result", result],
                   check=True, timeout=60, stdout=subprocess.DEVNULL)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-runs", type=int, default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import hardyseries  # noqa: F401  (timed as set-up)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        workload.warmup(args.work_dir)
        setup_s = time.perf_counter() - t0
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        else:
            result = measure(workload, args.seed, args.seconds, bool(args.trace),
                             args.work_dir, lambda: _probe(args), args.setup_runs)
            result["env"] = environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
