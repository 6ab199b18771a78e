"""Span tracer that wraps the package's public layer entry points.

The tracer replaces module attributes (``hardyseries.quadrature.integrate_log``
and so on) with timing wrappers, which is how the CLI and the harness reach
them: every cross-module call in the package goes through ``module.name``.
Nothing in the package is edited.  ``install`` patches, ``uninstall``
restores the originals, so traced and untraced passes can alternate inside
one process.

Each wrapper records a span.  A layer's self time is its span time minus the
time of the spans nested directly inside it, so the self times of all
groups plus the root span's own time add up to the root span's duration.
Calls are counted only where a group is entered from another group, so
``riemann_zeta -> hurwitz_zeta -> hurwitz_zeta_with_error`` counts as one
scalar zeta call.
"""

from __future__ import annotations

import time
from collections import defaultdict

from hardyseries import bounds, cli, harness, quadrature, series, special

ROOT = "bench"

# group -> (module or class, names of the entry points wrapped there)
_TARGETS = {
    "cli": (cli, ("main",)),
    "harness": (harness, ("dispatch",)),
    "harness.write": (harness.ExperimentResult, ("write_csv", "write_summary")),
    "quadrature.integral": (quadrature, ("integrate_abs_pow", "integrate_log",
                                         "poisson_log_integral")),
    "quadrature.sup": (quadrature, ("interval_sup",)),
    "special.zeta_grid": (special, ("hurwitz_zeta_grid",)),
    "special.lerch": (special, ("lerch_phi",)),
    "special.hurwitz_zeta": (special, ("hurwitz_zeta", "hurwitz_zeta_with_error",
                                       "riemann_zeta", "hurwitz_tail_sum")),
    "special.other": (special, ("lambert_w0", "kappa_constants", "bernoulli_b2k")),
    "bounds": (bounds, tuple(name for name in bounds.__all__
                             if callable(getattr(bounds, name))
                             and not isinstance(getattr(bounds, name), type))),
}


class Tracer:
    """Accumulates self time, inclusive time and call counts per group."""

    def __init__(self) -> None:
        self._stack: list = []
        self._saved: list = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        # the wrappers made by ``span`` hold these dicts, so clear in place
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.evals_in_integrals = 0
        self.subdivisions = 0
        self.flagged = 0
        self.grid_points = 0
        self.rows = 0

    _COUNTERS = ("evals_in_integrals", "subdivisions", "flagged", "grid_points", "rows")

    def snapshot(self) -> dict:
        """Copy of everything recorded since the last reset."""
        snap = {name: dict(getattr(self, name)) for name in ("self_s", "incl_s", "calls")}
        snap.update({name: getattr(self, name) for name in self._COUNTERS})
        return snap

    def add(self, snap: dict) -> None:
        """Add a snapshot taken from another pass into this tracer's totals."""
        for name in ("self_s", "incl_s", "calls"):
            target = getattr(self, name)
            for key, value in snap[name].items():
                target[key] += value
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + snap[name])

    # -- spans ---------------------------------------------------------------

    def span(self, group: str, fn, on_exit=None):
        stack = self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2] += 1
            frame = [group, 0.0, 0]  # group, child time, direct child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[group] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if parent is None or parent[0] != group:
                    calls[group] += 1
                    incl_s[group] += dt
            if on_exit is not None:
                on_exit(args, result, frame)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def run_root(self, fn):
        """Run ``fn`` under the root span; returns (result, seconds)."""
        t0 = time.perf_counter()
        result = self.span(ROOT, fn)()
        return result, time.perf_counter() - t0

    # -- exit hooks ----------------------------------------------------------

    def _integral_done(self, args, result, frame) -> None:
        self.evals_in_integrals += frame[2]
        self.subdivisions += result.subdivisions
        self.flagged += bool(result.flagged)

    def _grid_done(self, args, result, frame) -> None:
        self.grid_points += len(result)

    def _dispatch_done(self, args, result, frame) -> None:
        self.rows += len(result.rows)

    def _wrap_line_evaluator(self, make):
        span = self.span

        def line_evaluator(*args, **kwargs):
            return span("series.eval", make(*args, **kwargs))

        return line_evaluator

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "quadrature.integral": self._integral_done,
            "special.zeta_grid": self._grid_done,
            "harness": self._dispatch_done,
        }
        for group, (owner, names) in _TARGETS.items():
            for name in names:
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self.span(group, original, hooks.get(group)))
        original = series.line_evaluator
        self._saved.append((series, "line_evaluator", original))
        series.line_evaluator = self._wrap_line_evaluator(original)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- report --------------------------------------------------------------

    def layers(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset, as
        ``name -> (value, unit)``."""
        s, c = self.self_s, self.calls
        integrals = c["quadrature.integral"]
        evals = c["series.eval"]
        grid_s = s["special.zeta_grid"]
        lerch = c["special.lerch"]
        return {
            "series.eval_calls": (evals, "count"),
            "series.eval_s": (s["series.eval"], "s"),
            "series.eval_us_per_call":
                (1e6 * s["series.eval"] / evals if evals else 0.0, "us"),
            "quadrature.integrals": (integrals, "count"),
            "quadrature.self_s": (s["quadrature.integral"] + s["quadrature.sup"], "s"),
            "quadrature.evals_per_integral":
                (self.evals_in_integrals / integrals if integrals else 0.0, "count"),
            "quadrature.subdivisions": (self.subdivisions, "count"),
            "quadrature.flagged": (self.flagged / integrals if integrals else 0.0, "ratio"),
            "quadrature.sup_calls": (c["quadrature.sup"], "count"),
            "quadrature.sup_s": (self.incl_s["quadrature.sup"], "s"),
            "special.zeta_grid_calls": (c["special.zeta_grid"], "count"),
            "special.zeta_grid_points": (self.grid_points, "count"),
            "special.zeta_grid_s": (grid_s, "s"),
            "special.zeta_grid_points_per_s":
                (self.grid_points / grid_s if grid_s else 0.0, "1/s"),
            "special.lerch_calls": (lerch, "count"),
            "special.lerch_s": (s["special.lerch"], "s"),
            "special.lerch_us_per_call":
                (1e6 * s["special.lerch"] / lerch if lerch else 0.0, "us"),
            "special.hurwitz_zeta_calls": (c["special.hurwitz_zeta"], "count"),
            "special.hurwitz_zeta_s": (s["special.hurwitz_zeta"], "s"),
            "special.other_s": (s["special.other"], "s"),
            "bounds.calls": (c["bounds"], "count"),
            "bounds.s": (s["bounds"], "s"),
            "harness.self_s": (s["harness"], "s"),
            "harness.rows": (self.rows, "count"),
            "harness.write_s": (s["harness.write"], "s"),
            "cli.self_s": (s["cli"], "s"),
            # the root span's own time: what no wrapped layer covers
            "bench.self_s": (s[ROOT], "s"),
        }
