"""Outside-in call tracer for the ietmix benchmark.

Spans are recorded around calls into ietmix's functions by replacing
each name in the module namespace where its callers look it up: the
loop in ``ietmix.lattice.iterate`` calls ``diffusion_step`` through
``ietmix.lattice``'s globals, so that is the name that gets wrapped.
The program's source is never edited, so the same hooks measure any
later commit. A hook whose target no longer exists is reported as
absent instead of raising, so a change that fuses or deletes a function
can still run the unchanged benchmark.

Spans are aggregated per (name, parent) into calls, total and self time
rather than stored one by one: a single ``collapse`` run makes about
1.6 million calls. A span's name is the layer that defines the function
(``diffusion.diffusion_step``), not the namespace it was found in.

Only the standard library is imported here, so the untraced child and
the parent pay nothing for this module.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


class Tracer:
    """Aggregated spans, counters and the hooks that could not be installed."""

    def __init__(self, clock=time.perf_counter):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, float] = {}
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []
        self._clock = clock

    def wrap(self, name: str, fn, observe=None):
        """Return fn timed as span `name`; observe(counters, args, kwargs, result)
        runs after the span closes, so its cost lands in the caller's self time."""
        clock, stack, spans = self._clock, self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]  # span name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if observe is not None:
                self._observe(name, observe, args, kwargs, result)
            return result

        return traced

    def _observe(self, name, observe, args, kwargs, result):
        key = f"{name} counters"
        if key in self.absent:
            return
        try:
            observe(self.counters, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError) as exc:
            self.absent[key] = f"observer failed: {exc!r}"

    def install(self, hooks) -> None:
        """Wrap every (span name, lookup targets, observer) hook that resolves."""
        for name, targets, observe in hooks:
            missing = []
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError as exc:
                    missing.append(f"{target}: {exc}")
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    missing.append(f"{target} not found")
                    continue
                setattr(module, attr, self.wrap(name, fn, observe))
            if len(missing) == len(targets):
                self.absent[name] = "; ".join(missing)

    def snapshot(self) -> dict:
        """JSON-ready copy of what has been recorded so far."""
        return {
            "spans": [[name, parent, *agg] for (name, parent), agg in self.spans.items()],
            "counters": dict(self.counters),
            "absent": dict(self.absent),
        }


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _observe_sites(counters, args, kwargs, result):
    _add(counters, "diffusion.sites", len(result))


def _observe_site_iters(counters, args, kwargs, result):
    protocol = args[0] if args else kwargs["protocol"]
    length = importlib.import_module("ietmix.lattice").total_length(protocol.n, protocol.ratio)
    _add(counters, "lattice.site_iters", length * protocol.t_max)


def _observe_orders(counters, args, kwargs, result):
    _add(counters, "permutations.orders", len(result))


def _observe_solver(counters, args, kwargs, result):
    _add(counters, "fitting.solves", 1)
    _add(counters, "fitting.nfev", int(result.nfev))
    _add(counters, "fitting.converged", int(result.status > 0))


def _observe_found(counters, args, kwargs, result):
    _add(counters, "stopping.solutions", 1)
    _add(counters, "stopping.found", int(bool(result.found)))


def _observe_bytes(counters, args, kwargs, result):
    _add(counters, "io.bytes_written", os.path.getsize(result))


#: (span name, namespaces where callers look the function up, observer).
HOOKS = [
    ("diffusion.diffusion_step", ["ietmix.lattice.diffusion_step"], _observe_sites),
    ("metrics.cut_count", ["ietmix.metrics.cut_count"], None),
    ("metrics.percent_unmixed", ["ietmix.metrics.percent_unmixed"], None),
    ("metrics.mixing_norm", ["ietmix.metrics.mixing_norm"], None),
    ("metrics.average_color",
     ["ietmix.metrics.average_color", "ietmix.lattice.average_color"], None),
    ("metrics.compute_series", ["ietmix.cli.compute_series"], None),
    ("lattice.iterate", ["ietmix.runner.iterate", "ietmix.cli.iterate"], _observe_site_iters),
    ("permutations.enumerate_allowed",
     ["ietmix.runner.enumerate_allowed", "ietmix.cli.enumerate_allowed"], _observe_orders),
    ("fitting.fit_stretched_exponential",
     ["ietmix.runner.fit_stretched_exponential", "ietmix.cli.fit_stretched_exponential"], None),
    ("fitting.least_squares", ["ietmix.fitting.least_squares"], _observe_solver),
    ("stopping.solve_stopping_time",
     ["ietmix.runner.solve_stopping_time", "ietmix.cli.solve_stopping_time"], _observe_found),
    ("runner.run_ensemble", ["ietmix.runner.run_ensemble", "ietmix.cli.run_ensemble"], None),
    ("runner.collapse", ["ietmix.cli.collapse"], None),
    ("io.export_spacetime", ["ietmix.cli.export_spacetime"], _observe_bytes),
    ("io.export_series", ["ietmix.cli.export_series"], _observe_bytes),
    ("io.export_collapse", ["ietmix.cli.export_collapse"], _observe_bytes),
    ("io.export_steepening", ["ietmix.cli.export_steepening"], _observe_bytes),
]

def merge(traces) -> dict:
    """One trace from several processes' snapshots: spans pooled, counters summed."""
    merged = {"spans": [], "counters": {}, "absent": {}}
    for trace in traces:
        merged["spans"] += trace["spans"]
        merged["absent"].update(trace["absent"])
        for key, value in trace["counters"].items():
            _add(merged["counters"], key, value)
    return merged


_METRIC_FUNCTIONS = ("cut_count", "percent_unmixed", "mixing_norm", "average_color")


def layer_metrics(trace: dict, wall_s: float, setup_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a trace, as name -> (value, unit).

    wall_s and setup_s are the traced processes' total wall and set-up time. A
    ratio over zero attempts reads 0; the report says which hooks were
    absent.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    top_level = 0.0
    for name, parent, n, tot, own in trace["spans"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + own
        if parent is None:
            top_level += tot
    counters = trace["counters"]

    def count(key):
        return counters.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "diffusion.diffusion_step.calls": (calls.get("diffusion.diffusion_step", 0), "count"),
        "diffusion.diffusion_step.s": (total.get("diffusion.diffusion_step", 0.0), "s"),
        "diffusion.ns_per_site": (
            1e9 * ratio(total.get("diffusion.diffusion_step", 0.0), count("diffusion.sites")),
            "ns",
        ),
    }
    for fn in _METRIC_FUNCTIONS:
        out[f"metrics.{fn}.s"] = (total.get(f"metrics.{fn}", 0.0), "s")
    out["metrics.calls"] = (sum(calls.get(f"metrics.{fn}", 0) for fn in _METRIC_FUNCTIONS), "count")
    out["metrics.compute_series.self_s"] = (self_s.get("metrics.compute_series", 0.0), "s")
    out["lattice.iterate.calls"] = (calls.get("lattice.iterate", 0), "count")
    out["lattice.iterate.self_s"] = (self_s.get("lattice.iterate", 0.0), "s")
    out["lattice.site_iters"] = (count("lattice.site_iters"), "count")
    out["permutations.enumerate_allowed.s"] = (total.get("permutations.enumerate_allowed", 0.0), "s")
    out["permutations.orders"] = (count("permutations.orders"), "count")
    out["fitting.fit_stretched_exponential.calls"] = (
        calls.get("fitting.fit_stretched_exponential", 0), "count")
    out["fitting.fit_stretched_exponential.s"] = (
        total.get("fitting.fit_stretched_exponential", 0.0), "s")
    out["fitting.nfev"] = (count("fitting.nfev"), "count")
    out["fitting.converged_ratio"] = (ratio(count("fitting.converged"), count("fitting.solves")), "ratio")
    out["stopping.solve_stopping_time.calls"] = (calls.get("stopping.solve_stopping_time", 0), "count")
    out["stopping.solve_stopping_time.s"] = (total.get("stopping.solve_stopping_time", 0.0), "s")
    out["stopping.found_ratio"] = (ratio(count("stopping.found"), count("stopping.solutions")), "ratio")
    out["runner.run_ensemble.self_s"] = (self_s.get("runner.run_ensemble", 0.0), "s")
    out["runner.collapse.self_s"] = (self_s.get("runner.collapse", 0.0), "s")
    for fn in ("export_spacetime", "export_series", "export_collapse", "export_steepening"):
        out[f"io.{fn}.s"] = (total.get(f"io.{fn}", 0.0), "s")
    out["io.bytes_written"] = (count("io.bytes_written"), "B")
    out["cli.self_s"] = (wall_s - setup_s - top_level, "s")
    return out
