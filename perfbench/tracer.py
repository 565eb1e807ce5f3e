"""Outside-in span recorder for permlim's layers.

The recorder replaces the public functions of ``bridge``, ``grid``,
``balance``, ``permanent``, ``spectral`` and ``lab`` with timing wrappers
by assigning module attributes, and wraps the configured cost's evaluator
through ``dataclasses.replace``. permlim calls its stages as module
attributes (``bridge_mod.solve_potential``, and within a module through its
globals), so every call from the study runner reaches a wrapper; nothing
under ``src/`` is edited. Functions are found by enumeration, so one that
a later version deletes simply records zero calls.

A span holds its name, start and end (wall and process CPU time), the
index of its parent span and the study row it belongs to: the ``n`` of
the latest ``grid.sample_kernel`` call made directly by the runner.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    row: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)


def _terms(n: int, method: str) -> int:
    """Gray-code terms a permanent of size n evaluates."""
    return (1 << n) - 1 if method == "ryser" else (1 << (n - 1)) - 1


def _permanent_counts(args, kwargs, result):
    n = int(getattr(result, "n", 0))
    method = str(getattr(result, "method", ""))
    return {"n": n, "terms": _terms(n, method) if n > 0 else 0}


# Work counts read from a call's arguments and result, keyed by span name;
# every permanent function's result carries its size and method.
_COUNTERS = {
    "cost.evaluator": lambda a, k, r: {"points": int(np.size(r))},
    "bridge.evaluate_potential": lambda a, k, r: {"points": int(np.size(r))},
    "bridge.solve_potential": lambda a, k, r: {"iterations": r.iterations},
    "grid.sample_kernel": lambda a, k, r: {"entries": int(r.entries.size)},
    "balance.balance_fixed_point": lambda a, k, r: {"iterations": r.iterations},
    "spectral.centered_nystrom": lambda a, k, r: {"entries": int(np.size(r))},
    "spectral.fredholm_limit": lambda a, k, r: {
        "refinement_gap": float(r.refinement_gap)},
}


class Recorder:
    """Spans kept in memory for one traced study run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.row: int | None = None
        self._local = threading.local()

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name) or (
            _permanent_counts if name.startswith("permanent.") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if (name == "grid.sample_kernel" and parent is not None
                    and self.spans[parent].name.startswith("lab.")):
                self.row = int(args[1] if len(args) > 1 else kwargs["n"])
            span = Span(name, parent, self.row, time.perf_counter(),
                        time.process_time())
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    span.counts = {}  # the function's result changed shape
            return result

        return traced

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self, modules: dict):
        """Wrap every public function defined in each module; returns undo."""
        originals = []
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                originals.append((module, attr, obj))
                setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))

        def undo():
            for module, attr, obj in originals:
                setattr(module, attr, obj)
        return undo

    def traced_config(self, config):
        """The config with its cost evaluator wrapped as ``cost.evaluator``."""
        cost = dataclasses.replace(
            config.cost, evaluator=self.wrap("cost.evaluator",
                                             config.cost.evaluator))
        return dataclasses.replace(config, cost=cost)


def self_times(spans: list[Span]):
    """Wall and CPU self time of each span: its duration minus its children's."""
    wall = [s.end - s.start for s in spans]
    cpu = [s.cpu_end - s.cpu_start for s in spans]
    for s in spans:
        if s.parent is not None:
            wall[s.parent] -= s.end - s.start
            cpu[s.parent] -= s.cpu_end - s.cpu_start
    return wall, cpu


def layer_metrics(spans: list[Span], wall_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json per_layer)."""
    wall, cpu = self_times(spans)
    by_name = defaultdict(lambda: {"s": 0.0, "calls": 0})
    by_layer = defaultdict(float)
    sums = defaultdict(float)
    for s, w in zip(spans, wall):
        by_name[s.name]["s"] += w
        by_name[s.name]["calls"] += 1
        by_layer[s.name.split(".")[0]] += w
        for key, value in s.counts.items():
            sums[f"{s.name}.{key}"] += value

    perm = [(s, w, c) for s, w, c in zip(spans, wall, cpu)
            if s.name.startswith("permanent.")
            and (s.parent is None
                 or not spans[s.parent].name.startswith("permanent."))]
    perm_s = sum(w for _, w, _ in perm)
    perm_cpu = sum(c for _, _, c in perm)
    rows = {s.row for s in spans
            if s.name == "grid.sample_kernel" and s.row is not None}
    top_n = max((s.counts.get("n", 0) for s, _, _ in perm), default=0)
    top = [(s, w) for s, w, _ in perm if s.counts.get("n", 0) == top_n]
    top_terms = sum(s.counts.get("terms", 0) for s, _ in top)
    gaps = [s.counts["refinement_gap"] for s in spans
            if "refinement_gap" in s.counts]

    def fn(name, field="s"):
        return float(by_name[name][field]) if name in by_name else 0.0

    inside = sum(w for s, w in zip(spans, wall) if not s.name.startswith("lab."))
    return {
        "trace.wall_s": wall_s,
        "trace.coverage": inside / wall_s if wall_s > 0 else 0.0,
        "bridge.s": by_layer["bridge"],
        "grid.s": by_layer["grid"],
        "balance.s": by_layer["balance"],
        "permanent.s": perm_s,
        "spectral.s": by_layer["spectral"],
        "lab.self_s": by_layer["lab"],
        "permanent.cpu_s": perm_cpu,
        "permanent.calls": float(len(perm)),
        "permanent.calls_per_row": len(perm) / len(rows) if rows else 0.0,
        "permanent.terms": float(sum(s.counts.get("terms", 0)
                                     for s, _, _ in perm)),
        "permanent.ns_per_term": (1e9 * sum(w for _, w in top) / top_terms
                                  if top_terms else 0.0),
        "permanent.parallel_eff": (perm_cpu / (perm_s * workers)
                                   if perm_s > 0 else 0.0),
        "grid.sample_kernel.s": fn("grid.sample_kernel"),
        "grid.sample_kernel.entries": sums["grid.sample_kernel.entries"],
        "cost.evaluator.s": fn("cost.evaluator"),
        "cost.evaluator.calls": fn("cost.evaluator", "calls"),
        "cost.evaluator.points": sums["cost.evaluator.points"],
        "bridge.evaluate_potential.s": fn("bridge.evaluate_potential"),
        "bridge.evaluate_potential.points":
            sums["bridge.evaluate_potential.points"],
        "bridge.solve_potential.s": fn("bridge.solve_potential"),
        "bridge.solve_potential.iterations":
            sums["bridge.solve_potential.iterations"],
        "balance.balance_fixed_point.s": fn("balance.balance_fixed_point"),
        "balance.balance_fixed_point.iterations":
            sums["balance.balance_fixed_point.iterations"],
        "balance.balance_diagnostics.s": fn("balance.balance_diagnostics"),
        "spectral.centered_nystrom.s": fn("spectral.centered_nystrom"),
        "spectral.centered_nystrom.entries":
            sums["spectral.centered_nystrom.entries"],
        "spectral.fredholm_limit.s": fn("spectral.fredholm_limit"),
        "spectral.mccullagh_estimate.s": fn("spectral.mccullagh_estimate"),
        "spectral.refinement_gap": gaps[-1] if gaps else 0.0,
    }
