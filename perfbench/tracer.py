"""Span tracing around calls into rumkit's public functions.

The tracer replaces each listed function, in every rumkit module that binds
it, with a wrapper that records a span (name, start, end, parent span, task
id) in memory, and puts the original bindings back on `restore`. Nothing in
the package itself changes: the spans sit at the layer boundaries, as seen
from the benchmark.

`core` is deliberately not wrapped: `best_in` and `Preference(...)` run
millions of times per task at well under a microsecond each, so a span there
would time the tracer. Core's cost shows up in its callers' self time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (layer, function) pairs that get a span; the layer is the defining module
TRACED = (
    ("identify", "is_identified"),
    ("identify", "rank"),
    ("identify", "mobius_vector"),
    ("stochastic", "rcr_from_distribution"),
    ("stochastic", "mobius_inverse"),
    ("stochastic", "validate_rcr"),
    ("stochastic", "flow_conservation_check"),
    ("stochastic", "sample_empirical_rule"),
    ("decompose", "recover_distribution"),
    ("decompose", "is_edge_decomposable"),
    ("decompose", "extend_edge_decomposable"),
    ("flowgraph", "build_diagram"),
    ("flowgraph", "directed_spanning_tree"),
    ("flowgraph", "preference_basis"),
    ("families", "carum_recover"),
    ("families", "scrum_order_exists"),
    ("documents", "load_model"),
    ("documents", "save_model"),
    ("documents", "load_choice_data"),
    ("documents", "save_choice_data"),
    ("documents", "load_distribution"),
    ("cli", "main"),
)


def _count_draws(counts, args, result):
    counts["stochastic.draws"] += result.trials * ((1 << result.rule.universe.n) - 1)


def _count_peel(counts, args, result):
    model = args[0]
    peeled = len(result.witness) if result.decomposable else len(model) - len(result.stuck)
    counts["decompose.peel_steps"] += peeled


def _count_recovery(counts, args, result):
    counts["decompose.residual_entries"] += len(result.residual)
    counts["decompose.exact_reports"] += result.status.value == "exact"


def _count_orders(counts, args, result):
    counts["families.orders_checked"] += result.orders_checked


def _count_read(counts, args, result):
    counts["documents.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, result):
    counts["documents.bytes_written"] += os.path.getsize(args[1])


def _count_exit(counts, args, result):
    counts[f"cli.exit_{result}"] += 1


# counters read off a returned value, at the same boundary as the span
COUNTERS = {
    "stochastic.sample_empirical_rule": _count_draws,
    "decompose.is_edge_decomposable": _count_peel,
    "decompose.recover_distribution": _count_recovery,
    "families.scrum_order_exists": _count_orders,
    "documents.load_model": _count_read,
    "documents.load_choice_data": _count_read,
    "documents.load_distribution": _count_read,
    "documents.save_model": _count_written,
    "documents.save_choice_data": _count_written,
    "cli.main": _count_exit,
}


class Tracer:
    """Records spans for the TRACED functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, task id]
        self.counts: dict[str, int] = defaultdict(int)
        self.task_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.task_id])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "rumkit" or key.startswith("rumkit.")]
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"rumkit.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; one thread runs everything, so children nest inside parents.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {
            f"{layer}.{fname}": {"calls": 0, "s": 0.0, "self_s": 0.0} for layer, fname in TRACED
        }
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
