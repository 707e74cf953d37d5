"""rumkit benchmark: closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; rumkit is imported from its `src/`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
measured untraced; with `--trace 1` they are the per-layer ones, from
cycles that each run untraced and then traced on the same inputs, plus the
tracing overhead between the two.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"
MODULES = ("core", "stochastic", "flowgraph", "identify", "decompose", "families", "documents", "cli")
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_s.p50": "s", "task_s.p90": "s",
    "yes_s.p50": "s", "no_s.p50": "s", "peak_rss_mib": "MiB",
}

# per-layer metrics: (name, span name, span field) taken per task from the traced run
SPAN_METRICS = [
    ("identify.is_identified.self_s", "self_s"), ("identify.is_identified.calls", "calls"),
    ("identify.rank.s", "s"), ("identify.rank.calls", "calls"),
    ("identify.mobius_vector.s", "s"), ("identify.mobius_vector.calls", "calls"),
    ("stochastic.rcr_from_distribution.s", "s"), ("stochastic.rcr_from_distribution.calls", "calls"),
    ("stochastic.mobius_inverse.s", "s"), ("stochastic.mobius_inverse.calls", "calls"),
    ("stochastic.validate_rcr.s", "s"), ("stochastic.flow_conservation_check.s", "s"),
    ("stochastic.sample_empirical_rule.s", "s"),
    ("decompose.recover_distribution.self_s", "self_s"),
    ("decompose.is_edge_decomposable.s", "s"), ("decompose.is_edge_decomposable.calls", "calls"),
    ("decompose.extend_edge_decomposable.self_s", "self_s"),
    ("flowgraph.build_diagram.s", "s"), ("flowgraph.directed_spanning_tree.s", "s"),
    ("flowgraph.preference_basis.s", "s"),
    ("families.carum_recover.self_s", "self_s"), ("families.scrum_order_exists.s", "s"),
    ("documents.load_model.s", "s"), ("documents.save_model.s", "s"),
    ("documents.load_choice_data.s", "s"), ("documents.save_choice_data.s", "s"),
    ("documents.load_distribution.s", "s"),
    ("cli.main.self_s", "self_s"),
]
COUNT_METRICS = [
    "stochastic.draws", "decompose.peel_steps", "decompose.residual_entries",
    "families.orders_checked", "documents.bytes_read", "documents.bytes_written",
    "cli.stdout_bytes", "cli.exit_0", "cli.exit_1", "cli.exit_2",
]
RATIO_METRICS = ["identify.screen_hit_ratio", "decompose.exact_ratio", "failed_ratio", "trace.overhead_ratio"]


def layer_units() -> dict[str, str]:
    units = {name: ("calls/task" if field == "calls" else "s/task") for name, field in SPAN_METRICS}
    units.update({name: "count/task" for name in COUNT_METRICS})
    units.update({name: "ratio" for name in RATIO_METRICS})
    return units


def import_rumkit() -> SimpleNamespace:
    """A fresh import of every rumkit module, so that each set-up pays it."""
    for key in [k for k in sys.modules if k == "rumkit" or k.startswith("rumkit.")]:
        del sys.modules[key]
    return SimpleNamespace(**{name: importlib.import_module(f"rumkit.{name}") for name in MODULES})


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import plus building the first cycle's inputs, timed; repeated, and
    the median reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rk = import_rumkit()
        first = workloads.WORKLOADS[workload](rk, seed, 0, smoke, workdir)
        times.append(time.perf_counter() - start)

    def build(cycle: int):
        return workloads.WORKLOADS[workload](rk, seed, cycle, smoke, workdir)

    return build, first, statistics.median(times)


class Window:
    """Latencies and answers of the tasks run in one measured window."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.yes: list[bool] = []
        self.failed = 0
        self.cycles = 0

    def run_cycle(self, tasks, tracer=None) -> None:
        clock = time.perf_counter
        for task in tasks:
            if tracer is not None:
                tracer.task_id = len(self.latency)
            start = clock()
            try:
                outcome, error = task.run(), None
            except Exception as exc:  # a crash is a wrong answer; keep measuring
                outcome, error = None, exc
            self.latency.append(clock() - start)
            self.yes.append(task.yes)
            if error is not None:
                problem = "raised " + "".join(traceback.format_exception(error))
            else:
                stdout = getattr(outcome, "stdout", None)
                if tracer is not None and stdout is not None:
                    tracer.counts["cli.stdout_bytes"] += len(stdout.encode("utf-8"))
                try:
                    problem = task.check(outcome)
                except Exception as exc:  # malformed output is a wrong answer
                    problem = f"check raised {exc!r}"
            if problem:
                self.failed += 1
                print(f"{task.kind}: {problem}", file=sys.stderr)
        self.cycles += 1

    @property
    def busy_s(self) -> float:
        return sum(self.latency)


def run_for(build, first, seconds: float, min_tasks: int) -> Window:
    """Whole cycles until `seconds` have passed and `min_tasks` have run."""
    window = Window()
    start = time.perf_counter()
    tasks = first
    while True:
        window.run_cycle(tasks)
        if time.perf_counter() - start >= seconds and len(window.latency) >= min_tasks:
            return window
        tasks = build(window.cycles)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(window: Window, setup_s: float) -> dict[str, float]:
    yes = [t for t, y in zip(window.latency, window.yes) if y]
    no = [t for t, y in zip(window.latency, window.yes) if not y]
    return {
        "setup_s": setup_s,
        "tasks_per_s": len(window.latency) / window.busy_s,
        "task_s.p50": percentile(window.latency, 0.5),
        "task_s.p90": percentile(window.latency, 0.9),
        "yes_s.p50": percentile(yes, 0.5),
        "no_s.p50": percentile(no, 0.5),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: Window, untraced: Window) -> dict[str, float]:
    tasks = len(traced.latency)
    totals = tracer.totals()
    metrics = {}
    for name, field in SPAN_METRICS:
        span = name.rsplit(".", 1)[0]
        metrics[name] = totals[span][field] / tasks
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts.get(name, 0) / tasks
    identified = totals["identify.is_identified"]["calls"]
    ranked = totals["identify.rank"]["calls"]
    metrics["identify.screen_hit_ratio"] = (identified - ranked) / identified if identified else 0.0
    recovered = totals["decompose.recover_distribution"]["calls"]
    metrics["decompose.exact_ratio"] = tracer.counts.get("decompose.exact_reports", 0) / recovered if recovered else 0.0
    metrics["failed_ratio"] = (traced.failed + untraced.failed) / (tasks + len(untraced.latency))
    traced_rate = tasks / traced.busy_s
    untraced_rate = len(untraced.latency) / untraced.busy_s
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate
    return metrics


def environment() -> dict:
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return {
        "python": sys.version.split()[0],
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg()[0],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        build, first, setup_s = setup(workload, seed, smoke, workdir)
        min_tasks = 0 if smoke else workloads.MIN_TASKS[workload]
        if not trace:
            window = run_for(build, first, seconds, min_tasks)
            attempted, failed = len(window.latency), window.failed
            metrics = end_to_end(window, setup_s)
            units = E2E_UNITS
        else:
            untraced, traced = Window(), Window()
            tracer = Tracer()
            start = time.perf_counter()
            # each cycle runs untraced and then traced, on the same inputs, so
            # drift in the machine's speed hits both sides of the overhead alike
            while not untraced.cycles or time.perf_counter() - start < seconds:
                cycle = untraced.cycles
                untraced.run_cycle(first if cycle == 0 else build(cycle))
                tracer.install()
                try:
                    tracer.task_id = -1  # spans made while building inputs
                    traced.run_cycle(build(cycle), tracer)
                finally:
                    tracer.restore()
            tracer.write(str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"))
            attempted = len(untraced.latency) + len(traced.latency)
            failed = untraced.failed + traced.failed
            metrics = per_layer(tracer, traced, untraced)
            units = layer_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="identify, recover, cli-lattice or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="n <= 5, one cycle: checks names and answers in seconds")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        # one process per workload, so that peak RSS stays per workload
        code = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            print(f"{name}: {result}")
            code = code or proc.returncode
        return code
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        source = Path(importlib.import_module("rumkit").__file__).resolve()
    except ImportError as exc:
        print(f"cannot import rumkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not source.is_relative_to(ROOT / "src"):
        print(f"rumkit was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    seconds = 0 if args.smoke else args.seconds
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), smoke=args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
