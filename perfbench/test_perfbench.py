"""The benchmark's own tests: `python3 -m pytest perfbench`.

Smoke mode runs each workload for one cycle at n <= 5, untraced and traced,
in a few seconds; every metric must come out with its unit and every answer
check must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_s.p50": "s", "task_s.p90": "s",
    "yes_s.p50": "s", "no_s.p50": "s", "peak_rss_mib": "MiB",
}
PER_LAYER = [
    "identify.is_identified.self_s", "identify.is_identified.calls",
    "identify.rank.s", "identify.rank.calls", "identify.mobius_vector.s",
    "identify.mobius_vector.calls", "identify.screen_hit_ratio",
    "stochastic.rcr_from_distribution.s", "stochastic.rcr_from_distribution.calls",
    "stochastic.mobius_inverse.s", "stochastic.mobius_inverse.calls",
    "stochastic.validate_rcr.s", "stochastic.flow_conservation_check.s",
    "stochastic.sample_empirical_rule.s", "stochastic.draws",
    "decompose.recover_distribution.self_s", "decompose.is_edge_decomposable.s",
    "decompose.is_edge_decomposable.calls", "decompose.extend_edge_decomposable.self_s",
    "decompose.peel_steps", "decompose.residual_entries", "decompose.exact_ratio",
    "flowgraph.build_diagram.s", "flowgraph.directed_spanning_tree.s",
    "flowgraph.preference_basis.s",
    "families.carum_recover.self_s", "families.scrum_order_exists.s", "families.orders_checked",
    "documents.load_model.s", "documents.save_model.s", "documents.load_choice_data.s",
    "documents.save_choice_data.s", "documents.load_distribution.s",
    "documents.bytes_read", "documents.bytes_written",
    "cli.main.self_s", "cli.stdout_bytes", "cli.exit_0", "cli.exit_1", "cli.exit_2",
    "failed_ratio", "trace.overhead_ratio",
]


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric_and_passes_every_check(workload, trace):
    proc = bench("--smoke", "--workload", workload, "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace:
        assert sorted(units) == sorted(PER_LAYER)
        assert all(units.values())
    else:
        assert units == END_TO_END
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_screen_hits_exactly_the_yes_tasks():
    proc = bench("--smoke", "--workload", "identify", "--trace", "1")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    yes = sum(count for kind, _, count in workloads.IDENTIFY_SMOKE if not kind.startswith("no"))
    total = sum(count for _, _, count in workloads.IDENTIFY_SMOKE)
    assert metrics["identify.screen_hit_ratio"]["value"] == yes / total


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "identify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
