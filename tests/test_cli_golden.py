"""Golden CLI output: stdout, stderr, exit code and written files, pinned.

Every command in BATTERY runs in text and then with --json, in one working
folder, with relative paths, so later commands read what earlier ones wrote
and the recorded bytes do not depend on where the suite runs. The expected
results live in tests/data/cli_golden.json. Regenerate them only for an
intended output change, from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rumkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

MODEL_FIXTURES = ("fishburn", "double-cover", "shadowed-triple", "no-single-crossing")
DISTRIBUTION_FIXTURES = ("fishburn-nu1", "fishburn-nu2")

# masses 1/15 .. 5/15 over the Latin square of a,b,c,d,e (its five rotations)
LATIN_DISTRIBUTION = {
    "kind": "distribution",
    "version": 1,
    "alternatives": ["a", "b", "c", "d", "e"],
    "masses": {
        "a>b>c>d>e": "1/15",
        "b>c>d>e>a": "2/15",
        "c>d>e>a>b": "1/5",
        "d>e>a>b>c": "4/15",
        "e>a>b>c>d": "1/3",
    },
}

BATTERY: list[list[str]] = [
    *(
        ["fixtures", "--name", name, "--out", f"{name}.json"]
        for name in MODEL_FIXTURES + DISTRIBUTION_FIXTURES
    ),
    *(
        command
        for name in MODEL_FIXTURES
        for command in (
            ["check-identified", "--model", f"{name}.json", "--certificate"],
            ["check-edge-decomposable", "--model", f"{name}.json", "--witness"],
            ["extend", "--model", f"{name}.json", "--out", f"{name}-ext.json"],
        )
    ),
    ["bound", "-n", "9"],
    ["bound", "-n", "2000"],
    ["max-basis", "-n", "6", "--out", "basis6.json"],
    ["check-identified", "--model", "basis6.json"],
    ["check-edge-decomposable", "--model", "basis6.json", "--witness"],
    ["latin-square", "--order", "a,b,c,d,e", "--out", "ls5.json"],
    ["generate", "--model", "ls5.json", "--dist", "ls5-nu.json", "--out", "ls5-rule.json"],
    ["carum-recover", "--data", "ls5-rule.json"],
    ["mobius", "--data", "ls5-rule.json", "--check-flow"],
    ["recover", "--model", "ls5.json", "--data", "ls5-rule.json"],
    [
        "generate", "--model", "ls5.json", "--dist", "ls5-nu.json",
        "--out", "ls5-sample.json", "--samples", "50", "--seed", "3",
    ],
    ["recover", "--model", "ls5.json", "--data", "ls5-sample.json"],
    ["recover", "--model", "ls5.json", "--data", "ls5-sample.json", "--tolerance", "1/2"],
    ["carum-recover", "--data", "ls5-sample.json"],
    [
        "generate", "--model", "fishburn.json", "--dist", "fishburn-nu1.json",
        "--out", "fishburn-rule.json",
    ],
    ["mobius", "--data", "fishburn-rule.json"],
    ["recover", "--model", "fishburn.json", "--data", "fishburn-rule.json"],
    ["carum-recover", "--data", "fishburn-rule.json"],
    ["scrum-max", "-n", "4", "--out", "scrum4.json"],
    ["scrum-max", "-n", "4", "--order", "d,c,b,a", "--out", "scrum4-rev.json"],
    ["check-single-crossing", "--model", "scrum4.json", "--order", "a,b,c,d"],
    ["check-single-crossing", "--model", "scrum4.json", "--order", "b,a,c,d"],
    ["check-single-crossing", "--model", "scrum4.json", "--search-order"],
    ["check-single-crossing", "--model", "no-single-crossing.json", "--search-order"],
]


def _snapshot() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in Path().iterdir() if p.is_file()}


def run_battery() -> list[dict]:
    """Run BATTERY in the current folder; one record per command and mode."""
    Path("ls5-nu.json").write_text(json.dumps(LATIN_DISTRIBUTION), encoding="utf-8")
    records = []
    for command in BATTERY:
        for argv in (command, command + ["--json"]):
            if "--out" in argv:
                Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)
            before = _snapshot()
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            after = _snapshot()
            records.append({
                "argv": argv,
                "code": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "files": {
                    name: text for name, text in sorted(after.items())
                    if before.get(name) != text
                },
            })
    return records


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    # main shares one parser across calls, so a second pass in the same
    # process must read nothing the first left behind in it (the
    # --order/--search-order group, the --json default)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        actual = run_battery()
        assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
        for got, want in zip(actual, expected):
            assert got == want, f"{run} pass: " + " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        home = os.getcwd()
        os.chdir(folder)
        try:
            records = run_battery()
        finally:
            os.chdir(home)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
