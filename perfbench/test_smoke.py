"""Smoke run of the benchmark: every workload at a tiny size, untraced and
traced. It checks the output contract, not performance.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess[str]:
    command = [sys.executable, *SPEC["command"][1:]]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(workload: str, trace: int) -> None:
    completed = run_benchmark(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == declared
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
    else:
        assert values["gateway.transport.calls_per_denied"] == 0
        assert values["gateway.transport.calls_per_allowed"] == 1
        assert values["audit.records_per_op"] == 1
    for name in values:
        assert any(line.startswith(name + " ") and " n=" in line for line in completed.stdout.splitlines())


def test_refuses_to_run_without_the_package_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    completed = run_benchmark(tmp_path, WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
