"""``scripts/bench_pairs.py`` sums up alternating parent/change benchmark
runs. Its reading of a run's output, its summary and the bytecode cache each
run gets are checked here on canned result lines, without running a
benchmark."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
METRICS = [
    {"name": "allowed_p50_us", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    return bench_pairs


def _output(allowed: float, ops: float) -> str:
    """What ``perfbench/run.py`` prints: lines for people, then the result."""
    metrics = {"allowed_p50_us": {"value": allowed, "unit": "us"}, "ops_per_s": {"value": ops, "unit": "1/s"}}
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": metrics}
    return f'# environment {{"workload": "inproc-mix"}}\nallowed_p50_us {allowed} us n=9\n{json.dumps(result)}\n'


def test_a_result_line_is_read_flat(bench_pairs):
    assert bench_pairs.read_result(_output(61.5, 900.0)) == {
        "correct": True, "failed": 0, "attempted": 12, "allowed_p50_us": 61.5, "ops_per_s": 900.0,
    }


def test_the_summary_counts_wins_in_each_metric_direction(bench_pairs):
    parent = [(60, 100), (62, 100), (58, 100), (64, 100)]
    change = [(30, 200), (31, 100), (70, 90), (29, 300)]
    pairs = [
        (bench_pairs.read_result(_output(*p)), bench_pairs.read_result(_output(*c))) for p, c in zip(parent, change)
    ]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["allowed_p50_us"] == {
        "parent_median": 61.0,
        "parent_q1_q3": [59.5, 62.5],
        "change_median": 30.5,
        "change_q1_q3": [29.75, 40.75],
        "change_over_parent": 0.5,
        "change_better_pairs": "3/4",
        "worse_by": -0.5,
        "bound": 0.25,
    }
    ops = summary["ops_per_s"]
    assert (ops["change_median"], ops["change_better_pairs"], ops["worse_by"]) == (150.0, "2/4", -0.5)


def test_one_pair_has_its_own_values_as_quartiles(bench_pairs):
    pairs = [(bench_pairs.read_result(_output(60, 100)), bench_pairs.read_result(_output(66, 100)))]
    summary = bench_pairs.summarize(pairs, METRICS)["allowed_p50_us"]
    assert summary["parent_q1_q3"] == [60, 60] and summary["worse_by"] == pytest.approx(0.1)
    assert summary["change_better_pairs"] == "0/1"


def test_each_run_gets_its_own_empty_bytecode_cache(bench_pairs, monkeypatch, tmp_path):
    seen = []

    def run(command, **kwargs):
        cache = Path(kwargs["env"]["PYTHONPYCACHEPREFIX"])
        seen.append((cache, sorted(cache.iterdir())))
        (cache / "perfbench").mkdir()  # what a run that writes bytecode leaves
        return subprocess.CompletedProcess(command, 0, stdout=_output(60, 100), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for _ in range(2):
        assert bench_pairs.run_once(tmp_path, "inproc-mix", 1, 1)["allowed_p50_us"] == 60
    (first, first_listing), (second, second_listing) = seen
    assert first != second
    assert first_listing == second_listing == []
    assert not first.exists() and not second.exists()
