#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against a changed one.

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
PARENT_DIR and in CHANGE_DIR, one pair per seed (S, S + 1, ...). The side that
runs first alternates from pair to pair, so a drift in host speed falls on
both sides alike. Each run uses its own checkout's sources, and its own
fresh, empty bytecode cache (``PYTHONPYCACHEPREFIX``), removed after it: no
run reads a ``__pycache__`` that a checkout happens to hold, or one an
earlier run wrote, so import time, part of ``setup_s``, is the same work on
both sides. That work includes compiling every module the run imports, the
standard library's too, so ``setup_s`` here reads higher than in a run of
``perfbench/run.py`` with warm caches.

The result is written as JSON under the workload's name in ``--out``; other
workloads already in that file are kept. For each end-to-end metric of
PARENT_DIR's ``BENCHMARK.json`` it holds the median and quartiles of each
side, the change over the parent, and in how many pairs the change was
better. Every run is kept under ``runs``, in the order the runs were made.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload inproc-mix --pairs 10 --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence


def read_result(stdout: str) -> dict[str, Any]:
    """The run's result: the JSON object on the last line of its output, with
    each metric flattened to its value."""
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {key: result[key] for key in ("correct", "failed", "attempted")} | metrics


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: Sequence[tuple[dict[str, Any], dict[str, Any]]], metrics: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Per metric, the (parent, change) runs of ``pairs`` summed up. ``metrics``
    are ``BENCHMARK.json``'s end-to-end entries: name, better and bound.
    ``worse_by`` is the change's relative move in the metric's worse direction."""
    summary: dict[str, Any] = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run[name] for run, _ in pairs]
        change = [run[name] for _, run in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
        ratio = cm / pm
        summary[name] = {
            "parent_median": round(pm, 4),
            "parent_q1_q3": [round(p1, 4), round(p3, 4)],
            "change_median": round(cm, 4),
            "change_q1_q3": [round(c1, 4), round(c3, 4)],
            "change_over_parent": round(ratio, 4),
            "change_better_pairs": f"{wins}/{len(pairs)}",
            "worse_by": round(ratio - 1 if lower else 1 - ratio, 4),
            "bound": metric["bound"],
        }
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, Any]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        environment = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True, env=environment)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed in {checkout}:\n{completed.stderr}")
    return read_result(completed.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write the workload's result into")
    args = parser.parse_args()
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs, pairs = [], []
    for pair in range(args.pairs):
        seed = args.seed + pair
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {}
        for side in sides:
            results[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs.append({"pair": pair, "seed": seed, "side": side, **results[side]})
            print(f"pair {pair} seed {seed} {side}: {json.dumps(results[side])}", file=sys.stderr)
        pairs.append((results["parent"], results["change"]))

    document = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    document[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S --seconds {args.seconds} --trace 0",
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "host": f"{platform.machine()} {platform.system()}, Python {platform.python_version()}",
        "summary": summarize(pairs, spec["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
