"""atsa benchmark: one command that runs a workload, checks every output and
prints every metric with its unit and sample count.

    python3 perfbench/run.py --workload inproc-mix --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports atsa from ``src/`` of that
checkout and from nowhere else, and binds itself and the stub peer it
starts to one CPU. Workloads are described in ``workloads.py`` and in
``BENCHMARK.json``. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` every second block of the run is
traced and the result holds the per-layer metrics and the tracing overhead.
The last line of standard output is the result as one JSON object. The
lines before it give the run's environment and the same figures for
people, plus the p99 of allowed and denied invokes and the failed share.
The result, and the spans of a traced run, are also written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "allowed_p50_us": "us",
    "denied_p50_us": "us",
    "ops_per_s": "1/s",
    "audit_verify_records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = (
    ("us_p50", "us"),
    ("us_per_record", "us"),
    ("_us", "us"),
    (".share", "fraction"),
    (".s", "s"),
    (".failed", "count"),
    (".errors", "count"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio"


def percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the root."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown: not a git checkout"


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code under test when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(SRC_DIR, "atsa")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def pin_to_one_cpu() -> tuple[int, int]:
    """Bind this process, and so the children it starts, to one of its CPUs.

    The closed loop never runs the client and the stub peer at once, and on
    a virtual machine a wake-up that crosses to an idle vCPU costs tens of
    microseconds that vary with the load on the host. Returns the number of
    CPUs the process had and the one it keeps."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def environment(args: argparse.Namespace, nproc: int, cpu: int) -> dict[str, object]:
    import cryptography

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "network": (
            "127.0.0.1 loopback only: the stub peer child is the one remote party"
            if args.workload == "loopback-durable"
            else "none: fetcher and transport are in process"
        ),
    }


def import_seconds(repeats: int) -> float:
    """Median time to import the package, each time in a fresh interpreter
    that is waited for."""
    code = "from time import perf_counter_ns as t; s = t(); import atsa.cli, atsa.conformance; print(t() - s)"
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    runs = [
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
        for _ in range(repeats)
    ]
    return statistics.median(int(run.stdout) / 1e9 for run in runs)


def end_to_end(run, import_s: float) -> dict[str, tuple[float, int]]:
    """Each timing over the run's fastest stretches for it: windows of
    consecutive invokes, verify passes, campaigns (see ``workloads``)."""
    from workloads import fastest, fastest_windows, invokes_per_s

    allowed_windows, denied_windows = fastest_windows(run.calls, True), fastest_windows(run.calls, False)
    allowed = [run.calls.ns[i] for window in allowed_windows for i in window if run.calls.keys[i] & 1]
    denied = [run.calls.ns[i] for window in denied_windows for i in window if not run.calls.keys[i] & 1]
    if run.campaigns:
        work = fastest(run.campaigns)
        ops_per_s = (sum(n for n, _ in work) * 1e9 / sum(ns for _, ns in work), sum(n for n, _ in work))
    else:
        ops_per_s = invokes_per_s(run.calls, allowed_windows, denied_windows)
    verify = fastest(run.verify_passes)
    return {
        "setup_s": (import_s + statistics.median(run.setup_s), len(run.setup_s)),
        "allowed_p50_us": (percentile(allowed, 0.50) / 1e3, len(allowed)),
        "denied_p50_us": (percentile(denied, 0.50) / 1e3, len(denied)),
        "ops_per_s": ops_per_s,
        "audit_verify_records_per_s": (
            sum(n for n, _ in verify) * 1e9 / sum(ns for _, ns in verify),
            sum(n for n, _ in verify),
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def tails(run) -> dict[str, tuple[float, int]]:
    """p99 over every untraced invoke of the run. Printed, not part of the
    result: on a 2-vCPU host its run-to-run spread is wider than any bound
    the result may carry."""
    allowed = run.calls.allowed_ns()
    denied = [ns for key, ns in zip(run.calls.keys, run.calls.ns) if not key & 1]
    return {
        "allowed_p99_us": (percentile(allowed, 0.99) / 1e3, len(allowed)),
        "denied_p99_us": (percentile(denied, 0.99) / 1e3, len(denied)),
    }


def per_layer(run) -> dict[str, tuple[float, int]]:
    from tracer import layer_metrics

    metrics = layer_metrics(run.tracer)
    untraced, traced = run.calls.allowed_ns(), run.traced_calls.allowed_ns()
    off = percentile(untraced, 0.50) / 1e3
    on = percentile(traced, 0.50) / 1e3
    metrics["trace.untraced_allowed_p50_us"] = (off, len(untraced))
    metrics["trace.traced_allowed_p50_us"] = (on, len(traced))
    metrics["trace.overhead_us"] = (on - off, len(traced))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("inproc-mix", "loopback-durable", "campaign-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC_DIR, "atsa", "__init__.py")):
        print(f"error: no atsa sources under {SRC_DIR}; run from a checkout of the repository", file=sys.stderr)
        return 2

    # A SIGTERM unwinds through every finally block, so the stub peer child
    # is stopped however the run ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc, cpu = pin_to_one_cpu()
    sys.path.insert(0, SRC_DIR)
    import atsa
    import workloads
    if os.path.dirname(os.path.abspath(atsa.__file__)) != os.path.join(SRC_DIR, "atsa"):
        print(f"error: atsa was imported from {atsa.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    from tracer import Tracer

    results_dir = os.path.join(BENCH_DIR, "results")
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    run = workloads.Run(Tracer() if args.trace else None)
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, args.seconds, workdir, SRC_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(run) if args.trace else end_to_end(run, import_seconds(workloads.SETUP_REPEATS))
    env = environment(args, nproc, cpu)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if run.tracer is not None:
        run.tracer.write(stem + ".spans.tsv")

    units = {name: (END_TO_END_UNITS[name] if not args.trace else layer_unit(name)) for name in metrics}
    failed_share = run.failed / run.attempted if run.attempted else 1.0
    printed = {
        **{name: (value, units[name], samples) for name, (value, samples) in metrics.items()},
        **({} if args.trace else {name: (value, "us", n) for name, (value, n) in tails(run).items()}),
        "failed_share": (failed_share, "fraction", run.attempted),
    }
    print(f"# environment {json.dumps(env)}")
    for name, (value, unit, samples) in printed.items():
        print(f"{name:<44} {value:>14.4f} {unit:<9} n={samples}")
    for problem in run.problems:
        print(f"# failure: {problem}")

    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "environment": env,
                "printed": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in printed.items()},
                "problems": run.problems,
                **result,
            },
            handle,
            indent=2,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
