#!/usr/bin/env python3
"""Multi-seed adversarial campaign experiment.

Generates the seeded evasion corpus at several seeds, runs each against a
fully wired gateway, and prints a per-seed summary plus an overall verdict.
Any admission, network write, or off-target denial fails the run.

Run: python3 scripts/run_campaign.py --seeds 1,2,3 --per-category 200
"""

from __future__ import annotations

import argparse
import sys
import time

from atsa import generate_corpus, run_campaign


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated corpus seeds")
    parser.add_argument("--per-category", type=int, default=200)
    parser.add_argument(
        "--allowlist",
        default="list_labels,create_draft",
        help="comma-separated exact tool names under test",
    )
    parser.add_argument("--verbose", action="store_true", help="print full per-seed reports")
    args = parser.parse_args()

    seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    allowlist = [name.strip() for name in args.allowlist.split(",") if name.strip()]
    if not seeds or not allowlist:
        parser.error("need at least one seed and one allowlisted name")

    print(f"allowlist: {allowlist}  per-category: {args.per_category}")
    print(f"{'seed':>6} {'cases':>7} {'tools':>7} {'forged':>7} "
          f"{'admitted':>8} {'writes':>7} {'mismatch':>8} {'secs':>6}  verdict")

    all_passed = True
    for seed in seeds:
        started = time.monotonic()
        cases = generate_corpus(seed, allowlist, args.per_category)
        report = run_campaign(cases, seed=seed, allowlist=allowlist)
        elapsed = time.monotonic() - started
        verdict = "PASS" if report.passed else "FAIL"
        all_passed = all_passed and report.passed
        print(f"{seed:>6} {len(cases):>7} {report.tool_cases:>7} {report.assertion_cases:>7} "
              f"{report.admitted:>8} {report.network_writes:>7} {len(report.mismatches):>8} "
              f"{elapsed:>6.2f}  {verdict}")
        if args.verbose or not report.passed:
            print(report.render_text())

    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
