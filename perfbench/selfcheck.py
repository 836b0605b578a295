"""Self-check of the benchmark: two traced runs of the same seed give
identical work counts and the same metric names and units, and those names
and units are the ones BENCHMARK.json lists.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [workload ...]

Exits 1 and names the difference when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" /
                         f"report-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        first, first_report = _run(workload, args.seed, args.seconds, 1)
        second, second_report = _run(workload, args.seed, args.seconds, 1)
        untraced, _ = _run(workload, args.seed, args.seconds, 0)
        for trace, result in ((1, first), (1, second), (0, untraced)):
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace {trace}: metric names or "
                                f"units differ from BENCHMARK.json")
        counts = [{n: m["value"] for n, m in r["metrics"].items()
                   if m["unit"] == "count"} for r in (first, second)]
        if counts[0] != counts[1]:
            diff = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
            problems.append(f"{workload}: counts differ between runs: {diff}")
        if first_report["work_per_pass"] != second_report["work_per_pass"]:
            problems.append(f"{workload}: work per pass differs between runs")
        print(f"{workload}: {len(counts[0])} counts, work per pass "
              f"{first_report['work_per_pass']}")
    for problem in problems:
        print(f"! {problem}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
