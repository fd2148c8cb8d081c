"""Test of the benchmark itself: two traced runs at one seed must give
identical counts, and BENCHMARK.json must name exactly the metrics that
run.py prints.

Usage, from the repository root:

    python3 perfbench/count_stability.py [--seed N] [WORKLOAD ...]

Exits 1 and names the differing counts when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS
from tracer import PER_LAYER_UNITS, STABLE_COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in STABLE_COUNTS}


def declared(section: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()

    failures = []
    if declared("end_to_end") != END_TO_END_UNITS:
        failures.append("BENCHMARK.json end_to_end differs from run.py")
    if declared("per_layer") != PER_LAYER_UNITS:
        failures.append("BENCHMARK.json per_layer differs from tracer.py")
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        print(f"{workload}: {json.dumps(first)}")
        failures += [f"{workload} {name}: {first[name]} != {second[name]}"
                     for name in STABLE_COUNTS if first[name] != second[name]]
    for failure in failures:
        print("FAIL", failure)
    print("counts stable" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
