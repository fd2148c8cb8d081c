"""lwsurf benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {taxonomy,sweep,cli} --seed N \\
        --seconds S --trace {0,1}

``--workload all`` runs the three in turn and prints one table of their
metrics instead of a result line.

Each workload is a closed loop: one process, one item at a time.  A run
measures set-up, then makes ``S // pass_s`` passes over the seed's items,
and at least two; ``pass_s`` is the workload's nominal pass time (see
``workloads.py``).  The number of passes is fixed by the arguments, not by
the clock, so one seed always gives the same ``attempted`` and ``failed``.

A shared host's speed can drift by tens of percent within a second, so
every time below is taken at reference speed by ``speed.Probe``: a fixed
reference task is timed before and after each item and every 25 ms
during it (inside the lwsurf subprocess for ``cli``), and the item's time
is rescaled to a host on which the task takes ``speed.REFERENCE_S``.  An
item's latency is the median over the passes.  The provenance line keeps
the raw pass times.  With ``--trace 0`` the last line holds the
end-to-end metrics:

* ``setup_s``: median of five cold ``import lwsurf.cli`` in fresh
  interpreters (after one discarded import that compiles the bytecode),
  each run through ``cli_child.py`` so the probe runs inside it.
* ``wall_s``: one pass, as the sum of the item latencies.
* ``item_p50_s``, ``item_tail_s``: the median item latency, and the
  tail at the nearest-rank 90th percentile, or the highest one with at
  least five items beyond it when a pass has fewer than 50 items, but
  never below the median.  Where every seed has the same items
  (``taxonomy``, ``cli``), the tail is the mean latency of the items at
  or beyond that rank, which evens out the timing noise of single items;
  where the seed draws them (``sweep``), it is the item at that rank, so
  the seed's rare slow draws do not move it.  The percentile and the
  number of items are in the provenance line.
* ``ok_frac``: items that did not fail over items attempted, so
  ``1 - failed/attempted``; unlike a failure share it is never 0.
* ``peak_rss_mb``: peak resident memory of this process, or for ``cli``
  of the largest lwsurf subprocess.

With ``--trace 1`` the run adds one traced pass after the untraced ones and
prints the per-layer metrics of ``tracer.py`` instead, with the tracing
overhead as the traced pass time minus the median untraced pass time.
Spans go to ``perfbench/out/spans-<workload>-<seed>.jsonl``.

``correct`` is false when an item fails in a way the seed commit does not
already show (see ``workloads.py``).  The benchmark exits 2 without a
result when the checkout has no ``src/lwsurf`` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

from speed import Probe
from tracer import PER_LAYER_UNITS, Tracer, import_times
from workloads import WORKLOADS, lwsurf_env, run_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s",
                    "item_tail_s": "s", "ok_frac": "1", "peak_rss_mb": "MB"}


def measure_setup(env: dict) -> float:
    run_child("import", [], OUT, env)  # compiles the bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        with Probe(timer=False) as probe:
            start = perf_counter()
            run_child("import", [], OUT, env, probe)
            raw = perf_counter() - start - probe.spent
        times.append(probe.scale(raw))
    return statistics.median(times)


def run_pass(workload, tracer=None) -> dict:
    """One pass; in-process items are probed here, cli items in the child."""
    workload.before_pass()
    latencies, raw_s, oks, correct = [], 0.0, [], True
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = index
        with Probe(timer=workload.in_process) as probe:
            start = perf_counter()
            ok, item_correct = workload.run_item(item, tracer, probe)
            raw = perf_counter() - start - probe.spent
        latencies.append(probe.scale(raw))
        raw_s += raw
        oks.append(ok)
        correct &= item_correct
    return {"wall": sum(latencies), "raw": raw_s, "latencies": latencies,
            "oks": oks, "correct": correct}


def tail_quantile(items: int) -> float:
    """0.9, or the highest quantile with at least five items beyond it when
    there are fewer than 50 items; never below the median.  The sweep's
    rarer draws change with the seed, so a higher quantile would measure
    the seed more than the program."""
    return max(0.5, min(0.9, 1.0 - 5.0 / items))


def tail(values: list, mean: bool) -> float:
    """The nearest-rank value at ``tail_quantile``, or with ``mean`` the
    mean of the values from that rank up."""
    ordered = sorted(values)
    q = tail_quantile(len(ordered))
    rank = max(1, math.ceil(q * len(ordered) - 1e-9)) - 1
    return statistics.fmean(ordered[rank:]) if mean else ordered[rank]


def provenance(args, passes: list, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lwsurf").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None  # a checkout without .git has only the source digest
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "passes": len(passes), "items_per_pass": len(workload.items),
            "tail_percentile": 100.0 * tail_quantile(len(workload.items)),
            "raw_pass_s": [p["raw"] for p in passes],
            "failed_by_pass": [p["oks"].count(False) for p in passes]}


def run_all(args) -> int:
    """Run every workload in its own process and print a metric table."""
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "lwsurf" / "__init__.py").is_file():
        print(f"no lwsurf sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(parents=True, exist_ok=True)
    env = lwsurf_env(ROOT)
    setup_s = measure_setup(env)

    sys.path.insert(0, str(SRC))
    import lwsurf

    if Path(lwsurf.__file__).resolve().parent != SRC / "lwsurf":
        print(f"lwsurf imported from {lwsurf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", lwsurf.IllConditionedWarning)

    workload = WORKLOADS[args.workload](ROOT, args.seed, OUT)
    if workload.warm_up_item is not None:
        workload.run_item(workload.warm_up_item)
    count = max(MIN_PASSES, int(args.seconds // workload.pass_s))
    passes = [run_pass(workload) for _ in range(count)]
    latency = [statistics.median(times)
               for times in zip(*(p["latencies"] for p in passes))]

    if args.trace:
        tracer = Tracer()
        if args.workload != "cli":
            tracer.install()
        traced = run_pass(workload, tracer)
        passes.append(traced)
        metrics = tracer.metrics()
        metrics.update(import_times(env))
        pass_s = statistics.median(p["wall"] for p in passes[:-1])
        metrics["trace.overhead_s"] = traced["wall"] - pass_s
        metrics["trace.overhead_frac"] = traced["wall"] / pass_s - 1.0
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF)
        metrics = {
            "setup_s": setup_s, "wall_s": sum(latency),
            "item_p50_s": statistics.median(latency),
            "item_tail_s": tail(latency, workload.tail_mean),
            "ok_frac": sum(p["oks"].count(True) for p in passes)
            / sum(len(p["oks"]) for p in passes),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    attempted = sum(len(p["oks"]) for p in passes)
    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": attempted,
        "failed": sum(p["oks"].count(False) for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    prov = provenance(args, passes, workload)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"provenance": prov, **result},
                                       indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
