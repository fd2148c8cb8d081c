"""Seconds per stage of the benchmark's taxonomy pass at m = 2, 3.

Every item of the taxonomy workload (``perfbench/workloads.py``'s
``_taxonomy_calls`` at m = 2 and 3) is built by its solver call, and each
branch it yields is put through ``residual_scan``, ``first_integral_drift``
and ``ode_oracle``, as the workload's items are.  The last stage, ``span``,
reads each branch's span, which the workload's items do not; where the
span is integrated on its first read, its seconds show there.  A round
sums each stage's ``time.perf_counter`` seconds over the items; the
script prints, per stage, the best and worst of ``--rounds`` rounds after
one warm-up round, and, from the warm-up round, the stage's passes of
the 21-point rule (``quadpack._rule``, one array call each) and the
oracle's totals of ``rhs_evals``, ``steps`` and ``rejected_steps``.  The
counts do not depend on the machine:

    python3 tools/stage_split.py --rounds 5
    python3 tools/stage_split.py --root /path/to/other/checkout

``--root`` names the checkout whose ``src`` is imported (default: the one
this script is in); the item list comes from this checkout's
``perfbench/workloads.py``.  The seconds are raw, so compare two trees
run on one host, one after the other, not with the benchmark's reference
seconds.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
STAGES = ("solve", "residual_scan", "first_integral_drift", "ode_oracle",
          "span")
WORK = ("rhs_evals", "steps", "rejected_steps")


def one_round(lwsurf, workloads, passes=lambda: 0) -> tuple:
    """``(seconds, rules, work)``: the seconds and the rule passes (the
    differences of ``passes()``) of each stage summed over the items, and
    the oracle's work counts summed over the branches."""
    seconds = dict.fromkeys(STAGES, 0.0)
    rules = dict.fromkeys(STAGES, 0)
    work = dict.fromkeys(WORK, 0)
    clock = time.perf_counter

    def run(stage, fn, *args):
        before, start = passes(), clock()
        out = fn(*args)
        seconds[stage] += clock() - start
        rules[stage] += passes() - before
        return out

    for m in (2, 3):
        p = lwsurf.NormParameter(m)
        for name, args, _ in workloads._taxonomy_calls(m):
            built = run("solve", getattr(lwsurf, name), p, *args)
            branches = built if isinstance(built, list) else [built]
            for b in branches:
                for stage in STAGES[1:-1]:
                    report = run(stage, getattr(lwsurf, stage), b)
                for key in WORK:
                    work[key] += report.details[key]
            for b in branches:
                run("span", getattr, b, "span")
    return seconds, rules, work


def counting(quadpack):
    """Wrap ``quadpack._rule``, which ``panels`` calls by its module name,
    with a counter; returns the function that reads the count and the
    one that puts the rule back."""
    rule, calls = quadpack._rule, [0]

    def counted(*args):
        calls[0] += 1
        return rule(*args)

    quadpack._rule = counted
    return (lambda: calls[0]), (lambda: setattr(quadpack, "_rule", rule))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE,
                    help="checkout whose src/ is imported")
    ap.add_argument("--rounds", type=int, default=5,
                    help="timed rounds after the warm-up round")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.path.insert(0, str(args.root.resolve() / "src"))
    sys.path.insert(0, str(HERE / "perfbench"))
    import lwsurf
    import lwsurf.quadpack
    import workloads

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        passes, restore = counting(lwsurf.quadpack)
        _, rules, work = one_round(lwsurf, workloads, passes)
        restore()
        rounds = [one_round(lwsurf, workloads)[0]
                  for _ in range(args.rounds)]
    for stage in STAGES:
        times = [r[stage] for r in rounds]
        print(f"{stage:<21} {min(times):.4f} {max(times):.4f} s "
              f"{rules[stage]:>5} rule passes")
    print(" ".join(f"{key} {work[key]}" for key in WORK))
    return 0


if __name__ == "__main__":
    sys.exit(main())
