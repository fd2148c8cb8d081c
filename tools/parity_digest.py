"""SHA-256 digests of everything the verifiers and table builders produce.

A change that must not move a single output byte is checked by running
this script on a copy of the parent commit and on the change, and
comparing the printed lines:

    mkdir /tmp/parent
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/parity_digest.py --root /tmp/parent 401 402
    python3 tools/parity_digest.py 401 402

Each line is one group and its digest:

* ``taxonomy``: one instance of every table-bearing case tag at m = 1..6
  (the benchmark's taxonomy calls), all three verifiers;
* ``spheres``: the sphere of ``solve_constant_k2`` and the three spheres
  of ``solve_inhom_general`` at m = 4, 5, 6, all three verifiers;
* ``sweep-SEED``: every draw of the benchmark's sweep at that seed,
  ``residual_scan`` and ``first_integral_drift`` on every branch;
* ``cli``: the bytes ``lwsurf generate`` and ``lwsurf verify`` print and
  write for the cli workload's ``sphere.csv`` and ``prof.csv``;
* ``assemblies``: the bytes ``lwsurf generate --recipe`` and ``lwsurf
  scan-coincidence --recipe`` print and write at m = 2, 3 for every
  recipe at the constants of ``tests/test_assembler.py``'s
  ``RECIPE_PARAMS``, for three more caps (a band, ``mu = -0.9`` and a
  sphere piece), and for three inputs that raise ``GluingMismatch``.

A branch contributes the bytes of ``alpha``, ``u`` and ``du`` and the bits
of ``span``, ``quad_error`` and ``anchor``; a verifier its report as
``as_dict()`` JSON with sorted keys; a call that raises its exception type
and message.  ``--root`` names the checkout whose ``src`` is imported
(default: the one this script is in); the item lists come from this
checkout's ``perfbench/workloads.py`` and ``tests/test_assembler.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _outcome(call) -> str:
    """The JSON report of call(), or its exception type and message."""
    try:
        return json.dumps(call().as_dict(), sort_keys=True)
    except Exception as exc:  # the digest records every failure
        return _error(exc)


def _branch_bytes(b, checks) -> bytes:
    parts = [b.case.value.encode(), b.alpha.tobytes(), b.u.tobytes(),
             b.du.tobytes(),
             " ".join(float(x).hex() for x in
                      (b.span, b.quad_error, *b.anchor)).encode()]
    parts += [_outcome(lambda c=c: c(b)).encode() for c in checks]
    return b"\0".join(parts)


def _solved(call, checks) -> list:
    """One entry per branch that call() builds, or one for its exception."""
    try:
        built = call()
    except Exception as exc:
        return [_error(exc).encode()]
    branches = built if isinstance(built, list) else [built]
    return [_branch_bytes(b, checks) for b in branches]


def _digest(entries) -> str:
    h = hashlib.sha256()
    for entry in entries:
        h.update(entry)
        h.update(b"\n")
    return h.hexdigest()


def taxonomy(lwsurf, workloads) -> str:
    checks = (lwsurf.residual_scan, lwsurf.first_integral_drift,
              lwsurf.ode_oracle)
    entries = []
    for m in range(1, 7):
        p = lwsurf.NormParameter(m)
        for name, args, _ in workloads._taxonomy_calls(m):
            entries += _solved(lambda: getattr(lwsurf, name)(p, *args),
                               checks)
    return _digest(entries)


def spheres(lwsurf) -> str:
    checks = (lwsurf.residual_scan, lwsurf.first_integral_drift,
              lwsurf.ode_oracle)
    entries = []
    for m in (4, 5, 6):
        p = lwsurf.NormParameter(m)
        entries += _solved(lambda: lwsurf.solve_constant_k2(p), checks)
        for lam, mu in ((0.5, -1.0), (-0.5, -1.0), (-2.0, 1.0)):
            entries += _solved(
                lambda: lwsurf.solve_inhom_general(p, lam, mu, 0.0), checks)
    return _digest(entries)


def sweep(lwsurf, workloads, seed: int) -> str:
    checks = (lwsurf.residual_scan, lwsurf.first_integral_drift)
    entries = []
    for m, lam, mu, c1 in workloads.Sweep(HERE, seed, HERE).items:
        entries.append(" ".join(float(x).hex()
                                for x in (m, lam, mu, c1)).encode())
        req = lwsurf.SolveRequest(
            p=lwsurf.NormParameter(m),
            relation=lwsurf.WeingartenRelation.linear(lam, mu), c1=c1)
        entries += _solved(lambda: lwsurf.solve(req), checks)
    return _digest(entries)


def _cli_digest(lwsurf_cli, calls) -> str:
    """Exit code, printed bytes and every file written, after each of the
    calls in turn, all run in one scratch folder; relative paths keep the
    printed bytes free of the folder's name."""
    entries = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in calls:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    code = lwsurf_cli.main(argv)
                entries.append(f"{argv} {code}\n{out.getvalue()}".encode())
                for name in sorted(os.listdir(work)):
                    entries.append(name.encode() + b"\0"
                                   + Path(work, name).read_bytes())
        finally:
            os.chdir(cwd)
    return _digest(entries)


def cli(lwsurf_cli, workloads) -> str:
    """The cli workload's generate and verify calls."""
    return _cli_digest(lwsurf_cli, [
        argv for group in workloads._cli_groups() for name, argv, _ in group
        if name in ("generate-sphere", "verify-sphere", "generate-4096",
                    "verify-4096")])


# (recipe, constants) beyond RECIPE_PARAMS: caps on a band between two
# simple roots, at a |mu| != 1 and on a sphere piece, which glue; C4 off
# its lam > 0 family, a torus that meets the axis and a cap without a
# simple-root piece, which raise GluingMismatch
_MORE_ASSEMBLIES = (
    ("cap", dict(lam=1.0, mu=-1.0, c1=0.3)),
    ("cap", dict(lam=1.0, mu=-0.9, c1=0.3)),
    ("cap", dict(lam=-2.0, mu=1.0, c1=0.0)),
    ("C4", dict(lam=-0.5, c1=0.8)),
    ("torus-4iii", dict(c1=0.8)),
    ("cap", dict(lam=-0.5, mu=1.0, c1=2.0)),
)


def assemblies(lwsurf_cli, recipe_params) -> str:
    """generate and scan-coincidence for every recipe input at m = 2, 3;
    the scan runs c1 over a range wide enough to skip rows."""
    flags = {"lam": "--lambda", "mu": "--mu", "c1": "--c1"}
    calls = []
    for m in (2, 3):
        for i, (name, params) in enumerate(
                [*recipe_params.items(), *_MORE_ASSEMBLIES]):
            given = [x for key, value in params.items()
                     for x in (flags[key], repr(value))]
            common = ["--recipe", name, "--m", str(m), "--samples", "128",
                      *given]
            c1 = params.get("c1", 0.0)
            calls += [["generate", *common, "--out", f"a{m}-{i}"],
                      ["scan-coincidence", *common,
                       "--c1-min", repr(c1 - 2.0), "--c1-max", repr(c1 + 2.0),
                       "--steps", "5"]]
    return _cli_digest(lwsurf_cli, calls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE,
                    help="checkout whose src/ is imported")
    ap.add_argument("seeds", type=int, nargs="*",
                    help="benchmark sweep seeds to digest")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    sys.path.insert(0, str(HERE / "perfbench"))
    sys.path.insert(0, str(HERE / "tests"))
    import lwsurf
    import lwsurf.cli
    import workloads
    from test_assembler import RECIPE_PARAMS

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        print("taxonomy", taxonomy(lwsurf, workloads))
        print("spheres", spheres(lwsurf))
        for seed in args.seeds:
            print(f"sweep-{seed}", sweep(lwsurf, workloads, seed))
        print("cli", cli(lwsurf.cli, workloads))
        print("assemblies", assemblies(lwsurf.cli, RECIPE_PARAMS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
