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
  sphere piece), and for three inputs that raise ``GluingMismatch``;
* ``plans``: ``solver._plan`` of the normalized request for 20,000
  seeded draws over a box wider than the sweep's: ``lam = -1`` exactly
  and near it, ``lam`` up to 250 either way, ``c1`` at 0, tiny, near
  +-750 and up to +-1e308, ``c1`` close to the critical ``c1`` and to
  the band threshold ``lam^lam/(lam+1)``, from the script's own formulas,
  and ``mu`` = +-1, 0 or general.

A branch contributes the bytes of ``alpha``, ``u`` and ``du`` and the bits
of ``span``, ``quad_error`` and ``anchor``; a verifier its report as
``as_dict()`` JSON with sorted keys; a call that raises its exception type
and message.  A plan contributes each piece's tag, ends, end kinds and
anchor, and the fields of its slope, floats as hex; then come the
warnings it raised, in order.  ``--root`` names the checkout whose
``src`` is imported (default: the one this script is in); the item lists
come from this checkout's ``perfbench/workloads.py`` and
``tests/test_assembler.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
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
            relation=lwsurf.WeingartenRelation(lam, mu), c1=c1)
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


def _threshold(lam: float) -> float:
    """The c1 at which a plan changes: the critical constant of the mu > 0
    family for lam < 0, and the band threshold lam^lam/(lam+1) otherwise;
    inf where a power overflows.  Written here, so the draws do not
    depend on the code under test."""
    w = -(lam + 1.0)
    try:
        if lam == -1.0:
            return 1.0
        if -1.0 < lam < 0.0:
            return 1.0 / ((lam + 1.0) * math.pow(-lam, -lam))
        if lam < -1.0:
            return -1.0 / (w * math.pow(w + 1.0, w + 1.0))
        return lam ** lam / (lam + 1.0)
    except OverflowError:
        return math.inf


def _plan_draws(n: int = 20000, seed: int = 2403) -> list:
    """(m, lam, mu, c1, c2) draws that reach every plan, its boundaries
    and its float-range limits.  Each draw takes the same random numbers
    whatever its values are."""
    rng = random.Random(seed)

    def sign() -> float:
        return rng.choice((1.0, -1.0))

    def log_uniform(lo: float, hi: float) -> float:
        return 10.0 ** rng.uniform(lo, hi)

    def c1_near(lam: float) -> float:
        """c1 within 1e-14 to 1e-1 relative of _threshold(lam), or
        uniform on (-5, 5) where that is not finite."""
        c = _threshold(lam) * (1.0 + sign() * log_uniform(-14.0, -1.0))
        other = rng.uniform(-5.0, 5.0)
        return c if math.isfinite(c) else other

    lams = (lambda: -1.0,
            lambda: -1.0 + rng.uniform(-1e-2, 1e-2),
            lambda: -1.0 + sign() * log_uniform(-14.0, -2.0),
            lambda: rng.uniform(-4.0, 3.0),
            lambda: sign() * log_uniform(-3.0, math.log10(250.0)),
            lambda: 0.0)
    draws = []
    for _ in range(n):
        m = rng.randint(1, 6)
        lam = rng.choice(lams)()
        r = rng.random()
        mu = (sign() if r < 0.7 else 0.0 if r < 0.75
              else sign() * log_uniform(-2.0, 2.0))
        c1 = rng.choice((
            lambda: 0.0,
            lambda: sign() * log_uniform(-320.0, -1.0),
            lambda: sign() * rng.uniform(700.0, 800.0),
            lambda: sign() * log_uniform(0.0, 308.0),
            lambda: rng.uniform(-5.0, 5.0),
            # twice as often: the plans change at these boundaries
            lambda: c1_near(lam),
            lambda: c1_near(lam)))()
        c2 = log_uniform(-3.0, 3.0) if rng.random() < 0.9 else -rng.random()
        if rng.random() < 0.01:
            lam, mu = math.inf, -1.0
        draws.append((m, lam, mu, c1, c2))
    return draws


def _field(x) -> str:
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return "(" + " ".join(map(_field, x)) + ")"
    if callable(x):
        return x.__name__
    return repr(x)


def _plan_bytes(solver, req) -> bytes:
    """The plan of req, or its exception, then the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            plan = solver._plan(solver._normalize(req)[0])
            parts = [" ".join((
                piece.tag.value, piece.domain.label,
                piece.domain.lower.hex(), piece.domain.upper.hex(),
                piece.domain.lower_kind.name, piece.domain.upper_kind.name,
                float(piece.anchor_alpha).hex()))
                for piece in plan.pieces]
            parts.append(type(plan.slope).__name__ + " " + " ".join(
                f"{f.name}={_field(getattr(plan.slope, f.name))}"
                for f in dataclasses.fields(plan.slope)))
        except Exception as exc:
            parts = [_error(exc)]
    parts += [f"{w.category.__name__}: {w.message}" for w in caught]
    return "\0".join(parts).encode()


def plan_entries(lwsurf) -> list:
    """One entry per draw of ``_plan_draws``: the draw, then its plan."""
    entries = []
    for m, lam, mu, c1, c2 in _plan_draws():
        entries.append(" ".join(float(x).hex()
                                for x in (m, lam, mu, c1, c2)).encode())
        req = lwsurf.SolveRequest(
            p=lwsurf.NormParameter(m),
            relation=lwsurf.WeingartenRelation(lam, mu), c1=c1, c2=c2)
        entries.append(_plan_bytes(lwsurf.solver, req))
    return entries


def plans(lwsurf) -> str:
    return _digest(plan_entries(lwsurf))


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
        print("plans", plans(lwsurf))
    return 0


if __name__ == "__main__":
    sys.exit(main())
