"""The benchmark's three workloads: items made from a seed, and runners that
check every item's output.

Each item runner returns ``(ok, correct)``.  ``ok`` is false when the item
failed: an exception other than ``NoSurfaceError``, a failed verifier
verdict, or an unexpected CLI exit code or output bytes.  ``correct`` is
false only for a failure the seed commit does not already show:

* taxonomy: every item must pass; it is the acceptance gate.
* sweep: exceptions and failed verdicts are known seed failures; a draw
  that ``classify`` and ``solve`` disagree on is not.
* cli: every output must match the SHA-256 goldens recorded at the seed
  commit; the ``verify`` items' numpy-2 ``AttributeError`` is a known
  seed failure.

Each workload's ``pass_s`` is the raw time of one pass on the 2-core host
the bounds were proven on; ``run.py`` makes ``--seconds // pass_s``
passes (at least two), so a seed's ``attempted`` and ``failed`` do not
depend on how fast the host happens to be.

Run ``python3 perfbench/workloads.py record-goldens`` from the repository
root to rewrite ``goldens.json`` from the current code.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
CLI_CHILD = HERE / "cli_child.py"


def lwsurf_env(root: Path) -> dict:
    """Environment for a cold lwsurf subprocess that uses the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("LWSURF_LOG", None)
    return env


def run_child(mode: str, argv: list, cwd: Path, env: dict, probe=None,
              tracer=None) -> subprocess.CompletedProcess:
    """Run cli_child.py; add its probe samples to ``probe`` and its trace
    to ``tracer``."""
    state_path = cwd / "child-state.json"
    proc = subprocess.run([sys.executable, str(CLI_CHILD), str(state_path),
                           mode, *argv], cwd=cwd, env=env,
                          capture_output=True)
    state = json.loads(state_path.read_text(encoding="utf-8"))
    state_path.unlink()
    if probe is not None:
        probe.samples.extend(state["samples"])
        probe.spent += state["spent"]
    if tracer is not None:
        tracer.merge(state["trace"])
    return proc


# ---------------------------------------------------------------------------
# taxonomy: one instance of every table-bearing case tag for m = 2 and 3,
# with the constants tests/conftest.py uses


def _crit_mid(lam: float) -> float:
    return 1.0 / ((lam + 1.0) * (-lam) ** (-lam))


def _thr_low(lam: float) -> float:
    w = -(lam + 1.0)
    return -1.0 / (w * (w + 1.0) ** (w + 1.0))


def _taxonomy_calls(m: int) -> list:
    """(constructor, arguments after p, case tags it yields)."""
    slow_lam = 0.5 / (2 * m - 1)
    gen = "solve_inhom_general"
    lm1 = "solve_inhom_lambda_minus1"
    return [
        ("solve_constant_k2", (), ("4ii",)),
        ("solve_constant_k1", (1.0, 2.0), ("4iii-1",)),
        ("solve_constant_k1", (-1.0, -2.0), ("4iii-2",)),
        ("solve_homogeneous", (1.0, 1.0), ("5i-1",)),
        ("solve_homogeneous", (slow_lam, 1.0), ("5i-2",)),
        ("solve_homogeneous", (-0.5, 1.0), ("5ii",)),
        (lm1, (1.0, 0.5), ("6.1i-1",)),
        (lm1, (1.0, 1.0), ("6.1i-2-1", "6.1i-2-2")),
        (lm1, (1.0, 1.5), ("6.1i-3-1", "6.1i-3-2")),
        (lm1, (-1.0, -0.5), ("6.1ii",)),
        (gen, (0.5, 1.0, 0.8), ("6.3i",)),
        (gen, (0.5, -1.0, 0.0), ("6.3ii-1",)),
        (gen, (1.0, -1.0, 0.3), ("6.3ii-2",)),
        (gen, (0.5, -1.0, -0.5), ("6.3ii-3",)),
        (gen, (-0.5, 1.0, 2.0), ("6.3iii-1",)),
        (gen, (-0.5, 1.0, _crit_mid(-0.5)), ("6.3iii-2-1", "6.3iii-2-2")),
        (gen, (-0.5, 1.0, 3.2), ("6.3iii-3-1", "6.3iii-3-2")),
        (gen, (-0.5, -1.0, 0.0), ("6.3iv-1",)),
        (gen, (-0.5, -1.0, 2.0), ("6.3iv-2",)),
        (gen, (-0.5, -1.0, -1.0), ("6.3iv-3",)),
        (gen, (-2.0, 1.0, 0.0), ("6.3v-1",)),
        (gen, (-2.0, 1.0, 0.3), ("6.3v-2",)),
        (gen, (-2.0, 1.0, -0.4), ("6.3v-3-1",)),
        (gen, (-2.0, 1.0, _thr_low(-2.0)), ("6.3v-3-2-1", "6.3v-3-2-2")),
        (gen, (-2.0, 1.0, -0.1), ("6.3v-3-3-1", "6.3v-3-3-2")),
        (gen, (-2.0, -1.0, 0.4), ("6.3vi",)),
    ]


class Taxonomy:
    """Item: one solver call of the conftest instance map (one case, whose
    one or two pieces carry one tag each), built at samples=512 and checked
    by all three verifiers at default tolerances."""

    name = "taxonomy"
    in_process = True
    pass_s = 6.0
    tail_mean = True  # the items are the same for every seed

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        self.items = [(m,) + call
                      for m in (2, 3) for call in _taxonomy_calls(m)]
        random.Random(seed).shuffle(self.items)
        self.warm_up_item = (2,) + _taxonomy_calls(2)[3]

    def before_pass(self) -> None:
        pass

    def run_item(self, item, tracer=None, probe=None) -> tuple:
        import lwsurf

        m, constructor, args, tags = item
        try:
            p = lwsurf.NormParameter(m)
            built = getattr(lwsurf, constructor)(p, *args)
            branches = built if isinstance(built, list) else [built]
            ok = tuple(b.case.value for b in branches) == tags
            for b in branches:
                ok &= lwsurf.residual_scan(b).passed
                ok &= lwsurf.first_integral_drift(b).passed
                ok &= lwsurf.ode_oracle(b).passed
        except Exception:
            ok = False
        return ok, ok


# ---------------------------------------------------------------------------
# sweep: seeded draws from the box m in 1..6, lam in [-4, 3] plus -1 and 0,
# |mu| in [0.2, 5] with either sign, c1 in [-5, 5]


def _stratified(rng: random.Random, n: int) -> list:
    """One uniform draw from each of n equal strata of [0, 1), shuffled."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [(k + rng.random()) / n for k in strata]


class Sweep:
    """Item: one draw through classify and solve, every branch checked by
    residual_scan and first_integral_drift; NoSurfaceError is a correct
    answer.

    Draws come in cycles of 120 cells: every m, both signs of mu, and ten
    lam slots (-1, 0, and eight equal strata of [-4, 3]).  Within a cycle
    c1 and |mu| are stratified too.  Stratifying keeps the share of each
    region of the box fixed, so figures move less from seed to seed."""

    name = "sweep"
    in_process = True
    pass_s = 9.0
    tail_mean = False  # the seed draws the items
    cycles = 3

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        cells = [(m, sign, slot) for m in range(1, 7) for sign in (-1.0, 1.0)
                 for slot in range(10)]
        self.items = []
        for _ in range(self.cycles):
            c1s = _stratified(rng, len(cells))
            mus = _stratified(rng, len(cells))
            for (m, sign, slot), u_c1, u_mu in zip(cells, c1s, mus):
                lam = ((-1.0, 0.0)[slot] if slot < 2
                       else -4.0 + 7.0 * (slot - 2 + rng.random()) / 8.0)
                self.items.append((m, lam, sign * (0.2 + 4.8 * u_mu),
                                   -5.0 + 10.0 * u_c1))
        rng.shuffle(self.items)
        self.warm_up_item = self.items[0]

    def before_pass(self) -> None:
        pass

    def run_item(self, item, tracer=None, probe=None) -> tuple:
        import lwsurf

        m, lam, mu, c1 = item
        req = lwsurf.SolveRequest(
            p=lwsurf.NormParameter(m),
            relation=lwsurf.WeingartenRelation.linear(lam, mu), c1=c1)
        try:
            _, domains = lwsurf.classify(req)
        except lwsurf.NoSurfaceError:
            return True, True
        except Exception:
            return False, True
        try:
            branches = lwsurf.solve(req)
        except Exception:
            return False, True
        consistent = ([d.label for d in domains]
                      == [b.domain.label for b in branches])
        ok = consistent
        for b in branches:
            try:
                ok &= lwsurf.residual_scan(b).passed
                ok &= lwsurf.first_integral_drift(b).passed
            except Exception:
                ok = False
        return ok, consistent


# ---------------------------------------------------------------------------
# cli: a scripted session of cold lwsurf subprocess calls


def _cli_groups() -> list:
    """Groups of (item name, argv, output files); a group keeps its order."""
    c3 = ["--lambda", "-1", "--mu", "1", "--c1", "1.5"]
    return [
        [("classify", ["classify", "--m", "2"] + c3, [])],
        [("generate-sphere",
          ["generate", "--special", "sphere", "--out", "sphere", "--obj"],
          ["sphere.csv", "sphere.meta.json", "sphere.obj"]),
         ("verify-sphere",
          ["verify", "--profile", "sphere.csv", "--lambda", "1", "--mu", "-2",
           "--report", "sphere.report.json"], ["sphere.report.json"])],
        [("generate-c3",
          ["generate"] + c3 + ["--recipe", "C3", "--out", "tube", "--obj"],
          ["tube.csv", "tube.meta.json", "tube.obj"])],
        [("generate-4096",
          ["generate"] + c3 + ["--samples", "4096", "--out", "prof"],
          ["prof.csv", "prof.meta.json"]),
         ("verify-4096",
          ["verify", "--profile", "prof.csv", "--lambda", "-1", "--mu", "1",
           "--report", "prof.report.json"], ["prof.report.json"])],
        [("scan-coincidence",
          ["scan-coincidence", "--recipe", "C3", "--lambda", "-1", "--mu", "1",
           "--c1-min", "1.3", "--c1-max", "1.7", "--steps", "9"], [])],
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Cli:
    """Item: one cold lwsurf subprocess; the seed orders the groups."""

    name = "cli"
    in_process = False
    pass_s = 9.5
    tail_mean = True  # the items are the same for every seed

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        groups = _cli_groups()
        random.Random(seed).shuffle(groups)
        self.items = [item for group in groups for item in group]
        self.warm_up_item = None
        self.env = lwsurf_env(root)
        self.work = out_dir / "cli-work"

    @cached_property
    def goldens(self) -> dict:
        return json.loads(GOLDENS.read_text(encoding="utf-8"))

    def before_pass(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def run_item(self, item, tracer=None, probe=None) -> tuple:
        name, argv, files = item
        proc = run_child("run" if tracer is None else "trace", argv,
                         self.work, self.env, probe, tracer)
        if argv[0] == "verify":
            return self._check_verify(proc, files[0])
        golden = self.goldens[name]
        ok = (proc.returncode == golden["exit"]
              and _sha256(proc.stdout) == golden["stdout"])
        for fname, digest in golden["files"].items():
            path = self.work / fname
            ok &= path.is_file() and _sha256(path.read_bytes()) == digest
        return ok, ok

    def _check_verify(self, proc, report_name: str) -> tuple:
        """A verify item passes with exit 0 and a passing report that equals
        the report file.  At the seed commit it exits 1 on numpy 2 with an
        AttributeError (np.polynomial.polyutils.RankWarning was removed)."""
        if proc.returncode != 0:
            known = (proc.returncode == 1 and b"AttributeError" in proc.stderr
                     and b"RankWarning" in proc.stderr)
            return False, known
        try:
            shown = json.loads(proc.stdout)
            written = json.loads((self.work / report_name).read_bytes())
        except (OSError, ValueError):
            return False, False
        ok = shown == written and shown.get("passed") is True
        return ok, ok

    def record_goldens(self) -> dict:
        self.before_pass()
        goldens = {}
        for name, argv, files in self.items:
            if argv[0] == "verify":
                continue
            proc = run_child("run", argv, self.work, self.env)
            goldens[name] = {
                "argv": argv, "exit": proc.returncode,
                "stdout": _sha256(proc.stdout),
                "files": {f: _sha256((self.work / f).read_bytes())
                          for f in files}}
        return goldens


WORKLOADS = {w.name: w for w in (Taxonomy, Sweep, Cli)}


if __name__ == "__main__":
    if sys.argv[1:] != ["record-goldens"]:
        sys.exit("usage: python3 perfbench/workloads.py record-goldens")
    goldens = Cli(HERE.parent, 0, HERE / "out").record_goldens()
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
