"""lwsurf never loads scipy: importing lwsurf, quadrature, every CLI
command and the ODE oracle, whose DOP853 tableau is written out as
floats, leave it unloaded.  Nor does a CLI command load numpy.ma, which
numpy 2.x imports on the first call of np.unique or np.median.  Each
check runs in a fresh interpreter, because the test process itself has
scipy and numpy.ma loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PRELUDE = """
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def run_python(code: str, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)], cwd=cwd,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_imports_and_numpy_only_commands_leave_scipy_unloaded(tmp_path):
    out = run_python("""
        import lwsurf
        assert scipy_loaded() == [], scipy_loaded()
        import lwsurf.cli
        assert scipy_loaded() == [], scipy_loaded()
        for argv in (
                ["classify", "--m", "2", "--lambda", "-1", "--mu", "1",
                 "--c1", "1.5"],
                ["generate", "--special", "sphere", "--obj", "--out", "s"],
                ["generate", "--lambda", "0", "--mu", "2", "--c1", "2",
                 "--out", "k1"],
                ["verify", "--profile", "s.csv", "--lambda", "1",
                 "--mu", "-2"]):
            assert lwsurf.cli.main(argv) == 0, argv
            assert scipy_loaded() == [], (argv, scipy_loaded())
        print("numpy only")
        """, tmp_path)
    assert out.splitlines()[-1] == "numpy only"


def test_the_oracle_leaves_scipy_unloaded(tmp_path):
    out = run_python("""
        import lwsurf.cli
        from lwsurf import (NormParameter, SolveRequest, WeingartenRelation,
                            ode_oracle, solve)
        [branch] = solve(SolveRequest(
            p=NormParameter(2), relation=WeingartenRelation(-1.0, 1.0),
            c1=0.5, samples=64))
        assert scipy_loaded() == [], scipy_loaded()
        c3 = ["--lambda", "-1", "--mu", "1"]
        for argv in (
                ["generate", *c3, "--c1", "1.5", "--recipe", "C3",
                 "--out", "t"],
                ["scan-coincidence", "--recipe", "C3", *c3,
                 "--c1-min", "1.3", "--c1-max", "1.7", "--steps", "3"]):
            assert lwsurf.cli.main(argv) == 0, argv
            assert scipy_loaded() == [], (argv, scipy_loaded())
        report = ode_oracle(branch)
        assert scipy_loaded() == [], scipy_loaded()
        assert report.passed, report.max_residual
        print(branch.case.value, report.n_points > 0)
        """, tmp_path)
    assert out.split()[-2:] == ["6.1i-1", "True"]


C3 = ["--lambda", "-1", "--mu", "1", "--c1", "1.5"]

# the cold commands of the benchmark's cli workload, in its order: each
# verify reads the CSV that the generate before it writes
CLI_COMMANDS = {
    "classify": ["classify", "--m", "2", *C3],
    "generate-sphere": ["generate", "--special", "sphere", "--out", "sphere",
                        "--obj"],
    "verify-sphere": ["verify", "--profile", "sphere.csv", "--lambda", "1",
                      "--mu", "-2", "--report", "sphere.report.json"],
    "generate-c3": ["generate", *C3, "--recipe", "C3", "--out", "tube",
                    "--obj"],
    "generate-4096": ["generate", *C3, "--samples", "4096", "--out", "prof"],
    "verify-4096": ["verify", "--profile", "prof.csv", "--lambda", "-1",
                    "--mu", "1", "--report", "prof.report.json"],
    "scan-coincidence": ["scan-coincidence", "--recipe", "C3", "--lambda",
                         "-1", "--mu", "1", "--c1-min", "1.3", "--c1-max",
                         "1.7", "--steps", "9"],
}


def numpy_ma_loaded(code: str, cwd) -> bool:
    out = run_python(code + '\nprint("numpy.ma" in sys.modules)\n', cwd)
    return out.split()[-1] == "True"


def test_cli_commands_leave_numpy_ma_unloaded(tmp_path):
    """Each command in its own interpreter, as the benchmark runs them."""
    if numpy_ma_loaded("import numpy", tmp_path):
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    loaded = [name for name, argv in CLI_COMMANDS.items()
              if numpy_ma_loaded("import lwsurf.cli\n"
                                 f"assert lwsurf.cli.main({argv!r}) == 0",
                                 tmp_path)]
    assert loaded == []
