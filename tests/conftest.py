"""Shared fixtures: one solved instance of every reachable case tag.

The instance map is built once per norm exponent and shared across the
test modules, because solving all ~30 branches is the dominant cost of
the suite.
"""

import importlib.util
import warnings
from pathlib import Path

import pytest

import lwsurf
from lwsurf import IllConditionedWarning, NormParameter


def crit_mid(lam: float) -> float:
    """Double-root constant for -1 < lam < 0, mu = +1."""
    return 1.0 / ((lam + 1.0) * (-lam) ** (-lam))


def thr_low(lam: float) -> float:
    """Double-root constant for lam < -1, mu = +1."""
    w = -(lam + 1.0)
    return -1.0 / (w * (w + 1.0) ** (w + 1.0))


def build_instances(m: int) -> dict:
    """One representative ProfileBranch per reachable case tag, built by
    the benchmark's taxonomy calls (perfbench/workloads.py).

    The cylinder tag 4i has no profile table (alpha is constant) and is
    therefore not in the map; it is covered by the assembler tests.
    """
    p = NormParameter(m)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for name, args, _ in workloads()._taxonomy_calls(m):
            built = getattr(lwsurf, name)(p, *args)
            for b in built if isinstance(built, list) else [built]:
                out.setdefault(b.case.value, b)
    return out


def workloads():
    """The benchmark's workload module, perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CACHE: dict = {}


def instances(m: int) -> dict:
    if m not in _CACHE:
        _CACHE[m] = build_instances(m)
    return _CACHE[m]


@pytest.fixture(scope="session")
def instances_m2() -> dict:
    return instances(2)


@pytest.fixture(scope="session")
def instances_m3() -> dict:
    return instances(3)


ALL_TAGS_WITH_TABLE = [
    "4ii", "4iii-1", "4iii-2",
    "5i-1", "5i-2", "5ii",
    "6.1i-1", "6.1i-2-1", "6.1i-2-2", "6.1i-3-1", "6.1i-3-2", "6.1ii",
    "6.3i", "6.3ii-1", "6.3ii-2", "6.3ii-3",
    "6.3iii-1", "6.3iii-2-1", "6.3iii-2-2", "6.3iii-3-1", "6.3iii-3-2",
    "6.3iv-1", "6.3iv-2", "6.3iv-3",
    "6.3v-1", "6.3v-2", "6.3v-3-1", "6.3v-3-2-1", "6.3v-3-2-2",
    "6.3v-3-3-1", "6.3v-3-3-2", "6.3vi",
]
