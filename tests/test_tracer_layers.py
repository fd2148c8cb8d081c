"""The benchmark's tracer wraps lwsurf's layer functions by name
(``perfbench/tracer.py``'s ``LAYER_FUNCTIONS``), and its per-layer
metrics carry those names.  Each name must stay a distinct function of
its module, or a traced run breaks or counts one function twice.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def layer_functions() -> list:
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


def test_each_traced_name_is_a_distinct_function_of_its_module():
    entries = layer_functions()
    found = []
    for mod, fn, _ in entries:
        module = importlib.import_module(f"lwsurf.{mod}")
        obj = getattr(module, fn, None)
        assert inspect.isfunction(obj), (mod, fn)
        assert (obj.__module__, obj.__name__) == (module.__name__, fn)
        found.append(obj)
    assert len(set(found)) == len(entries)
