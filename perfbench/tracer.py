"""Per-layer tracing of lwsurf from outside the package.

``Tracer.install`` replaces each layer's public functions, at every module
binding that holds them, with a wrapper that keeps a span (name, start,
end, parent, item) and adds to per-name call counts and self time.  Self
time is a span's duration minus the time covered by the traced calls it
made.  The scipy routines the layers call (``quad``, ``solve_ivp``,
``brentq``) are wrapped for counts only, so their time stays in the
calling layer's self time.

The per-point curvature functions in ``normgeom`` run hundreds of
thousands of times a pass; they count and subtract their time from their
caller like every other traced function but keep no span, which bounds
the memory the span list takes.  Self times include the benchmark's
speed probe (``speed.Probe``), a few percent of every layer alike.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, keeps spans)
LAYER_FUNCTIONS = [
    ("normgeom", "principal_curvatures", False),
    ("normgeom", "oriented_radius_chart_curvatures", False),
    ("quadrature", "bracket_roots", True),
    ("quadrature", "integrate_singular", True),
    ("quadrature", "profile_from_integral", True),
    ("solver", "classify", True),
    ("solver", "solve", True),
    ("assembler", "glue", True),
    ("verify", "residual_scan", True),
    ("verify", "first_integral_drift", True),
    ("verify", "ode_oracle", True),
    ("verify", "residual_scan_table", True),
    ("cli", "write_obj", True),
    ("cli", "write_profile_csv", True),
    ("cli", "read_profile_csv", True),
    ("cli", "build_assembly", True),
]

VERIFIERS = ("residual_scan", "first_integral_drift", "ode_oracle",
             "residual_scan_table")
WORST = {"residual_scan": "verify.worst_residual",
         "residual_scan_table": "verify.worst_residual",
         "first_integral_drift": "verify.worst_fi_drift",
         "ode_oracle": "verify.worst_ode_dev"}

# every per-layer metric a traced run prints, with its unit
PER_LAYER_UNITS = {}
for _mod, _fn, _ in LAYER_FUNCTIONS:
    PER_LAYER_UNITS[f"{_mod}.{_fn}.calls"] = "count"
    PER_LAYER_UNITS[f"{_mod}.{_fn}.self_s"] = "s"
for _fn in VERIFIERS:
    PER_LAYER_UNITS[f"verify.{_fn}.failed"] = "count"
PER_LAYER_UNITS.update({
    "quadrature.bracket_roots.f_evals": "count",
    "scipy.quad.calls": "count",
    "scipy.quad.integrand_evals": "count",
    "scipy.brentq.calls": "count",
    "scipy.solve_ivp.calls": "count",
    "scipy.solve_ivp.rhs_evals": "count",
    "solver.branches": "count",
    "solver.no_surface": "count",
    "solver.raised": "count",
    "solver.admissible_frac": "1",
    "verify.worst_residual": "1",
    "verify.worst_fi_drift": "1",
    "verify.worst_ode_dev": "1",
    "cli.write_obj.bytes": "B",
    "cli.write_profile_csv.bytes": "B",
    "cli.import.scipy_s": "s",
    "cli.import.lwsurf_self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
})

# counts that must repeat exactly between two traced runs at one seed
STABLE_COUNTS = ("scipy.quad.calls", "scipy.quad.integrand_evals",
                 "scipy.solve_ivp.rhs_evals",
                 "quadrature.bracket_roots.f_evals", "solver.branches",
                 "solver.no_surface")


class Tracer:
    def __init__(self) -> None:
        self.item = None
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.worst: dict = {}
        self._stack: list = []   # [span id, time covered by traced children]
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions and scipy routines in this process."""
        import scipy.integrate
        import scipy.optimize
        import lwsurf.cli  # imports every lwsurf module

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "lwsurf"
                                         or name.startswith("lwsurf."))]
        for mod, fn, keep in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"lwsurf.{mod}"], fn)
            _rebind(modules, original,
                    self._layer(f"{mod}.{fn}", original, keep))
        for owner, fn, wrap in (
                (scipy.integrate, "quad", self._quad),
                (scipy.integrate, "solve_ivp", self._solve_ivp),
                (scipy.optimize, "brentq", self._brentq)):
            original = getattr(owner, fn)
            wrapped = wrap(original)
            setattr(owner, fn, wrapped)
            _rebind(modules, original, wrapped)

    def _layer(self, name: str, fn, keep: bool):
        short = name.split(".", 1)[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if short == "bracket_roots" and args:
                args = (self._counting(args[0]),) + args[1:]
            elif short == "bracket_roots":
                kwargs["f"] = self._counting(kwargs["f"])
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._record_error(short, exc)
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                if keep:
                    self.spans.append((name, start, end, sid, parent,
                                       self.item))
            self._record_result(short, result, args, kwargs)
            return result

        return traced

    def _counting(self, f):
        def counted(t):
            self.counts["quadrature.bracket_roots.f_evals"] += 1
            return f(t)
        return counted

    def _record_error(self, short: str, exc: Exception) -> None:
        from lwsurf import NoSurfaceError

        if short in ("classify", "solve"):
            key = ("solver.no_surface" if isinstance(exc, NoSurfaceError)
                   else "solver.raised")
            self.counts[key] += 1
            if short == "classify":
                self.counts["solver.classify.raised"] += 1
        elif short in VERIFIERS:
            self.counts[f"verify.{short}.failed"] += 1

    def _record_result(self, short: str, result, args, kwargs) -> None:
        if short == "solve":
            self.counts["solver.branches"] += len(result)
            self.counts["solver.solve.nonempty"] += bool(result)
        elif short in VERIFIERS:
            if not result.passed:
                self.counts[f"verify.{short}.failed"] += 1
            key = WORST[short]
            self.worst[key] = max(self.worst.get(key, 0.0),
                                  float(result.max_residual))
        elif short in ("write_obj", "write_profile_csv"):
            path = args[0] if args else kwargs["path"]
            self.counts[f"cli.{short}.bytes"] += os.path.getsize(path)

    def _quad(self, quad):
        @functools.wraps(quad)
        def traced(*args, **kwargs):
            # counting in the integrand keeps quad's own code path; asking
            # quad for full_output would skip its warning path and run faster
            evals = [0]
            func = args[0] if args else kwargs.pop("func")

            def counted(*x):
                evals[0] += 1
                return func(*x)

            try:
                return quad(counted, *args[1:], **kwargs)
            finally:
                self.counts["scipy.quad.calls"] += 1
                self.counts["scipy.quad.integrand_evals"] += evals[0]
        return traced

    def _solve_ivp(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def traced(*args, **kwargs):
            self.counts["scipy.solve_ivp.calls"] += 1
            sol = solve_ivp(*args, **kwargs)
            self.counts["scipy.solve_ivp.rhs_evals"] += sol.nfev
            return sol
        return traced

    def _brentq(self, brentq):
        @functools.wraps(brentq)
        def traced(*args, **kwargs):
            self.counts["scipy.brentq.calls"] += 1
            return brentq(*args, **kwargs)
        return traced

    # -- results ----------------------------------------------------------

    def state(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "worst": self.worst}

    def merge(self, state: dict) -> None:
        """Add the state a traced subprocess wrote for the current item."""
        self.spans.extend(tuple(s[:5]) + (self.item,) for s in state["spans"])
        self.calls.update(state["calls"])
        self.counts.update(state["counts"])
        for name, value in state["self_s"].items():
            self.self_s[name] += value
        for name, value in state["worst"].items():
            self.worst[name] = max(self.worst.get(name, 0.0), value)

    def metrics(self) -> dict:
        out = {name: 0 for name in PER_LAYER_UNITS}
        for mod, fn, _ in LAYER_FUNCTIONS:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, value in self.counts.items():
            if name in out:
                out[name] = value
        for name, value in self.worst.items():
            out[name] = value if math.isfinite(value) else sys.float_info.max
        # draws that reached solve plus draws that classify already refused
        attempts = (self.calls["solver.solve"]
                    + self.counts["solver.classify.raised"])
        nonempty = self.counts["solver.solve.nonempty"]
        out["solver.admissible_frac"] = (nonempty / attempts if attempts
                                         else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, sid, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "id": sid, "parent": parent,
                                     "item": item}) + "\n")


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def import_times(env: dict, repeats: int = 3) -> dict:
    """Median self time of scipy and of lwsurf in ``import lwsurf.cli``."""
    scipy_s, lwsurf_s = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lwsurf.cli"],
            env=env, capture_output=True, text=True, check=True)
        totals = Counter()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            totals[parts[2].strip().split(".")[0]] += self_us
        scipy_s.append(totals["scipy"] * 1e-6)
        lwsurf_s.append(totals["lwsurf"] * 1e-6)
    return {"cli.import.scipy_s": statistics.median(scipy_s),
            "cli.import.lwsurf_self_s": statistics.median(lwsurf_s)}
