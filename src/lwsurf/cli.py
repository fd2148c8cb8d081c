"""Command-line interface: classify, generate, verify, scan-coincidence.

Exit codes: 0 success, 1 generic failure (a usage error included), 2 no
admissible surface for the given constants (the violated inequality is
printed), 3 malformed profile CSV.  Precedence for settings is flags >
config file > defaults; the config file is a flat ``key = value`` text
format using the long flag names.  The environment variable LWSURF_LOG
sets the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import warnings

import numpy as np

from .assembler import (
    RECIPE_TABLE,
    AssembledSurface,
    GluingMismatch,
    Recipe,
    cylinder,
    glue,
)
from .normgeom import NormParameter
from .solver import (
    IllConditionedWarning,
    NoSurfaceError,
    SolveRequest,
    WeingartenRelation,
    RelationForm,
    classify,
    critical_c1,
    solve,
    solve_constant_k2,
)
from .verify import TABLE_TOL, residual_scan_table

log = logging.getLogger("lwsurf")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_SURFACE = 2
EXIT_BAD_CSV = 3


class CsvFormatError(ValueError):
    """Profile CSV does not match the alpha,u,du format."""


DEFAULTS = {
    "m": 2,
    "lam": 1.0,
    "mu": 0.0,
    "c1": 0.0,
    "c2": 1.0,
    "shift": 0.0,
    "sign": 1,
    "samples": 512,
    "tol": 1e-10,
    "verify_tol": TABLE_TOL,
    "segments": 96,
    "piece": 0,
    "height": 1.0,
    "steps": 9,
}

# the closed forms that ``generate --special`` and the config key name
SPECIALS = ("sphere", "cylinder")


# ---------------------------------------------------------------------------
# config plumbing


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "lambda":
                key = "lam"
            values[key] = val
    return values


def _one_of(key: str, values: tuple, convert=str):
    """Parser of a config key that takes only the given values."""
    def parse(val: str):
        if val not in values:
            raise ValueError(f"config key {key!r} must be "
                             f"{' or '.join(values)}, got {val!r}")
        return convert(val)
    return parse


# parser of each config key: float unless listed as int, str or a choice
_CONFIG_PARSERS = {
    **dict.fromkeys(DEFAULTS.keys() | {"c1_min", "c1_max"}, float),
    **dict.fromkeys(("m", "sign", "samples", "segments", "piece", "steps"),
                    int),
    **dict.fromkeys(("recipe", "out", "profile", "report"), str),
    "obj": _one_of("obj", ("true", "false"), lambda val: val == "true"),
    "special": _one_of("special", SPECIALS),
}


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        for key, val in _read_config(cfg_path).items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _CONFIG_PARSERS[key](val)
    for key, val in vars(args).items():
        if key in ("config", "command"):
            continue
        if val is not None:
            settings[key] = val
    return settings


def _relation(settings: dict) -> WeingartenRelation:
    return WeingartenRelation.linear(settings["lam"], settings["mu"])


def _request(settings: dict) -> SolveRequest:
    return SolveRequest(
        p=NormParameter(settings["m"]), relation=_relation(settings),
        c1=settings["c1"], c2=settings["c2"], shift=settings["shift"],
        sign=settings["sign"], samples=settings["samples"],
        tol=settings["tol"])


# ---------------------------------------------------------------------------
# writers


def _fmt(x: float) -> str:
    return f"{x:.13e}"


def write_profile_csv(path: str, alpha, u, du) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,u,du\n")
        for a, uu, d in zip(alpha, u, du):
            fh.write(f"{_fmt(a)},{_fmt(uu)},{_fmt(d)}\n")


def read_profile_csv(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != "alpha,u,du":
        raise CsvFormatError("missing alpha,u,du header line")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise CsvFormatError(f"line {lineno}: expected 3 columns")
        try:
            row = [float(part) for part in parts]
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: non-numeric entry") from exc
        if not all(math.isfinite(v) for v in row):
            raise CsvFormatError(f"line {lineno}: non-finite entry")
        rows.append(row)
    if len(rows) < 2:
        raise CsvFormatError("profile needs at least 2 rows")
    data = np.array(rows)
    return data[:, 0], data[:, 1], data[:, 2]


# profile rows per formatted block of the OBJ writer: one block is one
# string of about 0.3 MB at 96 segments, so memory stays flat in n
OBJ_BLOCK_ROWS = 64


def write_obj(path: str, alpha, u, segments: int) -> None:
    """Revolved mesh; the v = 0 seam ring is duplicated at v = 2*pi.

    Vertices and faces are written in blocks of OBJ_BLOCK_ROWS profile
    rows, each block one %-format of a flat tuple.  The ring angles go
    through math.cos/math.sin and numpy only multiplies, so the floats,
    and the bytes, are those of a per-vertex loop.
    """
    alpha = np.asarray(alpha, dtype=float)
    u = np.asarray(u, dtype=float)
    n = len(alpha)
    rings = segments + 1
    angles = [2.0 * math.pi * j / segments for j in range(rings)]
    cos_v = np.array([math.cos(v) for v in angles])
    sin_v = np.array([math.sin(v) for v in angles])
    ring_index = np.arange(1, segments + 1)  # 1-based OBJ index in a ring
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(0, n, OBJ_BLOCK_ROWS):
            a = alpha[i:i + OBJ_BLOCK_ROWS, None]
            xyz = np.empty((len(a), rings, 3))
            xyz[:, :, 0] = a * cos_v
            xyz[:, :, 1] = a * sin_v
            xyz[:, :, 2] = u[i:i + OBJ_BLOCK_ROWS, None]
            fh.write("v %.10e %.10e %.10e\n" * (xyz.size // 3)
                     % tuple(xyz.ravel().tolist()))
        for i in range(0, n - 1, OBJ_BLOCK_ROWS):
            rows = np.arange(i, min(i + OBJ_BLOCK_ROWS, n - 1))
            a = rows[:, None] * rings + ring_index
            b = a + rings
            quads = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1)
            fh.write("f %d %d %d\nf %d %d %d\n" * (quads.size // 6)
                     % tuple(quads.ravel().tolist()))


def _json_dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# recipe assembly


def build_assembly(settings: dict, recipe_name: str) -> AssembledSurface:
    p = NormParameter(settings["m"])
    samples = settings["samples"]
    lam = settings["lam"]
    c1 = settings["c1"]
    recipe = Recipe(recipe_name)

    if recipe is Recipe.CAP:
        req = _request(settings)
        plus = solve(req)
        minus = solve(dataclasses.replace(req, sign=-req.sign))
        # glue decides whether a piece is anchored at a simple-root cap
        for bp, bm in zip(plus, minus):
            try:
                return glue(bp, bm, recipe)
            except GluingMismatch:
                continue
        raise GluingMismatch(
            "matching equation violated: no branch with a simple-root cap")

    want1, want2, _ = RECIPE_TABLE[recipe]
    if want1.name.startswith("LM1_"):  # the 6.1 families have lam = -1
        lam = -1.0
    elif want1.name.startswith("K1_"):  # the 4iii arcs have lam = 0
        lam = 0.0
    if want1.name.endswith("_DOUBLE_OUTER"):  # C2, C6, C9
        c1 = critical_c1(lam)
    pair = []
    for mu, c, want in ((1.0, c1, want1), (-1.0, -c1, want2)):
        branches = solve(SolveRequest(
            p=p, relation=WeingartenRelation.linear(lam, mu), c1=c,
            samples=samples, tol=settings["tol"]))
        # without the wanted case, glue names the mismatch
        pair.append(next((b for b in branches if b.case is want), branches[0]))
    return glue(*pair, recipe)


def _surface_metadata(surface: AssembledSurface, settings: dict) -> dict:
    # the cap recipe solves the requested relation: write the requested mu,
    # which mu / scale of a rescaled branch need not round back to; the
    # other recipes fix mu
    mu = (settings["mu"] if Recipe(settings["recipe"]) is Recipe.CAP
          else surface.mu / surface.arcs[0].branch.scale)
    return {
        "topology": surface.topology.value,
        "m": surface.p.m,
        "lam": surface.lam,
        "mu": mu,
        "constants": surface.constants,
        "period": surface.period,
        "end_derivative_match": surface.end_derivative_match,
        "may_be_torus": surface.may_be_torus,
        "closure_gap": surface.closure_gap,
        "junctions": [
            {"alpha_star": j.alpha_star, "kind": j.kind,
             "left_case": j.left_case.value, "right_case": j.right_case.value,
             "smoothness": j.smoothness.value, "u_gap": j.u_gap,
             "du_gap": j.du_gap, "k1_left": j.k1_left, "k1_right": j.k1_right}
            for j in surface.junctions
        ],
        "axis_points": [
            {"u": ap.u, "case": ap.case.value,
             "u2_limit_exists": ap.u2_limit_exists,
             "curvatures_extend": ap.curvatures_extend}
            for ap in surface.axis_points
        ],
        "d_errors": [a.branch.quad_error for a in surface.arcs],
        "settings": {k: settings[k] for k in
                     ("m", "lam", "mu", "c1", "c2", "samples")},
    }


# ---------------------------------------------------------------------------
# subcommands


def _interval_str(dom) -> str:
    hi = "inf" if math.isinf(dom.upper) else f"{dom.upper:.4g}"
    return f"({dom.lower:.4g}, {hi})"


def cmd_classify(settings: dict) -> int:
    if _relation(settings).form is RelationForm.K1_ZERO:
        print("4i, cylinder alpha = const (any radius)")
        return EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllConditionedWarning)
        tag, domains = classify(_request(settings))
    for dom in domains:
        print(f"{dom.label or tag.value}, domain {_interval_str(dom)}, "
              f"endpoints {dom.lower_kind.value}/{dom.upper_kind.value}")
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return EXIT_OK


def cmd_generate(settings: dict) -> int:
    out = settings.get("out")
    if not out:
        raise ValueError("generate needs --out PREFIX")
    segments = settings["segments"]
    if segments < 1:
        raise ValueError(f"--segments must be at least 1, got {segments}")
    special = settings.get("special")
    recipe = settings.get("recipe")
    p = NormParameter(settings["m"])

    if special == "cylinder" or (not special and _relation(settings).form
                                 is RelationForm.K1_ZERO):
        radius, height = settings["c2"], settings["height"]
        surface = cylinder(p, radius, height)
        n = max(2, settings["samples"] // 8)
        alpha = np.full(n, radius)
        u = np.linspace(0.0, height, n)
        du = np.zeros(n)
        meta = {"case": "4i", "topology": surface.topology.value,
                "constants": surface.constants, "m": p.m}
    elif recipe:
        surface = build_assembly(settings, recipe)
        alpha, u, du = surface.profile_polyline()
        meta = _surface_metadata(surface, settings)
        meta["case"] = surface.arcs[0].branch.case.value
        meta["recipe"] = recipe
    else:
        if special == "sphere":
            branches = [solve_constant_k2(p, c=settings["shift"],
                                          sign=settings["sign"],
                                          samples=settings["samples"])]
        else:
            branches = solve(_request(settings))
        idx = settings["piece"]
        if not 0 <= idx < len(branches):
            raise ValueError(f"piece index {idx} out of range "
                             f"(found {len(branches)} pieces)")
        branch = branches[idx]
        alpha, u, du = branch.alpha, branch.u, branch.du
        meta = {
            "case": branch.case.value, "m": p.m,
            "lam": branch.lam,
            # the requested mu, which mu / scale need not round back to
            "mu": (branch.mu / branch.scale if special == "sphere"
                   else settings["mu"]),
            "domain": [branch.domain.lower, branch.domain.upper],
            "endpoints": [branch.domain.lower_kind.value,
                          branch.domain.upper_kind.value],
            "d_value": None if not math.isfinite(branch.span)
            else branch.span,
            "d_error": branch.quad_error,
            "pieces": [b.domain.label for b in branches],
            "settings": {k: settings[k] for k in
                         ("m", "lam", "mu", "c1", "c2", "shift", "sign",
                          "samples")},
        }

    write_profile_csv(out + ".csv", alpha, u, du)
    _json_dump(out + ".meta.json", meta)
    if settings.get("obj"):
        write_obj(out + ".obj", alpha, u, segments)
        log.info("wrote %s.obj with %d segments", out, segments)
    print(f"wrote {out}.csv ({len(alpha)} samples), {out}.meta.json"
          + (f", {out}.obj" if settings.get("obj") else ""))
    return EXIT_OK


def cmd_verify(settings: dict) -> int:
    path = settings.get("profile")
    if not path:
        raise ValueError("verify needs --profile FILE.csv")
    alpha, u, du = read_profile_csv(path)
    p = NormParameter(settings["m"])
    report = residual_scan_table(p, alpha, u, du, settings["lam"],
                                 settings["mu"], tol=settings["verify_tol"])
    out = settings.get("report")
    if out:
        _json_dump(out, report.as_dict())
    print(report.to_json(indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_ERROR


def cmd_scan_coincidence(settings: dict) -> int:
    recipe = settings.get("recipe")
    if not recipe:
        raise ValueError("scan-coincidence needs --recipe")
    lo = settings.get("c1_min")
    hi = settings.get("c1_max")
    steps = settings["steps"]
    if lo is None or hi is None:
        raise ValueError("scan-coincidence needs --c1-min and --c1-max")
    if steps < 1:
        raise ValueError(f"--steps must be at least 1, got {steps}")
    print("# d-value coincidence scan; numeric events only, no torus "
          "existence is claimed")
    print(f"{'c1':>14} {'d_first':>16} {'d_second':>16} {'|diff|':>12} "
          f"{'period':>12}")
    for c1 in np.linspace(float(lo), float(hi), steps):
        row_settings = dict(settings)
        row_settings["c1"] = float(c1)
        try:
            surface = build_assembly(row_settings, recipe)
        except (ValueError, RuntimeError) as exc:
            print(f"{c1:14.6g} skipped: {exc}")
            continue
        d1 = surface.constants.get("d_first", surface.constants.get("d"))
        d1 = math.nan if d1 is None else float(d1)
        d2 = float(surface.constants.get("d_second", math.nan))
        diff = abs(d1 - d2)
        period = surface.period if surface.period is not None else math.nan
        print(f"{c1:14.6g} {d1:16.9g} {d2:16.9g} {diff:12.3e} "
              f"{period:12.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on EXIT_ERROR: exit code 2 means no
    admissible surface here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key = value settings file")
    sp.add_argument("--m", type=int, dest="m")
    sp.add_argument("--lambda", type=float, dest="lam")
    sp.add_argument("--mu", type=float, dest="mu")
    sp.add_argument("--c1", type=float, dest="c1")
    sp.add_argument("--c2", type=float, dest="c2")
    sp.add_argument("--shift", type=float, dest="shift")
    sp.add_argument("--sign", type=int, choices=(-1, 1), dest="sign")
    sp.add_argument("--samples", type=int, dest="samples")
    sp.add_argument("--tol", type=float, dest="tol")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="lwsurf",
        description="Rotational linear Weingarten surfaces in the "
                    "((x1^2+x2^2)^m + x3^(2m))^(1/2m) normed space")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="case tag and admissible intervals")
    _add_common(sp)

    sp = sub.add_parser("generate", help="profile CSV / OBJ mesh / metadata")
    _add_common(sp)
    sp.add_argument("--out", help="output prefix")
    sp.add_argument("--obj", action="store_true", default=None,
                    help="also write a revolved OBJ mesh")
    sp.add_argument("--segments", type=int, dest="segments")
    sp.add_argument("--piece", type=int, dest="piece",
                    help="which maximal interval to sample")
    sp.add_argument("--special", choices=SPECIALS)
    sp.add_argument("--height", type=float, dest="height")
    sp.add_argument("--recipe", choices=[r.value for r in Recipe])

    sp = sub.add_parser("verify",
                       help="first-integral check of a profile CSV")
    _add_common(sp)
    sp.add_argument("--profile", help="profile CSV path")
    sp.add_argument("--verify-tol", type=float, dest="verify_tol")
    sp.add_argument("--report", help="write the JSON report here")

    sp = sub.add_parser("scan-coincidence",
                        help="sweep c1 hunting d-value coincidences")
    _add_common(sp)
    sp.add_argument("--recipe", choices=[r.value for r in Recipe])
    sp.add_argument("--c1-min", type=float, dest="c1_min")
    sp.add_argument("--c1-max", type=float, dest="c1_max")
    sp.add_argument("--steps", type=int, dest="steps")
    return ap


_COMMANDS = {
    "classify": cmd_classify,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "scan-coincidence": cmd_scan_coincidence,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LWSURF_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    try:
        settings = _merge_settings(args)
        return _COMMANDS[args.command](settings)
    except NoSurfaceError as exc:
        print(f"no surface: {exc}", file=sys.stderr)
        return EXIT_NO_SURFACE
    except CsvFormatError as exc:
        print(f"malformed profile CSV: {exc}", file=sys.stderr)
        return EXIT_BAD_CSV
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        log.debug("unexpected error in %s", args.command, exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
