"""Command-line interface: classify, generate, verify, scan-coincidence.

Exit codes: 0 success, 1 generic failure (a usage error included), 2 no
admissible surface for the given constants (the violated inequality is
printed), 3 malformed profile CSV.  Precedence for settings is flags >
config file > defaults.  Every option is a row of ``OPTIONS``: the config
file is a flat ``key = value`` text whose keys are the long flag names
(or the options' setting keys), each taking what its flag takes.  The
environment variable LWSURF_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys
import warnings
from typing import NamedTuple

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
from .quadrature import ToleranceError
from .solver import (
    BracketError,
    CaseTag,
    IllConditionedWarning,
    NoSurfaceError,
    SolveRequest,
    WeingartenRelation,
    RelationForm,
    classify,
    critical_c1,
    solve,
)
from .verify import TABLE_TOL, residual_scan_table

log = logging.getLogger("lwsurf")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_SURFACE = 2
EXIT_BAD_CSV = 3


class CsvFormatError(ValueError):
    """Profile CSV does not match the alpha,u,du format."""


class Option(NamedTuple):
    """One option: its flag, its setting key, what it takes (a type, a
    tuple of the values it allows, or bool for a switch, whose config key
    takes true or false), its default (None: unset), the commands that
    have it (None: every command) and its help text."""

    flag: str
    key: str
    takes: object
    default: object = None
    commands: tuple | None = None
    help: str | None = None


# every option, in --help order.  The flag and the config key take the
# same values: argparse converts and checks the flag, _parse the key
OPTIONS = (
    Option("--m", "m", int, 2),
    Option("--lambda", "lam", float, 1.0),
    Option("--mu", "mu", float, 0.0),
    Option("--c1", "c1", float, 0.0),
    Option("--c2", "c2", float, 1.0),
    Option("--shift", "shift", float, 0.0),
    Option("--sign", "sign", (-1, 1), 1),
    Option("--samples", "samples", int, 512),
    Option("--tol", "tol", float, 1e-10),
    Option("--out", "out", str, None, ("generate",), "output prefix"),
    Option("--obj", "obj", bool, None, ("generate",),
           "also write a revolved OBJ mesh"),
    Option("--segments", "segments", int, 96, ("generate",)),
    Option("--piece", "piece", int, 0, ("generate",),
           "which maximal interval to sample"),
    Option("--special", "special", ("sphere", "cylinder"), None,
           ("generate",)),
    Option("--height", "height", float, 1.0, ("generate",)),
    Option("--recipe", "recipe", tuple(r.value for r in Recipe), None,
           ("generate", "scan-coincidence")),
    Option("--profile", "profile", str, None, ("verify",), "profile CSV path"),
    Option("--verify-tol", "verify_tol", float, TABLE_TOL, ("verify",)),
    Option("--report", "report", str, None, ("verify",),
           "write the JSON report here"),
    Option("--c1-min", "c1_min", float, None, ("scan-coincidence",)),
    Option("--c1-max", "c1_max", float, None, ("scan-coincidence",)),
    Option("--steps", "steps", int, 9, ("scan-coincidence",)),
)

DEFAULTS = {o.key: o.default for o in OPTIONS if o.default is not None}

# a config key is an option's flag name or its setting key, - read as _
_CONFIG_KEYS = {name: o for o in OPTIONS
                for name in (o.flag[2:].replace("-", "_"), o.key)}


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
            # the last line that names a setting sets it
            option = _CONFIG_KEYS.get(key)
            values[option.key if option else key] = val
    return values


def _parse(takes, val: str):
    """A config value converted and checked as its flag's would be."""
    if takes is bool:
        return _parse(("true", "false"), val) == "true"
    if not isinstance(takes, tuple):
        return takes(val)
    out = type(takes[0])(val)
    if out not in takes:
        raise ValueError(f"must be {' or '.join(map(str, takes))}, "
                         f"got {val!r}")
    return out


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        for key, val in _read_config(cfg_path).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                settings[key] = _parse(_CONFIG_KEYS[key].takes, val)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
    for key, val in vars(args).items():
        if key in ("config", "command"):
            continue
        if val is not None:
            settings[key] = val
    return settings


def _relation(settings: dict) -> WeingartenRelation:
    return WeingartenRelation(settings["lam"], settings["mu"])


def _request(settings: dict) -> SolveRequest:
    return SolveRequest(
        p=NormParameter(settings["m"]), relation=_relation(settings),
        c1=settings["c1"], c2=settings["c2"], shift=settings["shift"],
        sign=settings["sign"], samples=settings["samples"],
        tol=settings["tol"])


# ---------------------------------------------------------------------------
# writers


def _put_digits(text: np.ndarray, slots, q: np.ndarray,
                blank: bool = False) -> None:
    """Write the decimal digits of the nonnegative int64 array q, units
    first, as ASCII into the rows ``slots`` of the uint8 matrix text, one
    digit per slot, by integer ``//`` and ``-``.  With ``blank``, a zero
    before q's leading digit is NUL (the units digit always prints).  The
    slots must hold every digit; q is overwritten."""
    rest, units = np.empty_like(q), np.empty_like(q)
    for i, slot in enumerate(slots):
        np.floor_divide(q, 10, out=rest)
        np.multiply(rest, 10, out=units)
        np.subtract(q, units, out=units)
        units += ord("0")
        if blank and i:
            # q is the number from this digit up: 0 before the lead
            units *= q != 0
        text[slot] = units
        q, rest = rest, q


def _int_text(q, width: int) -> np.ndarray:
    """The text of ``'%d' % v`` for every element v of the nonnegative
    integer array q, as a uint8 slot matrix of shape ``q.shape +
    (width,)``, right-aligned with NUL before the leading digit; every v
    has at most ``width`` digits."""
    q = np.array(q, dtype=np.int64)
    text = np.empty((width, q.size), np.uint8)
    _put_digits(text, range(width - 1, -1, -1), q.ravel(), blank=True)
    return np.ascontiguousarray(text.T).reshape(q.shape + (width,))


@functools.cache
def _sci_tables(digits: int) -> tuple:
    """The tables of ``_sci_text``, built on first use and indexed by
    k + 23 for |k| <= 23: the multiplier and the divisor that scale by
    10**k, one of them 1.0, and the slots of the exponent e = digits - 1 - k
    (sign, an empty hundreds slot, tens, units) as one uint32.  Every
    power of ten up to 10**22 is a float exactly; the scale at |k| = 23 is
    NaN."""
    ks = range(-23, 24)
    mul = np.array([float(10 ** k) if 0 <= k <= 22 else 1.0 for k in ks])
    div = np.array([float(10 ** -k) if -22 <= k < 0 else 1.0 for k in ks])
    mul[[0, -1]] = math.nan
    exps = [digits - 1 - k for k in ks]
    exponents = np.frombuffer(
        "".join(f"{'+-'[e < 0]}\0{abs(e):02d}" for e in exps).encode("ascii"),
        np.uint32).copy()
    return mul, div, exponents


def _sci_text(x, digits: int) -> np.ndarray:
    """The text of ``'%.{digits-1}e' % v`` for every element v of the float
    array x, as a uint8 slot matrix of shape ``x.shape + (digits + 7,)``:
    the bytes of a row that are not NUL are v's text, in order.

    A row's slots are the sign, the leading digit, '.', the other
    ``digits - 1`` digits, 'e', the exponent's sign and its hundreds, tens
    and units.  The sign is NUL for a v without sign bit and the hundreds
    always, unless Python's formatter wrote the row.  Every byte is proven
    equal to Python's, or comes from Python's formatter.

    Fast path.  With e = floor(log10|v|) and k = digits - 1 - e, form
    s = |v| * 10**k as one multiply, or for k < 0 one divide, by a power
    of ten that is a float exactly (|k| <= 22; the other operand of the
    table's multiply-divide pair is 1.0).  log10 may round across a
    power of ten, so k is corrected once to bring s into
    [10**(digits-1), 10**digits).  Python prints the exact value
    S = |v| * 10**k rounded half-even to an integer: its digits, with the
    exponent e.  s is S correctly rounded, so it lies within half an ulp
    of S (at most 2**-17 < 7.7e-6 at 11 digits, where s < 2**37, and
    2**-7 < 7.9e-3 at 14, where s < 2**47).  At those sizes every
    half-integer N + 1/2 is a float, and rounding is monotone: S below it
    gives s at most N + 1/2, S above it gives s at least N + 1/2.  So the
    tie band is the half-integers themselves: where the fraction of s is
    not exactly 1/2, s and S lie strictly on one side of every
    half-integer, S is no tie, and rint(s) is Python's integer.  A
    rint(s) of 10**digits is the carry into a new leading 1: the digits
    of 10**(digits-1) with the exponent e + 1.  A zero is all zeros with
    exponent +00.  The digits and the exponent are integer arithmetic.

    Python's formatter writes every other element into its row, padded
    with NUL: those with s on a half-integer, non-finite values, |k| > 22
    (which holds for any three-digit exponent and for products like
    alpha*sin(pi), about 1e-16), and those whose s is still outside
    [10**(digits-1), 10**digits) after the one correction, which only a
    log10 off by two or more would leave.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x).ravel()
    width = digits + 7
    lo, hi = float(10 ** (digits - 1)), float(10 ** digits)
    mul, div, exponents = _sci_tables(digits)

    # log10(0) = -inf, and a signaling NaN flags invalid
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (digits - 1) - np.floor(np.log10(a))
        # k + 23, the tables' index; fmax and fmin take NaN to an edge
        at = np.fmin(np.fmax(k, -22.0), 22.0).astype(np.intp) + 23
        s = a * mul[at] / div[at]
        at += (s < lo).astype(np.intp) - (s >= hi)
        zero = a == 0.0
        at[zero] = digits + 22  # k = digits - 1: exponent +00
        s = a * mul[at] / div[at]
        fast = (s >= lo) & (s < hi) & (s - np.floor(s) != 0.5)
    s[~fast] = 0.0
    fast |= zero
    q = np.rint(s).astype(np.int64)
    carry = q == 10 ** digits
    q[carry] //= 10
    at -= carry

    # slot by slot, each a contiguous row of the transpose
    text = np.empty((width, a.size), np.uint8)
    text[0] = np.signbit(x).ravel()
    text[0] *= ord("-")
    text[2] = ord(".")
    text[digits + 2] = ord("e")
    text[digits + 3:] = exponents[at].view(np.uint8).reshape(-1, 4).T
    _put_digits(text, (*range(digits + 1, 2, -1), 1), q)
    text = text.T

    slow = np.flatnonzero(~fast)
    if slow.size:
        # left-justified in the row; the text itself has no spaces
        text[slow] = np.frombuffer(
            (f"%-{width}.{digits - 1}e" * slow.size
             % tuple(x.ravel()[slow].tolist())).encode("ascii")
            .replace(b" ", b"\0"), np.uint8).reshape(-1, width)
    return text.reshape(x.shape + (width,))


def _text_lines(lead: bytes, fields, sep: bytes) -> bytes:
    """One line per element of the slot matrices ``fields`` (text along
    the last axis), broadcast together, in C order: ``lead``, then the
    element's text in each field, joined by ``sep``, then LF; the NUL
    bytes are deleted."""
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    col = len(lead)
    line = np.empty(shape + (col + sum(f.shape[-1] + 1 for f in fields),),
                    np.uint8)
    line[..., :col] = np.frombuffer(lead, np.uint8)
    for field in fields:
        end = col + field.shape[-1]
        line[..., col:end] = field
        line[..., end] = ord(sep)
        col = end + 1
    line[..., -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


# profile rows per formatted block of the CSV writer, so memory stays flat
# in n
CSV_BLOCK_ROWS = 8192


def write_profile_csv(path: str, alpha, u, du) -> None:
    """Header ``alpha,u,du``, then one row per sample with each value as
    ``%.13e`` (14 significant digits) and LF endings.  The rows are text
    from ``_sci_text``, in blocks of CSV_BLOCK_ROWS rows."""
    columns = [np.asarray(c, dtype=float) for c in (alpha, u, du)]
    with open(path, "wb") as fh:
        fh.write(b"alpha,u,du\n")
        for i in range(0, len(alpha), CSV_BLOCK_ROWS):
            fh.write(_text_lines(
                b"", [_sci_text(c[i:i + CSV_BLOCK_ROWS], 14) for c in columns],
                b","))


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


# profile rows per formatted block of the OBJ writer: at 96 segments one
# block is 6,208 vertices, one slot matrix of about 0.4 MB for their text,
# so memory stays flat in n
OBJ_BLOCK_ROWS = 64


def write_obj(path: str, alpha, u, segments: int) -> None:
    """Revolved mesh; the v = 0 seam ring is duplicated at v = 2*pi.

    Vertices and faces are written in blocks of OBJ_BLOCK_ROWS profile
    rows.  A block of vertices is one slot matrix of ``v x y z`` lines,
    each coordinate as ``%.10e`` text from ``_sci_text``.  A block of
    faces is one slot matrix of ``f a b c`` lines: the ``%d`` text of
    the vertex indices the block's faces use, from ``_int_text``,
    gathered by index.  The ring angles go through math.cos/math.sin and
    numpy only multiplies, so the floats, and the bytes, are those of a
    per-vertex loop.
    """
    alpha = np.asarray(alpha, dtype=float)
    u = np.asarray(u, dtype=float)
    n = len(alpha)
    rings = segments + 1
    angles = [2.0 * math.pi * j / segments for j in range(rings)]
    cos_v = np.array([math.cos(v) for v in angles])
    sin_v = np.array([math.sin(v) for v in angles])
    ring_index = np.arange(1, segments + 1)  # 1-based OBJ index in a ring
    with open(path, "wb") as fh:
        for i in range(0, n, OBJ_BLOCK_ROWS):
            a = alpha[i:i + OBJ_BLOCK_ROWS, None]
            fh.write(_text_lines(
                b"v ", [_sci_text(f, 11) for f in
                        (a * cos_v, a * sin_v, u[i:i + OBJ_BLOCK_ROWS, None])],
                b" "))
        for i in range(0, n - 1, OBJ_BLOCK_ROWS):
            rows = np.arange(i, min(i + OBJ_BLOCK_ROWS, n - 1))
            a = rows[:, None] * rings + ring_index
            b = a + rings
            corners = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1)
            # the faces of rows i..j use the vertices of rows i..j+1
            first, last = i * rings + 1, (rows[-1] + 2) * rings
            names = _int_text(np.arange(first, last + 1), len(str(last)))
            text = np.take(names, corners.reshape(-1, 3) - first, axis=0)
            fh.write(_text_lines(b"f ", [text[:, 0], text[:, 1], text[:, 2]],
                                 b" "))


def _json_dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# recipe assembly


def build_assembly(settings: dict, recipe_name: str) -> AssembledSurface:
    p = NormParameter(settings["m"])
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

    row = RECIPE_TABLE[recipe]
    lam = settings["lam"] if row.lam is None else row.lam
    c1 = critical_c1(lam) if row.critical_c1 else settings["c1"]
    pair = []
    for mu, c, want in ((1.0, c1, row.first), (-1.0, -c1, row.second)):
        req = SolveRequest(p, WeingartenRelation(lam, mu), c,
                           samples=settings["samples"], tol=settings["tol"])
        # without the wanted case, glue names the mismatch on the first piece
        pair.append((solve(req, case=want) or solve(req))[0])
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
        _request(settings)  # the request's checks, on m and the rest
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
    if special and recipe:
        raise ValueError(f"--special {special} and --recipe {recipe} "
                         "cannot be combined")
    p = NormParameter(settings["m"])

    if recipe:
        surface = build_assembly(settings, recipe)
        alpha, u, du = surface.profile_polyline()
        meta = _surface_metadata(surface, settings)
        meta["case"] = surface.arcs[0].branch.case.value
        meta["recipe"] = recipe
    elif special == "cylinder" or (not special and _relation(settings).form
                                   is RelationForm.K1_ZERO):
        radius, height = settings["c2"], settings["height"]
        surface = cylinder(p, radius, height)
        # the request's checks; --special cylinder ignores lam and mu
        _request({**settings, "lam": 0.0, "mu": 0.0})
        n = max(2, settings["samples"] // 8)
        alpha = np.full(n, radius)
        u = np.linspace(0.0, height, n)
        du = np.zeros(n)
        meta = {"case": "4i", "topology": surface.topology.value,
                "constants": surface.constants, "m": p.m}
    else:
        # the translated sphere is the relation k1 + inf*k2 = -1
        solved = ({**settings, "lam": math.inf, "mu": -1.0}
                  if special == "sphere" else settings)
        req = _request(solved)
        pieces = [dom.label for dom in classify(req)[1]]
        idx = settings["piece"]
        if not 0 <= idx < len(pieces):
            raise ValueError(f"piece index {idx} out of range "
                             f"(found {len(pieces)} pieces)")
        branch, = solve(req, case=CaseTag(pieces[idx]))
        alpha, u, du = branch.alpha, branch.u, branch.du
        meta = {
            "case": branch.case.value, "m": p.m,
            "lam": branch.lam,
            # the requested mu, which mu / scale need not round back to
            "mu": solved["mu"],
            "domain": [branch.domain.lower, branch.domain.upper],
            "endpoints": [branch.domain.lower_kind.value,
                          branch.domain.upper_kind.value],
            "d_value": None if not math.isfinite(branch.span)
            else branch.span,
            "d_error": branch.quad_error,
            "pieces": pieces,
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
    row = RECIPE_TABLE.get(Recipe(recipe))
    if row is not None and row.critical_c1:
        raise ValueError(f"recipe {recipe} fixes c1 at critical_c1(lam): "
                         "there is no c1 to scan")
    lo = settings.get("c1_min")
    hi = settings.get("c1_max")
    steps = settings["steps"]
    if lo is None or hi is None:
        raise ValueError("scan-coincidence needs --c1-min and --c1-max")
    if steps < 1:
        raise ValueError(f"--steps must be at least 1, got {steps}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"--c1-min and --c1-max must be finite, and so "
                         f"must their difference, got {lo} and {hi}")
    # rows are printed once every row is built: an error of the request
    # itself leaves stdout empty, and a row is skipped only on a failure
    # at its own c1
    lines = ["# d-value coincidence scan; numeric events only, no torus "
             "existence is claimed",
             f"{'c1':>14} {'d_first':>16} {'d_second':>16} {'|diff|':>12} "
             f"{'period':>12}"]
    for c1 in np.linspace(float(lo), float(hi), steps):
        row_settings = dict(settings)
        row_settings["c1"] = float(c1)
        try:
            surface = build_assembly(row_settings, recipe)
        except (NoSurfaceError, GluingMismatch, BracketError,
                ToleranceError) as exc:
            lines.append(f"{c1:14.6g} skipped: {exc}")
            continue
        d1 = surface.constants.get("d_first", surface.constants.get("d"))
        d1 = math.nan if d1 is None else float(d1)
        d2 = float(surface.constants.get("d_second", math.nan))
        diff = abs(d1 - d2)
        period = surface.period if surface.period is not None else math.nan
        lines.append(f"{c1:14.6g} {d1:16.9g} {d2:16.9g} {diff:12.3e} "
                     f"{period:12.3e}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on EXIT_ERROR: exit code 2 means no
    admissible surface here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _argument(option: Option) -> dict:
    """add_argument's keywords for an option; unset, a flag is None."""
    takes = option.takes
    kwargs = {"dest": option.key, "default": None, "help": option.help}
    if takes is bool:
        return {**kwargs, "action": "store_true"}
    if isinstance(takes, tuple):
        return {**kwargs, "type": type(takes[0]), "choices": takes}
    return {**kwargs, "type": takes}


# each command's help line and its function
_COMMANDS = {
    "classify": ("case tag and admissible intervals", cmd_classify),
    "generate": ("profile CSV / OBJ mesh / metadata", cmd_generate),
    "verify": ("first-integral check of a profile CSV", cmd_verify),
    "scan-coincidence": ("sweep c1 hunting d-value coincidences",
                         cmd_scan_coincidence),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="lwsurf",
        description="Rotational linear Weingarten surfaces in the "
                    "((x1^2+x2^2)^m + x3^(2m))^(1/2m) normed space")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", help="flat key = value settings file")
        for option in OPTIONS:
            if option.commands is None or name in option.commands:
                sp.add_argument(option.flag, **_argument(option))
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LWSURF_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    try:
        settings = _merge_settings(args)
        return _COMMANDS[args.command][1](settings)
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
