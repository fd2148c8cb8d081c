"""Gluing of signed profile branches into complete rotational surfaces.

A single branch u(alpha) is monotone and only covers one sweep of the
profile.  Full surfaces arise by joining the + and - branches at a cap
(where u' blows up), by joining two different cases at a shared smooth
endpoint (where u' = 0; each such recipe is a row of RECIPE_TABLE), or
by periodic extension.  Each junction carries a numeric smoothness
verdict obtained from one-sided derivative limits, computed in the chart
where the quantities stay finite: u(alpha) at smooth joins, the inverse
alpha(u) at caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .normgeom import NormParameter, principal_curvatures
from .quadrature import EndpointKind
from .solver import CaseTag, ProfileBranch, _near, fd_step

__all__ = [
    "Smoothness",
    "Topology",
    "Recipe",
    "RecipeRow",
    "RECIPE_TABLE",
    "Junction",
    "AxisPoint",
    "AssembledSurface",
    "Arc",
    "GluingMismatch",
    "NotPeriodic",
    "glue",
    "axis_smoothness",
    "extend_periodic",
    "reflect_branch",
    "cylinder",
]


class GluingMismatch(ValueError):
    """Branch constants violate the recipe's matching equation (named)."""


class NotPeriodic(ValueError):
    """Surface ends do not admit a periodic extension."""


class Smoothness(Enum):
    C1 = "C1"
    C2 = "C2"
    C2_WITH_CURVATURE_JUMP = "C2_with_curvature_jump"
    SINGULAR = "singular"


class Topology(Enum):
    DISK = "disk"
    SPHERE_LIKE = "sphere_like"
    TORUS = "torus"
    PERIODIC_TUBE = "periodic_tube"
    OPEN_ANNULUS = "open_annulus"
    CYLINDER = "cylinder"


class Recipe(Enum):
    CAP = "cap"
    C1_1 = "C1-1"
    C1_2 = "C1-2"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"
    C7 = "C7"
    C8 = "C8"
    C9 = "C9"
    C10 = "C10"
    TORUS_4III = "torus-4iii"


@dataclass
class Arc:
    """One branch traversed in a fixed direction along the profile chain.

    ``direction`` is +1 when the traversal runs with increasing alpha; the
    oriented curvatures of the assembled surface are direction * the raw
    graph-over-radius curvatures of the branch.
    """

    branch: ProfileBranch
    direction: int  # +1: alpha increasing along the chain

    @property
    def start(self) -> tuple:
        return self._point(first=True)

    @property
    def end(self) -> tuple:
        return self._point(first=False)

    def end_record(self, first: bool) -> tuple:
        """(alpha, kind, inward side) of the domain end the arc starts at
        (first) or ends at; the side is +1 when the branch lies above it."""
        dom = self.branch.domain
        if (self.direction == +1) == first:
            return dom.lower, dom.lower_kind, +1
        return dom.upper, dom.upper_kind, -1

    def _point(self, first: bool) -> tuple:
        """(alpha, u) limit of the branch at that end."""
        a, kind, side = self.end_record(first)
        branch = self.branch
        a0, u0 = branch.anchor
        if abs(a - a0) <= 1e-9 * max(1.0, abs(a0)):
            return a, u0
        # u moves away from the anchor, which is the other end
        sgn = -side * branch.request.sign
        if kind is EndpointKind.DOUBLE_ROOT:
            return a, math.copysign(math.inf, sgn)
        if kind is EndpointKind.SIMPLE_ROOT and math.isfinite(branch.span):
            return a, u0 + sgn * branch.span
        # smooth / axis / cut endpoints are on the sample grid
        idx = 0 if side == +1 else -1
        return float(branch.alpha[idx]), float(branch.u[idx])

    def polyline(self) -> tuple:
        """(alpha, u, du) samples in traversal order."""
        b = self.branch
        if self.direction == -1:
            return b.alpha[::-1], b.u[::-1], b.du[::-1]
        return b.alpha, b.u, b.du


@dataclass
class Junction:
    alpha_star: float
    kind: str                    # "smooth_join" or "cap"
    left_case: CaseTag
    right_case: CaseTag
    u_gap: float
    du_gap: float
    k1_left: float
    k1_right: float
    smoothness: Smoothness


@dataclass
class AxisPoint:
    u: float
    case: CaseTag
    u2_limit_exists: bool
    curvatures_extend: bool


@dataclass
class AssembledSurface:
    arcs: list
    junctions: list
    topology: Topology
    axis_points: list
    p: NormParameter
    lam: float
    mu: float
    period: float | None = None          # u-translation of one period
    end_derivative_match: float | None = None
    may_be_torus: bool = False
    constants: dict = field(default_factory=dict)
    closure_gap: float | None = None

    def profile_polyline(self) -> tuple:
        """(alpha, u, du) of the whole chain, arc after arc."""
        columns = zip(*(arc.polyline() for arc in self.arcs))
        return tuple(np.concatenate(col) for col in columns)


# ---------------------------------------------------------------------------
# branch helpers


def reflect_branch(branch: ProfileBranch) -> ProfileBranch:
    """Mirror u about the anchor value: the opposite-sign branch."""
    u0 = branch.anchor[1]
    req = replace(branch.request, sign=-branch.request.sign)
    return replace(branch, request=req, u=2.0 * u0 - branch.u, du=-branch.du)


def _shift_branch(branch: ProfileBranch, delta: float) -> ProfileBranch:
    if delta == 0.0:
        return branch
    return replace(branch, u=branch.u + delta,
                   anchor=(branch.anchor[0], branch.anchor[1] + delta))


# ---------------------------------------------------------------------------
# one-sided limits


def _extrapolate(y: Callable[[float], float], h: float, p: float) -> float:
    """The limit at h -> 0 of y(h) = y(0) + c*h^p, one Richardson step
    from y(h) and y(h/2); y(h/2) where p = 0."""
    y1, y2 = y(h), y(h / 2.0)
    if p == 0.0:
        return y2
    r = 2.0 ** (-p)
    return (y2 - r * y1) / (1.0 - r)


def _u2_limit(branch: ProfileBranch, a_star: float, side: int) -> float:
    """One-sided limit of u'' at a smooth endpoint; side=-1 from below."""
    width = branch.domain.upper - branch.domain.lower
    v0 = _slope_at(branch, a_star)
    return _extrapolate(
        lambda h: (v0 - branch.uprime(a_star + side * h)) / (-side * h),
        1e-5 * max(1.0, width), 1.0)


def _slope_at(branch: ProfileBranch, a: float) -> float:
    """u'(a), or 0 at a smooth end of the domain."""
    if branch.domain.lower < a < branch.domain.upper:
        return branch.uprime(a)
    return 0.0


def _inv_d1_limit(branch: ProfileBranch, a_star: float, side: int,
                  m: int) -> float:
    """Limit of d(alpha)/du = 1/u' at a cap, where 1/u' ~ dist^p at a
    simple root."""
    width = branch.domain.upper - branch.domain.lower
    return _extrapolate(lambda h: 1.0 / branch.uprime(a_star + side * h),
                        1e-6 * width, (2 * m - 1) / (2 * m))


def _inv_d2_limit(branch: ProfileBranch, a_star: float, side: int,
                  m: int) -> float:
    """Limit of the inverse-chart second derivative -u''/(u')^3 at a cap,
    which decays at the rate (m-1)/m."""
    width = branch.domain.upper - branch.domain.lower

    def y(h: float) -> float:
        a = a_star + side * h
        up = branch.uprime(a)
        return -branch.fd_second(a, 0.05 * h) / up ** 3

    return _extrapolate(y, 1e-3 * width, (m - 1) / m)


def _oriented_curvatures(p: NormParameter, arc: Arc, a: float) -> float:
    """The arc's k1 at a, signed by its direction."""
    branch = arc.branch
    lo, hi = branch.domain.lower, branch.domain.upper
    d1 = branch.uprime(a)
    # a floor of 1e-9 of the width, not fd_step's default: the junctions'
    # recorded k1 values are graded with it
    d2 = branch.fd_second(a, fd_step(a, lo, hi, 1e-9 * (hi - lo)))
    k = principal_curvatures(p, a, d1, d2)
    return arc.direction * k.k1


# ---------------------------------------------------------------------------
# junction evaluation


def _evaluate_junction(p: NormParameter, left: Arc, right: Arc) -> Junction:
    """Grade the point where ``left`` ends and ``right`` starts: a cap
    where that end is a simple root, a smooth join anywhere else."""
    a_star, end_kind, lside = left.end_record(first=False)
    rside = right.end_record(first=True)[2]
    kind = "cap" if end_kind is EndpointKind.SIMPLE_ROOT else "smooth_join"
    lb, rb = left.branch, right.branch
    lw = lb.domain.upper - lb.domain.lower
    rw = rb.domain.upper - rb.domain.lower
    u_gap = abs(left.end[1] - right.start[1])

    if kind == "smooth_join":
        du_gap = abs(_slope_at(lb, a_star) - _slope_at(rb, a_star))
        d2l = _u2_limit(lb, a_star, lside)
        d2r = _u2_limit(rb, a_star, rside)
    else:
        du_gap = abs(_inv_d1_limit(lb, a_star, lside, p.m)
                     - _inv_d1_limit(rb, a_star, rside, p.m))
        d2l = _inv_d2_limit(lb, a_star, lside, p.m)
        d2r = _inv_d2_limit(rb, a_star, rside, p.m)

    h_eval = 1e-3 * min(lw, rw)
    k1l = _oriented_curvatures(p, left, a_star + lside * h_eval)
    k1r = _oriented_curvatures(p, right, a_star + rside * h_eval)

    d2_scale = max(1.0, abs(d2l), abs(d2r))
    if u_gap > 1e-8 or du_gap > 1e-6:
        verdict = Smoothness.SINGULAR
    elif abs(d2l - d2r) > 1e-4 * d2_scale:
        verdict = Smoothness.C1
    elif abs(k1l - k1r) > 1e-2 * max(1.0, abs(k1l), abs(k1r)):
        verdict = Smoothness.C2_WITH_CURVATURE_JUMP
    else:
        verdict = Smoothness.C2
    return Junction(alpha_star=a_star, kind=kind, left_case=lb.case,
                    right_case=rb.case, u_gap=u_gap, du_gap=du_gap,
                    k1_left=k1l, k1_right=k1r, smoothness=verdict)


# ---------------------------------------------------------------------------
# axis smoothness (analytic verdicts)

_AXIS_TRUE_TRUE = {
    CaseTag.SPHERE_TRANSLATE, CaseTag.GEN_POS_MINUS_SPHERE,
    CaseTag.GEN_MID_MINUS_SPHERE, CaseTag.GEN_LOW_PLUS_SPHERE,
    CaseTag.GEN_LOW_PLUS_POS, CaseTag.GEN_LOW_PLUS_SUB,
    CaseTag.GEN_LOW_PLUS_DOUBLE_INNER, CaseTag.GEN_LOW_PLUS_TWO_INNER,
}
_AXIS_TRUE_FALSE = {
    CaseTag.LM1_SUB, CaseTag.LM1_DOUBLE_INNER, CaseTag.LM1_TWO_INNER,
}
_AXIS_THRESHOLD = {
    CaseTag.GEN_MID_PLUS_SUB, CaseTag.GEN_MID_PLUS_DOUBLE_INNER,
    CaseTag.GEN_MID_PLUS_TWO_INNER, CaseTag.GEN_MID_MINUS_INNER,
}


def axis_smoothness(p: NormParameter, case: CaseTag, lam: float) -> AxisPoint:
    """Analytic axis verdicts: does u'' extend, do the curvatures extend.

    The profile reaches alpha = 0 with u' -> 0; u'' has a limit exactly
    when the leading power (2m-1)(-lam) of u' is at least 1, and the
    curvatures extend only when the parallel curvature stays bounded.
    """
    if case is CaseTag.HOM_NEG:
        return AxisPoint(math.nan, case,
                         (2 * p.m - 1) * (-lam) >= 1.0, -lam >= 1.0)
    if case in _AXIS_TRUE_TRUE:
        return AxisPoint(math.nan, case, True, True)
    if case in _AXIS_TRUE_FALSE:
        return AxisPoint(math.nan, case, True, False)
    if case in _AXIS_THRESHOLD:
        return AxisPoint(math.nan, case,
                         (2 * p.m - 1) * (-lam) >= 1.0, False)
    raise ValueError(f"case {case.value} has no axis endpoint")


# ---------------------------------------------------------------------------
# chain assembly


def _chain(arcs: list) -> list:
    """Shift each arc so that it starts where the one before it ends."""
    out = [arcs[0]]
    for arc in arcs[1:]:
        prev_end = out[-1].end
        delta = prev_end[1] - arc.start[1]
        out.append(Arc(_shift_branch(arc.branch, delta), arc.direction))
    return out


def _chain_ends(p: NormParameter, arcs: list) -> tuple:
    """(topology, axis points) of an open chain whose two ends sit at the
    same endpoint kind: sphere-like exactly when it ends on the axis."""
    if arcs[0].end_record(first=True)[1] is not EndpointKind.AXIS_ZERO:
        return Topology.OPEN_ANNULUS, []
    ends = ((arcs[0], arcs[0].start), (arcs[-1], arcs[-1].end))
    return Topology.SPHERE_LIKE, [
        replace(axis_smoothness(p, arc.branch.case, arc.branch.lam), u=pt[1])
        for arc, pt in ends]


def _require(cond: bool, equation: str) -> None:
    if not cond:
        raise GluingMismatch(f"matching equation violated: {equation}")


class RecipeRow(NamedTuple):
    """Cases, arcs as (branch 0 or 1, sign, direction) in chain order,
    the lam both cases are solved at (None: the requested one), and
    whether c1 is critical_c1(lam), of a two-case recipe."""

    first: CaseTag
    second: CaseTag
    arcs: tuple
    lam: float | None = None
    critical_c1: bool = False


# like-signed (k1 jumps at the joins), cross, and periodic (cap, rise,
# join, fall, cap; repeats in u) arc orders
_LIKE_SIGNED = ((0, +1, +1), (1, +1, +1), (1, -1, -1), (0, -1, -1))
_CROSS = ((0, +1, +1), (1, -1, +1), (1, +1, -1), (0, -1, -1))
_PERIODIC = ((0, -1, -1), (0, +1, +1), (1, -1, +1), (1, +1, -1))

# topology, pieces and constants follow from the row.  An open chain
# closes into a sphere when it ends on the axis, and runs off to |u| =
# infinity when it ends at a double root.  The torus is the one closed
# chain: a cross chain closed by a cap at its start.
RECIPE_TABLE = {
    Recipe.TORUS_4III: RecipeRow(CaseTag.K1_CONST_PLUS,
                                 CaseTag.K1_CONST_MINUS, _CROSS, 0.0),
    Recipe.C1_1: RecipeRow(CaseTag.LM1_SUB, CaseTag.LM1_NEG, _LIKE_SIGNED,
                           -1.0),
    Recipe.C1_2: RecipeRow(CaseTag.LM1_SUB, CaseTag.LM1_NEG, _CROSS, -1.0),
    Recipe.C2: RecipeRow(CaseTag.LM1_DOUBLE_OUTER, CaseTag.LM1_NEG, _CROSS,
                         -1.0, True),
    Recipe.C3: RecipeRow(CaseTag.LM1_TWO_OUTER, CaseTag.LM1_NEG, _PERIODIC,
                         -1.0),
    Recipe.C4: RecipeRow(CaseTag.GEN_POS_PLUS, CaseTag.GEN_POS_MINUS_OUTER,
                         _PERIODIC),
    Recipe.C5: RecipeRow(CaseTag.GEN_MID_PLUS_SUB,
                         CaseTag.GEN_MID_MINUS_OUTER, _CROSS),
    Recipe.C6: RecipeRow(CaseTag.GEN_MID_PLUS_DOUBLE_OUTER,
                         CaseTag.GEN_MID_MINUS_OUTER, _CROSS, None, True),
    Recipe.C7: RecipeRow(CaseTag.GEN_MID_PLUS_TWO_OUTER,
                         CaseTag.GEN_MID_MINUS_OUTER, _PERIODIC),
    Recipe.C8: RecipeRow(CaseTag.GEN_LOW_PLUS_SUB, CaseTag.GEN_LOW_MINUS,
                         _CROSS),
    Recipe.C9: RecipeRow(CaseTag.GEN_LOW_PLUS_DOUBLE_OUTER,
                         CaseTag.GEN_LOW_MINUS, _CROSS, None, True),
    Recipe.C10: RecipeRow(CaseTag.GEN_LOW_PLUS_TWO_OUTER,
                          CaseTag.GEN_LOW_MINUS, _PERIODIC),
}


def glue(bplus: ProfileBranch, bminus: ProfileBranch,
         recipe: Recipe) -> AssembledSurface:
    """Assemble two branches (and their reflections) per a named recipe.

    Each pair of consecutive arcs meets at a junction; a torus chain also
    closes from its last arc back to its first.
    """
    p = bplus.request.p
    closed = recipe is Recipe.TORUS_4III
    if recipe is Recipe.CAP:
        b1, arcs, constants = _cap_arcs(bplus, bminus)
    elif recipe in RECIPE_TABLE:
        want1, want2, row_arcs, *_ = RECIPE_TABLE[recipe]
        b1, b2 = bplus, bminus
        if b1.case is want2 and b2.case is want1:
            b1, b2 = b2, b1
        _require(b1.case is want1 and b2.case is want2,
                 f"{recipe.value} connects cases {want1.value} and "
                 f"{want2.value}")
        _require(b1.request.p.m == b2.request.p.m, "equal norm exponent m")
        _require(_near(b1.lam, b2.lam, 1e-9), "equal lambda")
        _require(_near(b2.request.c1, -b1.request.c1, 1e-9), "c1* = -c1")
        a_star = b1.domain.upper
        _require(_near(a_star, b2.domain.lower, 1e-9),
                 "shared smooth endpoint alpha (e.g. alpha_4 = alpha_8)")
        if closed:
            _require(b1.request.c1 > 1.0, "c1 > 1 (profile clears the axis)")
        arcs = []
        for i, sign, d in row_arcs:
            b = (b1, b2)[i]
            arcs.append(Arc(b if b.request.sign == sign
                            else reflect_branch(b), d))
        constants = ({"c1": b1.request.c1} if closed else
                     {"alpha_star": a_star, "d_first": b1.span,
                      "d_second": b2.span})
    else:
        raise ValueError(f"unknown recipe {recipe}")

    arcs = _chain(arcs)
    junctions = [_evaluate_junction(p, left, right) for left, right
                 in zip(arcs, arcs[1:] + arcs[:1] if closed else arcs[1:])]
    topology, axis_points = ((Topology.TORUS, []) if closed
                             else _chain_ends(p, arcs))
    surface = AssembledSurface(
        arcs=arcs, junctions=junctions, topology=topology,
        axis_points=axis_points, p=p, lam=b1.lam, mu=b1.mu,
        constants=constants)
    if closed:
        (a0, u0), (a1, u1) = arcs[0].start, arcs[-1].end
        surface.closure_gap = math.hypot(a0 - a1, u0 - u1)
    else:
        _mark_extendable(surface)
    return surface


def _cap_arcs(bplus: ProfileBranch, bminus: ProfileBranch) -> tuple:
    """(plus branch, arcs, constants) of the cap recipe: the + and -
    branch of one case, joined at the simple root they are anchored at."""
    _require(bplus.case is bminus.case, "cap joins branches of one case")
    _require(_near(bplus.request.c1, bminus.request.c1, 1e-9), "equal c1")
    _require(bplus.request.sign != bminus.request.sign, "opposite signs")
    if bplus.request.sign == -1:
        bplus, bminus = bminus, bplus
    # align the minus branch to the same cap value
    bminus = _shift_branch(bminus, bplus.anchor[1] - bminus.anchor[1])
    plus, minus = Arc(bplus, +1), Arc(bminus, -1)
    for first, arcs in ((True, [minus, plus]), (False, [plus, minus])):
        a, kind, _ = plus.end_record(first)
        if (kind is EndpointKind.SIMPLE_ROOT
                and _near(bplus.anchor[0], a, 1e-9)):
            return bplus, arcs, {"alpha_star": bplus.anchor[0],
                                 "d": bplus.span}
    raise GluingMismatch(
        "matching equation violated: cap recipe needs the branch anchored "
        "at a simple-root endpoint")


def _mark_extendable(surface: AssembledSurface) -> None:
    """Set the period of an open chain that repeats: its two ends sit at
    one alpha and one kind, and the chain passes through that end.  At a
    smooth cap alpha keeps its direction, at a simple root it turns."""
    first, last = surface.arcs[0], surface.arcs[-1]
    a0, k0, s0 = first.end_record(first=True)
    a1, k1, s1 = last.end_record(first=False)
    turns = k0 is EndpointKind.SIMPLE_ROOT
    if (k0 not in (EndpointKind.SMOOTH_CAP, EndpointKind.SIMPLE_ROOT)
            or k1 is not k0 or not _near(a0, a1, 1e-9)
            or (first.direction == last.direction) == turns):
        return
    if turns:
        m = surface.p.m
        match = abs(_inv_d1_limit(first.branch, a0, s0, m)
                    - _inv_d1_limit(last.branch, a1, s1, m))
    else:
        match = abs(_slope_at(first.branch, a0)) + abs(_slope_at(last.branch, a1))
    surface.end_derivative_match = match
    surface.period = abs(first.start[1] - last.end[1])


def extend_periodic(surface: AssembledSurface) -> AssembledSurface:
    """Periodic extension of an open chain whose ends match derivatives.

    A closed chain (torus) is returned unchanged.  A near-zero period is
    the d-constant coincidence: the topology is upgraded to a torus with
    the may_be_torus flag set, never silently.
    """
    if surface.topology is Topology.TORUS:
        return surface
    if surface.period is None or surface.end_derivative_match is None:
        raise NotPeriodic("chain ends do not sit at a common alpha with "
                          "matching one-sided derivatives")
    if surface.end_derivative_match > 1e-8:
        raise NotPeriodic(
            f"end derivative mismatch {surface.end_derivative_match:.3e}")
    out = replace(surface)
    if surface.period < 1e-9:
        out.topology = Topology.TORUS
        out.may_be_torus = True
    else:
        out.topology = Topology.PERIODIC_TUBE
    return out


def cylinder(p: NormParameter, radius: float, height: float = 1.0) -> AssembledSurface:
    """Circular cylinder alpha = radius: the k1 = 0 surface.  The radius
    must be finite and positive, the height finite (it may be negative)."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if not math.isfinite(height):
        raise ValueError(f"height must be finite, got {height}")
    return AssembledSurface(
        arcs=[], junctions=[], topology=Topology.CYLINDER, axis_points=[],
        p=p, lam=0.0, mu=0.0,
        constants={"radius": radius, "height": height,
                   "k2": -1.0 / radius})
