"""Gluing of signed profile branches into complete rotational surfaces.

A single branch u(alpha) is monotone and only covers one sweep of the
profile.  Full surfaces arise by joining the + and - branches at a cap
(where u' blows up), by joining two different cases at a shared smooth
endpoint (where u' = 0), or by periodic extension.  Each junction carries
a numeric smoothness verdict obtained from one-sided derivative limits,
computed in the chart where the quantities stay finite: u(alpha) at smooth
joins, the inverse alpha(u) at caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .normgeom import Chart, NormParameter, ProfileJet, principal_curvatures
from .quadrature import EndpointKind
from .solver import CaseTag, ProfileBranch

__all__ = [
    "Smoothness",
    "Topology",
    "Recipe",
    "Chain",
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
        return self.endpoint(first=True)

    @property
    def end(self) -> tuple:
        return self.endpoint(first=False)

    def endpoint(self, first: bool) -> tuple:
        lower_side = (self.direction == +1) == first
        side = "lower" if lower_side else "upper"
        return _endpoint_point(self.branch, side)

    def polyline(self) -> tuple:
        a, u = self.branch.alpha, self.branch.u
        if self.direction == -1:
            a, u = a[::-1], u[::-1]
        return a, u


@dataclass
class Junction:
    alpha_star: float
    kind: str                    # "smooth_join" or "cap"
    left_case: CaseTag
    right_case: CaseTag
    u_gap: float
    du_gap: float
    d2_left: float
    d2_right: float
    k1_left: float
    k1_right: float
    k2_left: float
    k2_right: float
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
        alphas, us = [], []
        for arc in self.arcs:
            a, u = arc.polyline()
            alphas.append(a)
            us.append(u)
        return np.concatenate(alphas), np.concatenate(us)


# ---------------------------------------------------------------------------
# branch helpers


def reflect_branch(branch: ProfileBranch) -> ProfileBranch:
    """Mirror u about the anchor value: the opposite-sign branch."""
    u0 = branch.anchor[1]
    inner = branch.uprime

    def uprime(a: float) -> float:
        return -inner(a)

    req = replace(branch.request, sign=-branch.request.sign)
    return replace(branch, request=req, u=2.0 * u0 - branch.u,
                   du=-branch.du, uprime=uprime)


def _shift_branch(branch: ProfileBranch, delta: float) -> ProfileBranch:
    if delta == 0.0:
        return branch
    return replace(branch, u=branch.u + delta,
                   anchor=(branch.anchor[0], branch.anchor[1] + delta))


def _endpoint_point(branch: ProfileBranch, side: str) -> tuple:
    """(alpha, u) limit of the branch at the lower or upper domain end."""
    dom = branch.domain
    a = dom.lower if side == "lower" else dom.upper
    kind = dom.lower_kind if side == "lower" else dom.upper_kind
    a0, u0 = branch.anchor
    if abs(a - a0) <= 1e-9 * max(1.0, abs(a0)):
        return a, u0
    if kind is EndpointKind.DOUBLE_ROOT:
        sgn = branch.request.sign * (1 if side == "upper" else -1)
        return a, math.copysign(math.inf, sgn)
    if kind is EndpointKind.SIMPLE_ROOT and math.isfinite(branch.span):
        sgn = branch.request.sign * (1 if a > a0 else -1)
        return a, u0 + sgn * branch.span
    # smooth / axis / cut endpoints are on the sample grid
    idx = 0 if side == "lower" else -1
    return float(branch.alpha[idx]), float(branch.u[idx])


def _plus_minus(branch: ProfileBranch) -> tuple:
    if branch.request.sign == +1:
        return branch, reflect_branch(branch)
    ref = reflect_branch(branch)
    return ref, branch


# ---------------------------------------------------------------------------
# one-sided limits


def _u2_limit(branch: ProfileBranch, a_star: float, side: int) -> float:
    """One-sided limit of u'' at a smooth endpoint; side=-1 from below."""
    width = branch.domain.upper - branch.domain.lower
    h1 = 1e-5 * max(1.0, width)
    h2 = h1 / 2.0
    v0 = branch.uprime(a_star) if _inside(branch, a_star) else 0.0
    d1 = (v0 - branch.uprime(a_star + side * h1)) / (-side * h1)
    d2 = (v0 - branch.uprime(a_star + side * h2)) / (-side * h2)
    return 2.0 * d2 - d1


def _inside(branch: ProfileBranch, a: float) -> bool:
    return branch.domain.lower < a < branch.domain.upper


def _inv_d1_limit(branch: ProfileBranch, a_star: float, side: int,
                  m: int) -> float:
    """Limit of d(alpha)/du = 1/u' at a cap, power-law extrapolated."""
    width = branch.domain.upper - branch.domain.lower
    h1 = 1e-6 * width
    y1 = 1.0 / branch.uprime(a_star + side * h1)
    y2 = 1.0 / branch.uprime(a_star + side * h1 / 2.0)
    p = (2 * m - 1) / (2 * m)  # 1/u' ~ dist^p at a simple root
    r = 2.0 ** (-p)
    return (y2 - r * y1) / (1.0 - r)


def _inv_d2_limit(branch: ProfileBranch, a_star: float, side: int,
                  m: int) -> float:
    """Limit of the inverse-chart second derivative -u''/(u')^3 at a cap."""
    width = branch.domain.upper - branch.domain.lower
    vals = []
    for h in (1e-3 * width, 5e-4 * width):
        a = a_star + side * h
        up = branch.uprime(a)
        upp = branch.fd_second(a, 0.05 * h)
        vals.append(-upp / up ** 3)
    p = (m - 1) / m  # decay rate of the inverse second derivative
    if p == 0.0:
        return vals[1]
    r = 2.0 ** (-p)
    return (vals[1] - r * vals[0]) / (1.0 - r)


def _oriented_curvatures(p: NormParameter, arc: Arc, a: float) -> tuple:
    branch = arc.branch
    width = branch.domain.upper - branch.domain.lower
    dist = min(a - branch.domain.lower, branch.domain.upper - a)
    h = max(1e-9 * width, 1e-4 * min(max(1.0, abs(a)), dist))
    h = min(h, 0.25 * dist)
    d1 = branch.uprime(a)
    d2 = branch.fd_second(a, h)
    k = principal_curvatures(
        p, ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=d1, d2=d2,
                      radius=a))
    return arc.direction * k.k1, arc.direction * k.k2


# ---------------------------------------------------------------------------
# junction evaluation


def _evaluate_junction(p: NormParameter, left: Arc, right: Arc,
                       a_star: float, kind: str) -> Junction:
    lb, rb = left.branch, right.branch
    lw = lb.domain.upper - lb.domain.lower
    rw = rb.domain.upper - rb.domain.lower
    # side of a_star each branch lives on
    lside = -1 if abs(lb.domain.upper - a_star) < abs(lb.domain.lower - a_star) else +1
    rside = -1 if abs(rb.domain.upper - a_star) < abs(rb.domain.lower - a_star) else +1

    lpt = _endpoint_point(lb, "upper" if lside == -1 else "lower")
    rpt = _endpoint_point(rb, "upper" if rside == -1 else "lower")
    u_gap = abs(lpt[1] - rpt[1])

    if kind == "smooth_join":
        dul = lb.uprime(a_star) if _inside(lb, a_star) else 0.0
        dur = rb.uprime(a_star) if _inside(rb, a_star) else 0.0
        du_gap = abs(dul - dur)
        d2l = _u2_limit(lb, a_star, lside)
        d2r = _u2_limit(rb, a_star, rside)
    else:
        du_gap = abs(_inv_d1_limit(lb, a_star, lside, p.m)
                     - _inv_d1_limit(rb, a_star, rside, p.m))
        d2l = _inv_d2_limit(lb, a_star, lside, p.m)
        d2r = _inv_d2_limit(rb, a_star, rside, p.m)

    h_eval = 1e-3 * min(lw, rw)
    k1l, k2l = _oriented_curvatures(p, left, a_star + lside * h_eval)
    k1r, k2r = _oriented_curvatures(p, right, a_star + rside * h_eval)

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
                    d2_left=d2l, d2_right=d2r, k1_left=k1l, k1_right=k1r,
                    k2_left=k2l, k2_right=k2r, smoothness=verdict)


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


def _chain(arcs: list) -> tuple:
    """Shift arcs so consecutive endpoints agree; returns (arcs, shifts)."""
    out = [arcs[0]]
    for arc in arcs[1:]:
        prev_end = out[-1].end
        delta = prev_end[1] - arc.start[1]
        out.append(Arc(_shift_branch(arc.branch, delta), arc.direction))
    return out


def _chain_ends(p: NormParameter, arcs: list) -> tuple:
    """(topology, axis points) of an open chain whose two ends sit at the
    same endpoint kind: sphere-like exactly when it ends on the axis."""
    _, kind, _ = _end_alpha_kind(arcs[0], first=True)
    if kind is not EndpointKind.AXIS_ZERO:
        return Topology.OPEN_ANNULUS, []
    ends = ((arcs[0], arcs[0].start), (arcs[-1], arcs[-1].end))
    return Topology.SPHERE_LIKE, [
        replace(axis_smoothness(p, arc.branch.case, arc.branch.lam), u=pt[1])
        for arc, pt in ends]


def _require(cond: bool, equation: str) -> None:
    if not cond:
        raise GluingMismatch(f"matching equation violated: {equation}")


def _same(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _cap_side(branch: ProfileBranch) -> str:
    dom = branch.domain
    a0 = branch.anchor[0]
    if dom.lower_kind is EndpointKind.SIMPLE_ROOT and _same(a0, dom.lower):
        return "lower"
    if dom.upper_kind is EndpointKind.SIMPLE_ROOT and _same(a0, dom.upper):
        return "upper"
    raise GluingMismatch(
        "matching equation violated: cap recipe needs the branch anchored "
        "at a simple-root endpoint")


class Chain(Enum):
    """Order of the four arcs of a two-case recipe (b1, b2 and reflections)."""

    LIKE_SIGNED = "like_signed"  # b1+, b2+, b2-, b1-; k1 jumps at the joins
    CROSS = "cross"              # b1+, b2-, b2+, b1-
    PERIODIC = "periodic"        # cap, rise, join, fall, cap; repeats in u


# each two-case recipe: the case of its first and second branch, and how
# the arcs are chained; topology, pieces and constants follow from these.
# A chain closes into a sphere when it ends on the axis, and runs off to
# |u| = infinity when it ends at a double root.
RECIPE_TABLE = {
    Recipe.C1_1: (CaseTag.LM1_SUB, CaseTag.LM1_NEG, Chain.LIKE_SIGNED),
    Recipe.C1_2: (CaseTag.LM1_SUB, CaseTag.LM1_NEG, Chain.CROSS),
    Recipe.C2: (CaseTag.LM1_DOUBLE_OUTER, CaseTag.LM1_NEG, Chain.CROSS),
    Recipe.C3: (CaseTag.LM1_TWO_OUTER, CaseTag.LM1_NEG, Chain.PERIODIC),
    Recipe.C4: (CaseTag.GEN_POS_PLUS, CaseTag.GEN_POS_MINUS_OUTER,
                Chain.PERIODIC),
    Recipe.C5: (CaseTag.GEN_MID_PLUS_SUB, CaseTag.GEN_MID_MINUS_OUTER,
                Chain.CROSS),
    Recipe.C6: (CaseTag.GEN_MID_PLUS_DOUBLE_OUTER, CaseTag.GEN_MID_MINUS_OUTER,
                Chain.CROSS),
    Recipe.C7: (CaseTag.GEN_MID_PLUS_TWO_OUTER, CaseTag.GEN_MID_MINUS_OUTER,
                Chain.PERIODIC),
    Recipe.C8: (CaseTag.GEN_LOW_PLUS_SUB, CaseTag.GEN_LOW_MINUS, Chain.CROSS),
    Recipe.C9: (CaseTag.GEN_LOW_PLUS_DOUBLE_OUTER, CaseTag.GEN_LOW_MINUS,
                Chain.CROSS),
    Recipe.C10: (CaseTag.GEN_LOW_PLUS_TWO_OUTER, CaseTag.GEN_LOW_MINUS,
                 Chain.PERIODIC),
}


def glue(bplus: ProfileBranch, bminus: ProfileBranch,
         recipe: Recipe) -> AssembledSurface:
    """Assemble two branches (and their reflections) per a named recipe."""
    p = bplus.request.p
    if recipe is Recipe.CAP:
        return _glue_cap(p, bplus, bminus)
    if recipe is Recipe.TORUS_4III:
        return _glue_torus_4iii(p, bplus, bminus)
    if recipe not in RECIPE_TABLE:
        raise ValueError(f"unknown recipe {recipe}")
    want1, want2, chain = RECIPE_TABLE[recipe]
    b1, b2 = bplus, bminus
    if b1.case is want2 and b2.case is want1:
        b1, b2 = b2, b1
    _require(b1.case is want1 and b2.case is want2,
             f"{recipe.value} connects cases {want1.value} and {want2.value}")
    _require(b1.request.p.m == b2.request.p.m, "equal norm exponent m")
    _require(_same(b1.lam, b2.lam), "equal lambda")
    _require(_same(b2.request.c1, -b1.request.c1), "c1* = -c1")

    a_star = b1.domain.upper
    _require(_same(a_star, b2.domain.lower),
             "shared smooth endpoint alpha (e.g. alpha_4 = alpha_8)")

    b1p, b1m = _plus_minus(b1)
    b2p, b2m = _plus_minus(b2)
    if chain is Chain.PERIODIC:
        arcs = [Arc(b1m, -1), Arc(b1p, +1), Arc(b2m, +1), Arc(b2p, -1)]
        junctions_at = [(b1.anchor[0], "cap"), (a_star, "smooth_join"),
                        (b2.anchor[0], "cap")]
    else:
        rise, fall = (b2p, b2m) if chain is Chain.LIKE_SIGNED else (b2m, b2p)
        arcs = [Arc(b1p, +1), Arc(rise, +1), Arc(fall, -1), Arc(b1m, -1)]
        junctions_at = [(a_star, "smooth_join"), (b2.domain.upper, "cap"),
                        (a_star, "smooth_join")]
    arcs = _chain(arcs)
    junctions = [_evaluate_junction(p, arcs[i], arcs[i + 1], a, kind)
                 for i, (a, kind) in enumerate(junctions_at)]
    topology, axis_points = _chain_ends(p, arcs)
    surface = AssembledSurface(
        arcs=arcs, junctions=junctions, topology=topology,
        axis_points=axis_points, p=p, lam=b1.lam, mu=b1.mu,
        constants={"alpha_star": a_star,
                   "d_first": b1.span, "d_second": b2.span})
    if chain is Chain.PERIODIC:
        _mark_extendable(surface)
    return surface


def _glue_cap(p: NormParameter, bplus: ProfileBranch,
              bminus: ProfileBranch) -> AssembledSurface:
    _require(bplus.case is bminus.case, "cap joins branches of one case")
    _require(_same(bplus.request.c1, bminus.request.c1), "equal c1")
    _require(bplus.request.sign != bminus.request.sign, "opposite signs")
    if bplus.request.sign == -1:
        bplus, bminus = bminus, bplus
    side = _cap_side(bplus)
    a_star = bplus.anchor[0]
    # align the minus branch to the same cap value
    bminus = _shift_branch(bminus, bplus.anchor[1] - bminus.anchor[1])
    if side == "lower":
        arcs = [Arc(bminus, -1), Arc(bplus, +1)]
    else:
        arcs = [Arc(bplus, +1), Arc(bminus, -1)]
    junctions = [_evaluate_junction(p, arcs[0], arcs[1], a_star, "cap")]

    topology, axis_points = _chain_ends(p, arcs)
    surface = AssembledSurface(
        arcs=arcs, junctions=junctions, topology=topology,
        axis_points=axis_points, p=p, lam=bplus.lam, mu=bplus.mu,
        constants={"alpha_star": a_star, "d": bplus.span})
    far_kind = (bplus.domain.upper_kind if side == "lower"
                else bplus.domain.lower_kind)
    if far_kind is EndpointKind.SIMPLE_ROOT:
        _mark_extendable(surface)
    return surface


def _glue_torus_4iii(p: NormParameter, b1: ProfileBranch,
                     b2: ProfileBranch) -> AssembledSurface:
    if b1.case is CaseTag.K1_CONST_MINUS and b2.case is CaseTag.K1_CONST_PLUS:
        b1, b2 = b2, b1
    _require(b1.case is CaseTag.K1_CONST_PLUS
             and b2.case is CaseTag.K1_CONST_MINUS,
             "torus joins the two constant-k1 arc families")
    _require(b1.request.c1 > 1.0, "c1 > 1 (profile clears the axis)")
    _require(_same(b2.request.c1, -b1.request.c1), "c3 = -c1")
    c1 = b1.request.c1
    b1p, b1m = _plus_minus(b1)
    b2p, b2m = _plus_minus(b2)
    # quarter arcs: up the left side, across the top, down the right,
    # back along the bottom
    arcs = _chain([Arc(b1p, +1), Arc(b2m, +1), Arc(b2p, -1), Arc(b1m, -1)])
    junctions = [
        _evaluate_junction(p, arcs[0], arcs[1], c1, "smooth_join"),
        _evaluate_junction(p, arcs[1], arcs[2], c1 + 1.0, "cap"),
        _evaluate_junction(p, arcs[2], arcs[3], c1, "smooth_join"),
    ]
    start, end = arcs[0].start, arcs[-1].end
    gap = math.hypot(start[0] - end[0], start[1] - end[1])
    closing = _evaluate_junction(p, arcs[-1], arcs[0], c1 - 1.0, "cap")
    junctions.append(closing)
    surface = AssembledSurface(
        arcs=arcs, junctions=junctions, topology=Topology.TORUS,
        axis_points=[], p=p, lam=0.0, mu=b1.mu,
        constants={"c1": c1}, closure_gap=gap)
    return surface


def _end_alpha_kind(arc: Arc, first: bool) -> tuple:
    branch = arc.branch
    lower_side = (arc.direction == +1) == first
    kind = (branch.domain.lower_kind if lower_side
            else branch.domain.upper_kind)
    a = branch.domain.lower if lower_side else branch.domain.upper
    side = +1 if lower_side else -1  # interior direction from the endpoint
    return a, kind, side


def _mark_extendable(surface: AssembledSurface) -> None:
    first, last = surface.arcs[0], surface.arcs[-1]
    a0, k0, s0 = _end_alpha_kind(first, first=True)
    a1, k1, s1 = _end_alpha_kind(last, first=False)
    if not _same(a0, a1) or k0 is not k1:
        return
    if k0 is EndpointKind.SMOOTH_CAP:
        match = abs(first.branch.uprime(a0) if _inside(first.branch, a0) else 0.0) \
            + abs(last.branch.uprime(a1) if _inside(last.branch, a1) else 0.0)
    elif k0 is EndpointKind.SIMPLE_ROOT:
        m = surface.p.m
        match = abs(_inv_d1_limit(first.branch, a0, s0, m)
                    - _inv_d1_limit(last.branch, a1, s1, m))
    else:
        return
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
    """Circular cylinder alpha = radius: the k1 = 0 surface."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return AssembledSurface(
        arcs=[], junctions=[], topology=Topology.CYLINDER, axis_points=[],
        p=p, lam=0.0, mu=0.0,
        constants={"radius": radius, "height": height,
                   "k2": -1.0 / radius})
