"""Classification and construction of linear Weingarten profile curves.

A rotational surface satisfies k1 + lam*k2 = mu exactly when its profile
u(alpha) is given by an explicit integral whose integrand depends on
(m, lam, mu) and one integration constant.  This module classifies the
admissible parameter ranges into a fixed case taxonomy, determines the
maximal alpha-intervals with their endpoint behavior, and samples each
signed branch either from a closed form (cylinder, spheres, constant-k1
arcs) or through the singular quadrature engine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .quadrature import (
    DomainInterval,
    EndpointKind,
    IntegrandSpec,
    _build_grid,
    bracket_roots,
    double_root_factor,
    integrate_singular,
    profile_from_integral,
)

__all__ = [
    "RelationForm",
    "WeingartenRelation",
    "CaseTag",
    "SolveRequest",
    "ProfileBranch",
    "NoSurfaceError",
    "IllConditionedWarning",
    "classify",
    "critical_c1",
    "solve",
    "solve_constant_k2",
    "solve_constant_k1",
    "solve_homogeneous",
    "solve_inhom_lambda_minus1",
    "solve_inhom_general",
]

EQUALITY_RTOL = 1e-12
ILL_CONDITIONED_RTOL = 1e-4


class NoSurfaceError(ValueError):
    """No admissible profile exists; the message names the failed inequality."""


class IllConditionedWarning(UserWarning):
    """Constants sit close to a taxonomy boundary; results may be unstable."""


class RelationForm(Enum):
    K1_ZERO = "k1_zero"                      # cylinder
    K2_CONST = "k2_const"                    # translated sphere
    K1_CONST = "k1_const"                    # lam = 0, mu != 0
    HOMOGENEOUS = "homogeneous"              # mu = 0, lam != 0
    INHOM_LAMBDA_MINUS1 = "inhom_lambda_minus1"
    INHOM_GENERAL = "inhom_general"          # lam not in {0, -1}, mu != 0


@dataclass(frozen=True)
class WeingartenRelation:
    """Normalized linear relation k1 + lam*k2 = mu between the curvatures."""

    form: RelationForm
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        f = self.form
        if f is RelationForm.HOMOGENEOUS and self.lam == 0.0:
            raise ValueError("homogeneous relation needs lam != 0")
        if f is RelationForm.K1_CONST and self.mu == 0.0:
            raise ValueError("constant-k1 relation needs mu != 0")
        if f is RelationForm.INHOM_LAMBDA_MINUS1 and self.mu == 0.0:
            raise ValueError("lam = -1 relation needs mu != 0")
        if f is RelationForm.INHOM_GENERAL:
            if self.mu == 0.0 or self.lam in (0.0, -1.0):
                raise ValueError("general relation needs mu != 0, lam not in {0,-1}")

    @staticmethod
    def k1_zero() -> "WeingartenRelation":
        return WeingartenRelation(RelationForm.K1_ZERO)

    @staticmethod
    def k2_const() -> "WeingartenRelation":
        return WeingartenRelation(RelationForm.K2_CONST, lam=math.inf, mu=-1.0)

    @staticmethod
    def k1_const(mu: float) -> "WeingartenRelation":
        return WeingartenRelation(RelationForm.K1_CONST, lam=0.0, mu=mu)

    @staticmethod
    def homogeneous(lam: float) -> "WeingartenRelation":
        return WeingartenRelation(RelationForm.HOMOGENEOUS, lam=lam, mu=0.0)

    @staticmethod
    def linear(lam: float, mu: float) -> "WeingartenRelation":
        """General k1 + lam*k2 = mu, dispatching on the special values."""
        if mu == 0.0:
            if lam == 0.0:
                return WeingartenRelation.k1_zero()
            return WeingartenRelation.homogeneous(lam)
        if lam == 0.0:
            return WeingartenRelation.k1_const(mu)
        if lam == -1.0:
            return WeingartenRelation(RelationForm.INHOM_LAMBDA_MINUS1,
                                      lam=lam, mu=mu)
        return WeingartenRelation(RelationForm.INHOM_GENERAL, lam=lam, mu=mu)


class CaseTag(Enum):
    CYLINDER = "4i"
    SPHERE_TRANSLATE = "4ii"
    K1_CONST_PLUS = "4iii-1"
    K1_CONST_MINUS = "4iii-2"
    HOM_POS_FAST = "5i-1"
    HOM_POS_SLOW = "5i-2"
    HOM_NEG = "5ii"
    LM1_SUB = "6.1i-1"
    LM1_DOUBLE_INNER = "6.1i-2-1"
    LM1_DOUBLE_OUTER = "6.1i-2-2"
    LM1_TWO_INNER = "6.1i-3-1"
    LM1_TWO_OUTER = "6.1i-3-2"
    LM1_NEG = "6.1ii"
    GEN_POS_PLUS = "6.3i"
    GEN_POS_MINUS_SPHERE = "6.3ii-1"
    GEN_POS_MINUS_BAND = "6.3ii-2"
    GEN_POS_MINUS_OUTER = "6.3ii-3"
    GEN_MID_PLUS_SUB = "6.3iii-1"
    GEN_MID_PLUS_DOUBLE_INNER = "6.3iii-2-1"
    GEN_MID_PLUS_DOUBLE_OUTER = "6.3iii-2-2"
    GEN_MID_PLUS_TWO_INNER = "6.3iii-3-1"
    GEN_MID_PLUS_TWO_OUTER = "6.3iii-3-2"
    GEN_MID_MINUS_SPHERE = "6.3iv-1"
    GEN_MID_MINUS_INNER = "6.3iv-2"
    GEN_MID_MINUS_OUTER = "6.3iv-3"
    GEN_LOW_PLUS_SPHERE = "6.3v-1"
    GEN_LOW_PLUS_POS = "6.3v-2"
    GEN_LOW_PLUS_SUB = "6.3v-3-1"
    GEN_LOW_PLUS_DOUBLE_INNER = "6.3v-3-2-1"
    GEN_LOW_PLUS_DOUBLE_OUTER = "6.3v-3-2-2"
    GEN_LOW_PLUS_TWO_INNER = "6.3v-3-3-1"
    GEN_LOW_PLUS_TWO_OUTER = "6.3v-3-3-2"
    GEN_LOW_MINUS = "6.3vi"


@dataclass(frozen=True)
class SolveRequest:
    """One branch-construction job.

    ``c1`` is the first integration constant of the normalized (|mu| = 1)
    problem; for the homogeneous relation ``c2`` plays that role.  ``shift``
    is the additive axis constant.  General |mu| != 1 inputs are solved in
    normalized form and rescaled by 1/|mu| afterwards.
    """

    p: object  # NormParameter
    relation: WeingartenRelation
    c1: float = 0.0
    c2: float = 1.0
    shift: float = 0.0
    sign: int = +1
    samples: int = 512
    tol: float = 1e-10
    alpha_max_factor: float = 4.0


@dataclass
class ProfileBranch:
    """One signed monotone branch u(alpha) with its sample table.

    ``slope`` is the unsigned slope of the normalized (|mu| = 1) profile:
    the IntegrandSpec of a quadrature branch, the NormCircle of a closed
    form.  The signed physical slope, the relation constants and the
    reflected branch are all derived from it, ``request`` and ``scale``.
    """

    request: SolveRequest
    case: CaseTag
    domain: DomainInterval
    alpha: np.ndarray
    u: np.ndarray
    du: np.ndarray
    slope: Callable[[float], float]
    anchor: tuple
    span: float = math.inf       # total |u|-variation over the domain
    quad_error: float = 0.0
    scale: float = 1.0           # homothety applied after normalization

    @property
    def lam(self) -> float:
        return self.request.relation.lam

    @property
    def mu(self) -> float:
        """mu of the normalized relation; the physical one is mu / scale."""
        return self.request.relation.mu

    def uprime(self, a: float) -> float:
        """Signed slope u'(a) of the branch as sampled (after rescaling)."""
        return self.request.sign * self.slope(float(a) / self.scale)

    def fd_second(self, a: float, h: float) -> float:
        """u''(a) from the closed-form slope by a central 5-point stencil."""
        f = self.uprime
        return (-f(a + 2 * h) + 8 * f(a + h)
                - 8 * f(a - h) + f(a - 2 * h)) / (12 * h)


@dataclass(frozen=True)
class NormCircle:
    """Unsigned slope of the norm circle w^2m + (k*(u - shift))^2m = R^2m.

    Here w = c - k*alpha.  Spheres are (c, k, R) = (0, -1, r) and the
    constant-k1 arcs are (c1, mu, 1).  w is kept in this uncentred form:
    numpy's array power rounds (a - c)^2m and (c - a)^2m differently.
    """

    c: float
    k: float
    R: float
    m: int

    def __call__(self, a: float) -> float:
        q = 2 * self.m - 1
        w = self.c - self.k * a
        return w ** q * (self.R ** (2 * self.m) - w ** (2 * self.m)) \
            ** (-q / (2 * self.m))

    def height(self, alpha):
        """u - shift on the + branch, (R^2m - w^2m)^(1/2m) / k."""
        w = self.c - self.k * np.asarray(alpha)
        return (self.R ** (2 * self.m) - w ** (2 * self.m)) \
            ** (1.0 / (2 * self.m)) / self.k


# ---------------------------------------------------------------------------
# case analysis


@dataclass
class _Piece:
    domain: DomainInterval
    anchor_alpha: float
    tag: CaseTag


@dataclass
class _Plan:
    tag: CaseTag                 # leading tag (first piece) for reporting
    pieces: list
    spec: IntegrandSpec | None = None
    circle: tuple | None = None  # (c, k, R) of a closed-form NormCircle


def _near(x: float, y: float, rtol: float = EQUALITY_RTOL) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def _boundary_warn(value: float, boundary: float, label: str) -> None:
    gap = abs(value - boundary)
    scale = max(1.0, abs(boundary))
    if EQUALITY_RTOL * scale < gap < ILL_CONDITIONED_RTOL * scale:
        warnings.warn(
            f"constant {label} = {value} lies near the taxonomy boundary "
            f"{boundary}; classification is ill-conditioned there",
            IllConditionedWarning, stacklevel=3)


_AXIS = EndpointKind.AXIS_ZERO
_ROOT = EndpointKind.SIMPLE_ROOT
_CAP = EndpointKind.SMOOTH_CAP


def critical_c1(lam: float) -> float:
    """Value of c1 at which the mu = +1 family for lam < 0 has a double root.

    Below it the profile runs from the axis to a cap in one piece; at it
    the admissibility function touches zero; above it two simple roots cut
    out an inner and an outer piece.
    """
    if lam == -1.0:
        return 1.0
    if -1.0 < lam < 0.0:
        return 1.0 / ((lam + 1.0) * math.pow(-lam, -lam))
    if lam < -1.0:
        w = -(lam + 1.0)
        return -1.0 / (w * math.pow(w + 1.0, w + 1.0))
    raise NoSurfaceError(
        f"lam = {lam}: the mu > 0 family has a double root only for lam < 0")


def _single(tag: CaseTag, lo: float, hi: float, lo_kind: EndpointKind,
            hi_kind: EndpointKind, anchor: float,
            spec: IntegrandSpec | None = None,
            circle: tuple | None = None) -> _Plan:
    """Plan with one piece, from a quadrature spec or a norm circle."""
    dom = DomainInterval(lo, hi, lo_kind, hi_kind, label=tag.value)
    return _Plan(tag, [_Piece(dom, anchor, tag)], spec=spec, circle=circle)


def _sphere_plan(tag: CaseTag, radius: float) -> _Plan:
    """Closed-form branch of alpha^2m + (u - shift)^2m = radius^2m."""
    return _single(tag, 0.0, radius, _AXIS, _ROOT, radius,
                   circle=(0.0, -1.0, radius))


def _split_plan(spec: IntegrandSpec, factors: tuple, c1: float,
                c_crit: float, top: float, tags: tuple, sub_anchor: float,
                probes: int) -> _Plan:
    """Axis-to-cap interval (0, top) of a mu > 0 family, split at c_crit.

    ``factors`` is (A, B, beta, p, t_d): the spec's denominator is
    A^2m - B(t)^2m, whose admissibility factor f = A - B has its stationary
    point at t_d, and there f = beta * phi_p(t/t_d - 1) up to the constant
    f(t_d) that vanishes at c_crit (see double_root_factor).  Below the
    critical constant the whole interval is one piece; at it f has a double
    root at t_d; above it f has two simple roots below top, which bound an
    inner and an outer piece.  ``tags`` is (sub, double inner, double outer,
    two-root inner, two-root outer).
    """
    A, B, beta, p, t_d = factors
    sub, double_in, double_out, two_in, two_out = tags
    if _near(c1, c_crit):
        # D = f * sum_{k<2m} A^k B^(2m-1-k) with f from its double-root
        # factor, so D keeps its relative accuracy next to t_d
        phi = double_root_factor(p)
        a_pows = [A ** k for k in range(1, 2 * spec.m)]

        def denominator(t: float) -> float:
            b = B(t)
            cofactor = 1.0
            for a_k in a_pows:
                cofactor = cofactor * b + a_k
            return beta * phi((t - t_d) / t_d) * cofactor

        spec = replace(spec, denominator=denominator, roots=((t_d, 2),))
        a_in = a_out = t_d
        kind, inner, outer = EndpointKind.DOUBLE_ROOT, double_in, double_out
        anchors = (0.0, top)
    elif c1 < c_crit:
        return _single(sub, 0.0, top, _AXIS, _CAP, sub_anchor, spec)
    else:
        roots = bracket_roots(lambda t: A - B(t), 1e-12, top, probes=probes)
        if len(roots) != 2:
            raise RuntimeError(f"expected two roots below {top}, got {roots}")
        a_in, a_out = roots[0][0], roots[1][0]
        spec = replace(spec, roots=((a_in, 1), (a_out, 1)))
        kind, inner, outer = _ROOT, two_in, two_out
        anchors = (a_in, a_out)
    d_in = DomainInterval(0.0, a_in, _AXIS, kind, label=inner.value)
    d_out = DomainInterval(a_out, top, kind, _CAP, label=outer.value)
    return _Plan(inner, [_Piece(d_in, anchors[0], inner),
                         _Piece(d_out, anchors[1], outer)], spec=spec)


def _homogeneous_plan(req: SolveRequest) -> _Plan:
    m = req.p.m
    q = 2 * m - 1
    lam = req.relation.lam
    c2 = req.c2
    if c2 <= 0.0:
        raise ValueError("homogeneous relation needs c2 > 0")
    if lam > 0.0:
        decay = q * lam
        _boundary_warn(decay, 1.0, "(2m-1)*lam")
        num_c = c2 ** (q * lam)
        spec = IntegrandSpec(
            numerator=lambda t: num_c,
            denominator=lambda t: t ** (2 * m * lam) - c2 ** (2 * m * lam),
            exponent=q / (2 * m), m=m,
            roots=((c2, 1),), decay_exponent=decay)
        tag = CaseTag.HOM_POS_FAST if decay > 1.0 and not _near(decay, 1.0) \
            else CaseTag.HOM_POS_SLOW
        return _single(tag, c2, math.inf, _ROOT, EndpointKind.UNBOUNDED, c2,
                       spec)
    # lam < 0: domain (0, c2), integrand rewritten to stay finite at 0
    nl = -lam
    spec = IntegrandSpec(
        numerator=lambda t: t ** (q * nl),
        denominator=lambda t: c2 ** (2 * m * nl) - t ** (2 * m * nl),
        exponent=q / (2 * m), m=m, roots=((c2, 1),))
    return _single(CaseTag.HOM_NEG, 0.0, c2, _AXIS, _ROOT, c2, spec)


def _lm1_plan(req: SolveRequest) -> _Plan:
    """lam = -1 taxonomy; auxiliary function g(t) = t*(c1 - mu*log t)."""
    m = req.p.m
    q = 2 * m - 1
    mu = req.relation.mu
    c1 = req.c1

    def g(t: float) -> float:
        return t * (c1 - mu * math.log(t))

    def f(t: float) -> float:
        return 1.0 - g(t)

    spec = IntegrandSpec(
        numerator=lambda t: g(t) ** q,
        denominator=lambda t: 1.0 - g(t) ** (2 * m),
        exponent=q / (2 * m), m=m)

    if mu > 0.0:
        top = math.exp(c1)  # g vanishes there; admissibility needs t < top
        c_crit = critical_c1(-1.0)
        _boundary_warn(c1, c_crit, "c1")
        # 1 - g is stationary at t_d = e^(c1-1), where it equals
        # (1 - t_d) + t_d * ((1+x)*log1p(x) - x) with x = t/t_d - 1
        t_d = math.exp(c1 - 1.0)
        return _split_plan(
            spec, (1.0, g, t_d, 1.0, t_d), c1, c_crit, top,
            (CaseTag.LM1_SUB, CaseTag.LM1_DOUBLE_INNER,
             CaseTag.LM1_DOUBLE_OUTER, CaseTag.LM1_TWO_INNER,
             CaseTag.LM1_TWO_OUTER), sub_anchor=top, probes=256)
    # mu < 0: domain (e^(-c1), a3) with a3 the unique solution of g = 1
    bottom = math.exp(-c1)
    roots = bracket_roots(f, bottom, bottom + 10.0 * (1.0 + abs(c1)),
                          probes=256)
    if not roots:
        raise RuntimeError("root of t*(c1 + log t) = 1 not bracketed")
    a3 = roots[0][0]
    return _single(CaseTag.LM1_NEG, bottom, a3, _CAP, _ROOT, a3,
                   replace(spec, roots=((a3, 1),)))


def _gen_pos_plan(req: SolveRequest) -> _Plan:
    """lam > 0 branch of the general relation."""
    m = req.p.m
    q = 2 * m - 1
    lam = req.relation.lam
    mu = req.relation.mu
    c1 = req.c1

    def N(t: float) -> float:
        return c1 * (lam + 1.0) - mu * t ** (lam + 1.0)

    def f(t: float) -> float:
        return (lam + 1.0) * t ** lam - N(t)

    spec = IntegrandSpec(
        numerator=lambda t: N(t) ** q,
        denominator=lambda t: ((lam + 1.0) ** (2 * m) * t ** (2 * m * lam)
                               - N(t) ** (2 * m)),
        exponent=q / (2 * m), m=m)

    if mu > 0.0:
        if c1 <= 0.0:
            raise NoSurfaceError(
                "c1 <= 0: admissibility 0 < c1 - alpha^(lam+1)/(lam+1) fails")
        a4 = math.pow(c1 * (lam + 1.0), 1.0 / (lam + 1.0))
        roots = bracket_roots(f, 1e-12, a4, probes=256)
        if len(roots) != 1 or roots[0][1] != 1:
            raise RuntimeError(f"expected one simple root below {a4}, got {roots}")
        a5 = roots[0][0]
        return _single(CaseTag.GEN_POS_PLUS, a5, a4, _ROOT, _CAP, a5,
                       replace(spec, roots=((a5, 1),)))

    # mu < 0 (the c1* family)
    bound = lam ** lam / (lam + 1.0)
    _boundary_warn(c1, bound, "c1*")
    _boundary_warn(c1, 0.0, "c1*")
    if _near(c1, 0.0):
        return _sphere_plan(CaseTag.GEN_POS_MINUS_SPHERE, lam + 1.0)
    if c1 > 0.0:
        if c1 >= bound or _near(c1, bound):
            raise NoSurfaceError(
                f"c1* >= lam^lam/(lam+1) = {bound}: admissible band is empty")
        roots = bracket_roots(f, 1e-12,
                              10.0 * math.pow(max(c1 * (lam + 1.0), 1.0),
                                              1.0 / (lam + 1.0)) + 10.0,
                              probes=512)
        if len(roots) != 2:
            raise RuntimeError(f"expected two band roots, got {roots}")
        a6, a7 = roots[0][0], roots[1][0]
        return _single(CaseTag.GEN_POS_MINUS_BAND, a6, a7, _ROOT, _ROOT, a6,
                       replace(spec, roots=((a6, 1), (a7, 1))))
    # c1 < 0: domain starts where N vanishes
    a8 = math.pow(-c1 * (lam + 1.0), 1.0 / (lam + 1.0))
    roots = bracket_roots(f, a8, 10.0 * a8 + 10.0, probes=512)
    if len(roots) != 1:
        raise RuntimeError(f"expected one root above {a8}, got {roots}")
    a9 = roots[0][0]
    return _single(CaseTag.GEN_POS_MINUS_OUTER, a8, a9, _CAP, _ROOT, a9,
                   replace(spec, roots=((a9, 1),)))


def _gen_mid_plan(req: SolveRequest) -> _Plan:
    """-1 < lam < 0 branch; integrand rewritten to stay finite at the axis."""
    m = req.p.m
    q = 2 * m - 1
    lam = req.relation.lam
    mu = req.relation.mu
    c1 = req.c1
    nl = -lam

    def N(t: float) -> float:
        return c1 * (lam + 1.0) - mu * t ** (lam + 1.0)

    def B(t: float) -> float:
        return t ** nl * N(t)

    def f(t: float) -> float:
        # (lam+1) - t^(-lam) * N(t), finite at t = 0
        return (lam + 1.0) - B(t)

    spec = IntegrandSpec(
        numerator=lambda t: t ** (q * nl) * N(t) ** q,
        denominator=lambda t: ((lam + 1.0) ** (2 * m)
                               - t ** (2 * m * nl) * N(t) ** (2 * m)),
        exponent=q / (2 * m), m=m)

    if mu > 0.0:
        if c1 <= 0.0:
            raise NoSurfaceError(
                "c1 <= 0: admissibility 0 < c1 - alpha^(lam+1)/(lam+1) fails")
        a10 = math.pow(c1 * (lam + 1.0), 1.0 / (lam + 1.0))
        c_crit = critical_c1(lam)
        _boundary_warn(c1, c_crit, "c1")
        # f = (lam+1) + t - c1*(lam+1)*t^(-lam) is stationary at a11
        a11 = math.pow(c1 * nl * (lam + 1.0), 1.0 / (lam + 1.0))
        beta = -c1 * (lam + 1.0) * a11 ** nl
        return _split_plan(
            spec, (lam + 1.0, B, beta, nl, a11), c1, c_crit, a10,
            (CaseTag.GEN_MID_PLUS_SUB, CaseTag.GEN_MID_PLUS_DOUBLE_INNER,
             CaseTag.GEN_MID_PLUS_DOUBLE_OUTER, CaseTag.GEN_MID_PLUS_TWO_INNER,
             CaseTag.GEN_MID_PLUS_TWO_OUTER), sub_anchor=0.0, probes=512)

    # mu < 0
    _boundary_warn(c1, 0.0, "c1*")
    if _near(c1, 0.0):
        return _sphere_plan(CaseTag.GEN_MID_MINUS_SPHERE, lam + 1.0)
    if c1 > 0.0:
        roots = bracket_roots(f, 1e-12, 2.0 * (lam + 1.0) + 10.0, probes=512)
        if not roots:
            raise RuntimeError("root of the admissibility function not found")
        a14 = roots[0][0]
        return _single(CaseTag.GEN_MID_MINUS_INNER, 0.0, a14, _AXIS, _ROOT,
                       a14, replace(spec, roots=((a14, 1),)))
    a15 = math.pow(-c1 * (lam + 1.0), 1.0 / (lam + 1.0))
    roots = bracket_roots(f, a15, 10.0 * a15 + 10.0 * (lam + 1.0) + 10.0,
                          probes=512)
    if not roots:
        raise RuntimeError("outer admissibility root not found")
    a16 = roots[0][0]
    return _single(CaseTag.GEN_MID_MINUS_OUTER, a15, a16, _CAP, _ROOT, a16,
                   replace(spec, roots=((a16, 1),)))


def _gen_low_plan(req: SolveRequest) -> _Plan:
    """lam < -1 branch, parameterized internally by omega = -(lam+1) > 0."""
    m = req.p.m
    q = 2 * m - 1
    lam = req.relation.lam
    mu = req.relation.mu
    c1 = req.c1
    w = -(lam + 1.0)

    def G(t: float) -> float:
        return c1 * w * t ** w + mu

    def B(t: float) -> float:
        return t * G(t)

    def f(t: float) -> float:
        return w - B(t)

    spec = IntegrandSpec(
        numerator=lambda t: B(t) ** q,
        denominator=lambda t: w ** (2 * m) - B(t) ** (2 * m),
        exponent=q / (2 * m), m=m)

    if mu > 0.0:
        thr = critical_c1(lam)
        _boundary_warn(c1, thr, "c1")
        _boundary_warn(c1, 0.0, "c1")
        if _near(c1, 0.0):
            return _sphere_plan(CaseTag.GEN_LOW_PLUS_SPHERE, w)
        if c1 > 0.0:
            roots = bracket_roots(f, 1e-12, w + 1.0, probes=512)
            if not roots:
                raise RuntimeError("admissibility root not found for c1 > 0")
            a17 = roots[0][0]
            return _single(CaseTag.GEN_LOW_PLUS_POS, 0.0, a17, _AXIS, _ROOT,
                           a17, replace(spec, roots=((a17, 1),)))
        # c1 < 0: t*G(t) > 0 only below the zero of G
        a18 = math.pow(-c1 * w, -1.0 / w)
        # f = w - t - c1*w*t^(w+1) is stationary at a19
        a19 = math.pow(-c1 * w * (w + 1.0), -1.0 / w)
        beta = -c1 * w * a19 ** (w + 1.0)
        return _split_plan(
            spec, (w, B, beta, w + 1.0, a19), c1, thr, a18,
            (CaseTag.GEN_LOW_PLUS_SUB, CaseTag.GEN_LOW_PLUS_DOUBLE_INNER,
             CaseTag.GEN_LOW_PLUS_DOUBLE_OUTER, CaseTag.GEN_LOW_PLUS_TWO_INNER,
             CaseTag.GEN_LOW_PLUS_TWO_OUTER), sub_anchor=0.0, probes=512)

    # mu < 0: need c1 > 0 so that G turns positive
    if c1 <= 0.0:
        raise NoSurfaceError(
            "c1* <= 0 with lam < -1: t*G(t) stays nonpositive, no admissible "
            "interval")
    a22 = math.pow(c1 * w, -1.0 / w)
    roots = bracket_roots(f, a22, 10.0 * a22 + w + 10.0, probes=512)
    if not roots:
        raise RuntimeError("upper admissibility root not found")
    a23 = roots[0][0]
    return _single(CaseTag.GEN_LOW_MINUS, a22, a23, _CAP, _ROOT, a23,
                   replace(spec, roots=((a23, 1),)))


def _plan(req: SolveRequest) -> _Plan:
    form = req.relation.form
    if form is RelationForm.K2_CONST:
        return _sphere_plan(CaseTag.SPHERE_TRANSLATE, 1.0)
    if form is RelationForm.K1_CONST:
        mu = req.relation.mu
        c1 = req.c1
        # at the inner end c1 - mu*alpha = 1 and u' blows up
        if mu > 0.0:
            lo, hi = max(0.0, c1 - 1.0), c1
            tag = CaseTag.K1_CONST_PLUS
            kinds = (_ROOT if c1 - 1.0 > 0.0 else _AXIS, _CAP)
        else:
            lo, hi = max(0.0, -c1), 1.0 - c1
            tag = CaseTag.K1_CONST_MINUS
            kinds = (_CAP if -c1 > 0.0 else _AXIS, _ROOT)
        if not lo < hi:
            raise NoSurfaceError(
                "0 < c1 - mu*alpha < 1 has no solution with alpha > 0")
        anchor = hi if mu > 0.0 else lo
        return _single(tag, lo, hi, *kinds, anchor, circle=(c1, mu, 1.0))
    if form is RelationForm.HOMOGENEOUS:
        return _homogeneous_plan(req)
    if form is RelationForm.INHOM_LAMBDA_MINUS1:
        return _lm1_plan(req)
    if form is RelationForm.INHOM_GENERAL:
        lam = req.relation.lam
        if lam > 0.0:
            return _gen_pos_plan(req)
        if lam > -1.0:
            return _gen_mid_plan(req)
        return _gen_low_plan(req)
    raise ValueError(f"no profile construction for relation form {form}")


def classify(req: SolveRequest) -> tuple:
    """Case label and admissible alpha-intervals for a request.

    Raises NoSurfaceError (naming the violated inequality) when the
    admissible set is empty.  Constants near a taxonomy boundary trigger an
    IllConditionedWarning.
    """
    plan = _plan(_normalize(req)[0])
    return plan.tag, [piece.domain for piece in plan.pieces]


# ---------------------------------------------------------------------------
# branch construction


def _normalize(req: SolveRequest) -> tuple:
    """Rescale a general-mu request to |mu| = 1; returns (request, scale)."""
    mu = req.relation.mu
    if req.relation.form in (RelationForm.INHOM_LAMBDA_MINUS1,
                             RelationForm.INHOM_GENERAL,
                             RelationForm.K1_CONST) and abs(mu) != 1.0:
        rel = replace(req.relation, mu=math.copysign(1.0, mu))
        return replace(req, relation=rel), 1.0 / abs(mu)
    return req, 1.0


def _arc_grid(dom: DomainInterval, n: int, m: int) -> np.ndarray:
    """Grid of a constant-k1 arc, graded toward the simple-root end
    (|w| = 1), where u' blows up."""
    width = dom.upper - dom.lower
    s = np.linspace(0.0, width ** (1.0 / (2 * m)), n + 1)[1:]
    if dom.lower_kind is _ROOT:
        grid = dom.lower + s ** (2 * m)
        grid = np.append(grid, dom.upper) if grid[-1] < dom.upper else grid
    elif dom.upper_kind is _ROOT:
        grid = np.sort(dom.upper - s ** (2 * m))
    else:
        grid = np.linspace(dom.lower + 1e-6 * width, dom.upper, n)
    pad = 1e-15 * max(1.0, width)
    return np.unique(np.clip(grid, dom.lower + pad, dom.upper - pad))


def _norm_circle_branch(req: SolveRequest, piece: _Piece,
                        circle: tuple) -> ProfileBranch:
    """Closed-form branch on the norm circle (c, k, R), see NormCircle."""
    if req.samples < 2:
        raise ValueError("need at least 2 samples")
    m = req.p.m
    slope = NormCircle(*circle, m)
    dom = piece.domain
    # the arc for mu < 0, 0 <= c1 < 1 runs from the axis to a root like a
    # sphere, but keeps the arc grading of the other constant-k1 pieces
    if req.relation.form is RelationForm.K1_CONST:
        alpha = _arc_grid(dom, req.samples, m)
    else:
        alpha = _build_grid(dom, req.samples, m, math.inf)
    a0 = piece.anchor_alpha
    return ProfileBranch(
        request=req, case=piece.tag, domain=dom, alpha=alpha,
        u=req.sign * slope.height(alpha) + req.shift,
        du=req.sign * np.array([slope(float(a)) for a in alpha]),
        slope=slope,
        anchor=(a0, float(req.sign * slope.height(a0) + req.shift)),
        span=circle[2])


def _quadrature_branch(req: SolveRequest, piece: _Piece,
                       spec: IntegrandSpec) -> ProfileBranch:
    dom = piece.domain
    cut = math.inf
    if not dom.bounded:
        cut = req.alpha_max_factor * max(dom.lower, 1.0)
    table = profile_from_integral(
        spec, dom, req.sign, (piece.anchor_alpha, req.shift),
        samples=req.samples, tol=req.tol, upper_cut=cut)
    span = math.inf
    if not any(mult >= 2 for _, mult in spec.roots):
        try:
            res = integrate_singular(spec, dom.lower, dom.upper, tol=req.tol)
            span = res.value if res.finite else math.inf
        except Exception:
            span = math.nan
    return ProfileBranch(
        request=req, case=piece.tag, domain=dom, alpha=table.alpha,
        u=table.u, du=table.du, slope=spec,
        anchor=(piece.anchor_alpha, req.shift), span=span,
        quad_error=table.quad_error)


def _rescale(branch: ProfileBranch, scale: float) -> ProfileBranch:
    """Apply the homothety x -> scale*x, mapping |mu|=1 data to general mu."""
    if scale == 1.0:
        return branch
    dom = branch.domain
    return replace(
        branch,
        domain=DomainInterval(scale * dom.lower, scale * dom.upper,
                              dom.lower_kind, dom.upper_kind, label=dom.label),
        alpha=scale * branch.alpha, u=scale * branch.u, du=branch.du.copy(),
        anchor=(scale * branch.anchor[0], scale * branch.anchor[1]),
        span=scale * branch.span, scale=scale)


def solve(req: SolveRequest) -> list:
    """All admissible branches for a request, one per maximal interval."""
    norm_req, scale = _normalize(req)
    plan = _plan(norm_req)
    branches = []
    for piece in plan.pieces:
        if plan.circle:
            b = _norm_circle_branch(norm_req, piece, plan.circle)
        else:
            b = _quadrature_branch(norm_req, piece, plan.spec)
        branches.append(_rescale(b, scale))
    return branches


# ---------------------------------------------------------------------------
# convenience wrappers for the individual families


def solve_constant_k2(p, c: float = 0.0, sign: int = +1,
                      samples: int = 512) -> ProfileBranch:
    """Unit sphere translated along the axis: k2 = -1 identically."""
    req = SolveRequest(p=p, relation=WeingartenRelation.k2_const(),
                       shift=c, sign=sign, samples=samples)
    return solve(req)[0]


def solve_constant_k1(p, mu: float, c1: float, c2: float = 0.0,
                      sign: int = +1, samples: int = 512) -> ProfileBranch:
    """Circle-like arc with k1 = mu constant (mu = +/-1)."""
    req = SolveRequest(p=p, relation=WeingartenRelation.k1_const(mu),
                       c1=c1, shift=c2, sign=sign, samples=samples)
    return solve(req)[0]


def solve_homogeneous(p, lam: float, c2: float, sign: int = +1,
                      samples: int = 512, tol: float = 1e-10,
                      alpha_max_factor: float = 4.0) -> ProfileBranch:
    req = SolveRequest(p=p, relation=WeingartenRelation.homogeneous(lam),
                       c2=c2, sign=sign, samples=samples, tol=tol,
                       alpha_max_factor=alpha_max_factor)
    return solve(req)[0]


def solve_inhom_lambda_minus1(p, mu: float, c1: float, sign: int = +1,
                              samples: int = 512, tol: float = 1e-10) -> list:
    req = SolveRequest(p=p, relation=WeingartenRelation.linear(-1.0, mu),
                       c1=c1, sign=sign, samples=samples, tol=tol)
    return solve(req)

def solve_inhom_general(p, lam: float, mu: float, c1: float, sign: int = +1,
                        samples: int = 512, tol: float = 1e-10) -> list:
    req = SolveRequest(p=p, relation=WeingartenRelation.linear(lam, mu),
                       c1=c1, sign=sign, samples=samples, tol=tol)
    return solve(req)
