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
    _build_grid,
    as_libm,
    bracket_roots,
    double_root_factor,
    log,
    profile_from_integral,
    sorted_unique,
)

__all__ = [
    "RelationForm",
    "WeingartenRelation",
    "CaseTag",
    "SolveRequest",
    "ProfileBranch",
    "NoSurfaceError",
    "BracketError",
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
# an unbounded branch is tabulated up to ALPHA_MAX_FACTOR * max(lower, 1)
ALPHA_MAX_FACTOR = 4.0


class NoSurfaceError(ValueError):
    """No admissible profile exists; the message names the failed inequality."""


class BracketError(RuntimeError):
    """The roots that the case needs were not bracketed: the probe grid
    missed them, or an end or search bound of the interval they lie in,
    or the threshold that selects it, leaves the float range."""


class IllConditionedWarning(UserWarning):
    """Constants sit close to a taxonomy boundary; results may be unstable."""


class RelationForm(Enum):
    K1_ZERO = "k1_zero"                      # cylinder: lam = mu = 0
    K2_CONST = "k2_const"                    # translated sphere: lam = inf
    K1_CONST = "k1_const"                    # lam = 0, mu != 0
    HOMOGENEOUS = "homogeneous"              # mu = 0, lam != 0
    INHOM_LAMBDA_MINUS1 = "inhom_lambda_minus1"
    INHOM_GENERAL = "inhom_general"          # lam not in {0, -1}, mu != 0


@dataclass(frozen=True)
class WeingartenRelation:
    """Linear relation k1 + lam*k2 = mu between the curvatures.

    The relation is its two constants; its ``form``, the paper's case
    split, follows from them.  ``mu`` is finite, and ``lam`` is finite
    except for the translated sphere k2 = -1, written (inf, -1).
    """

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.lam)
                or (self.lam == math.inf and self.mu == -1.0)):
            raise ValueError(f"lam must be finite, or inf with mu = -1, "
                             f"got {self.lam}")

    @property
    def form(self) -> RelationForm:
        lam, mu = self.lam, self.mu
        if math.isinf(lam):
            return RelationForm.K2_CONST
        if mu == 0.0:
            return (RelationForm.K1_ZERO if lam == 0.0
                    else RelationForm.HOMOGENEOUS)
        if lam == 0.0:
            return RelationForm.K1_CONST
        if lam == -1.0:
            return RelationForm.INHOM_LAMBDA_MINUS1
        return RelationForm.INHOM_GENERAL

    @staticmethod
    def linear(lam: float, mu: float) -> "WeingartenRelation":
        """The relation k1 + lam*k2 = mu."""
        return WeingartenRelation(lam, mu)


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
    normalized form and rescaled by 1/|mu| afterwards.  ``c1``, ``c2``
    and ``shift`` are finite, ``samples`` is at least 2 and ``tol`` is
    finite and nonnegative.
    """

    p: object  # NormParameter
    relation: WeingartenRelation
    c1: float = 0.0
    c2: float = 1.0
    shift: float = 0.0
    sign: int = +1
    samples: int = 512
    tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "shift"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass
class ProfileBranch:
    """One signed monotone branch u(alpha) with its sample table.

    ``slope`` is the unsigned slope of the normalized (|mu| = 1) profile:
    the SlopeLaw of a quadrature branch, the NormCircle of a closed form.
    The signed physical slope, the relation constants and the reflected
    branch are all derived from it, ``request`` and ``scale``.  Both
    slopes are plain data, so branches pickle.
    """

    request: SolveRequest
    case: CaseTag
    domain: DomainInterval
    alpha: np.ndarray
    u: np.ndarray
    du: np.ndarray
    slope: SlopeLaw | NormCircle
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

    def uprime(self, a):
        """Signed slope u'(a) of the branch as sampled (after rescaling);
        a is a float or a float array."""
        x = a if isinstance(a, np.ndarray) else float(a)
        return self.request.sign * self.slope(x / self.scale)

    def fd_second(self, a, h):
        """u''(a) from the closed-form slope by a central 5-point stencil;
        a and h are floats or float arrays.  On arrays, the slopes at the
        four stencil points are one array call."""
        points = (a + 2 * h, a + h, a - h, a - 2 * h)
        if isinstance(a, np.ndarray):
            f2, f1, b1, b2 = self.uprime(
                np.stack(np.broadcast_arrays(*points)))
        else:
            f2, f1, b1, b2 = map(self.uprime, points)
        return (-f2 + 8 * f1 - 8 * b1 + b2) / (12 * h)


def fd_step(a, lo: float, hi: float, floor=None):
    """The step of ``fd_second`` at a inside (lo, hi): a float, or an
    array for an array a.

    The step is 1e-4 * max(1, |a|), shrunk with the distance ``dist`` to
    the nearer end because the slope's higher derivatives grow
    algebraically at simple roots; at least ``floor``; and at most
    dist/4, so that the stencil stays inside.  The default floor is the
    step that balances the slope's rounding at a +/- h, eps*|a|/h
    relative, against the stencil's error (h/dist)^4, which is
    (eps*|a|)^(1/5) * dist^(4/5), capped at 1e-6.
    """
    dist = np.minimum(a - lo, hi - a)
    if floor is None:
        # np.float_power: libm's pow on floats and arrays alike
        floor = np.minimum(1e-6, np.float_power(
            np.finfo(float).eps * np.abs(a), 0.2) * np.float_power(dist, 0.8))
    h = np.maximum(floor,
                   1e-4 * np.minimum(np.maximum(1.0, np.abs(a)), dist))
    h = np.minimum(h, 0.25 * dist)
    return h if isinstance(a, np.ndarray) else float(h)


@dataclass(frozen=True)
class NormCircle:
    """Unsigned slope of the norm circle w^2m + (k*(u - shift))^2m = R^2m.

    Here w = c - k*alpha.  Spheres are (c, k, R) = (0, -1, r) and the
    constant-k1 arcs are (c1, mu, 1).  w is kept in this uncentred form:
    numpy's array power rounds (a - c)^2m and (c - a)^2m differently.
    The root is |w| = R, where the slope is infinite; next to an arc's
    root the rounding of w can land on it.
    """

    c: float
    k: float
    R: float
    m: int

    def __call__(self, a):
        """The slope at a, a float or a float array."""
        q = 2 * self.m - 1
        w = self.c - self.k * as_libm(a)
        return w ** q * (self.R ** (2 * self.m) - w ** (2 * self.m)) \
            ** (-q / (2 * self.m))

    def height(self, alpha):
        """u - shift on the + branch, (R^2m - w^2m)^(1/2m) / k."""
        w = self.c - self.k * np.asarray(alpha)
        return (self.R ** (2 * self.m) - w ** (2 * self.m)) \
            ** (1.0 / (2 * self.m)) / self.k


# A quadrature family maps its constants to (base, P, Q).  base(t) is the
# subexpression of t that P and Q share, or None; P(k, t, b) and Q(k, t, b)
# are P^k and Q^k at t, given b = base(t).  t is a float or a LibmArray,
# whose ** runs libm's pow, so one formula serves both.  Powers are grouped
# as in the closed forms, t**(k*lam) and not (t**lam)**k, which rounds
# differently.  N = c1*(lam+1) - mu*t^(lam+1).
#
#   family    relation           P              Q                  base
#   hom_pos   mu = 0, lam > 0    t^lam          c2^lam             -
#   hom_neg   mu = 0, lam < 0    c2^(-lam)      t^(-lam)           -
#   lm1       lam = -1           1              t*(c1 - mu*log t)  Q
#   gen_pos   lam > 0            (lam+1)*t^lam  N                  N
#   gen_mid   -1 < lam < 0       lam+1          t^(-lam)*N         N
#   gen_low   lam < -1           w = -(lam+1)   t*(c1*w*t^w + mu)  Q


def _hom_pos(lam: float, c2: float) -> tuple:
    return (None, lambda k, t, b: t ** (k * lam),
            lambda k, t, b: c2 ** (k * lam))


def _hom_neg(lam: float, c2: float) -> tuple:
    return (None, lambda k, t, b: c2 ** (k * -lam),
            lambda k, t, b: t ** (k * -lam))


def _lm1(c1: float, mu: float) -> tuple:
    return (lambda t: t * (c1 - mu * log(t)),
            lambda k, t, b: 1.0, lambda k, t, b: b ** k)


def _gen_pos(lam: float, c1: float, mu: float) -> tuple:
    lp = lam + 1.0
    return (lambda t: c1 * lp - mu * t ** lp,
            lambda k, t, b: lp ** k * t ** (k * lam),
            lambda k, t, b: b ** k)


def _gen_mid(lam: float, c1: float, mu: float) -> tuple:
    lp = lam + 1.0
    return (lambda t: c1 * lp - mu * t ** lp,
            lambda k, t, b: lp ** k,
            lambda k, t, b: t ** (k * -lam) * b ** k)


def _gen_low(lam: float, c1: float, mu: float) -> tuple:
    w = -(lam + 1.0)
    return (lambda t: t * (c1 * w * t ** w + mu),
            lambda k, t, b: w ** k, lambda k, t, b: b ** k)


@dataclass(frozen=True)
class SlopeLaw:
    """Unsigned slope Q^q / (P^2m - Q^2m)^(q/2m), q = 2m-1, of a quadrature
    branch, admissible where P > Q > 0; pickles by its fields.

    ``family`` is the function giving (base, P, Q), one of _hom_pos ...
    _gen_low, and ``params`` its constants.  ``terms`` gives numerator Q^q
    and denominator P^2m - Q^2m at once, sharing the base; with ``m``,
    ``exponent`` and ``decay_exponent`` they are all quadrature reads.
    ``gap`` is the admissibility function P - Q.  All take a float or a
    float array, with the same bits per element.  ``double =
    (beta, p, t_d)`` selects the denominator beta*phi_p(t/t_d - 1) *
    sum_{k<2m} P^k Q^(2m-1-k) (P constant), accurate next to a double
    root t_d of P - Q.
    """

    family: Callable
    params: tuple
    m: int
    decay_exponent: float | None = None
    double: tuple | None = None

    def __post_init__(self) -> None:
        m2 = 2 * self.m
        base, P, Q = self.family(*self.params)
        p_pows = phi = None
        if self.double:
            phi = double_root_factor(self.double[1])
            p_pows = [P(k, None, None) for k in range(1, m2)]
        vars(self).update(_base=base, _P=P, _Q=Q, _phi=phi, _p_pows=p_pows,
                          exponent=(m2 - 1) / m2)

    def terms(self, t) -> tuple:
        """(Q^q, denominator) at t."""
        t = as_libm(t)
        m2, Q = 2 * self.m, self._Q
        b = self._base(t) if self._base else None
        num = Q(m2 - 1, t, b)
        if not self.double:
            return num, self._P(m2, t, b) - Q(m2, t, b)
        beta, _, t_d = self.double
        q1 = Q(1, t, b)
        cofactor = 1.0
        for p_k in self._p_pows:
            cofactor = cofactor * q1 + p_k
        return num, beta * self._phi((t - t_d) / t_d) * cofactor

    def gap(self, t):
        """P - Q at t."""
        t = as_libm(t)
        b = self._base(t) if self._base else None
        return self._P(1, t, b) - self._Q(1, t, b)

    def __call__(self, t):
        num, den = self.terms(t)
        return num / den ** self.exponent

    def __reduce__(self):
        return SlopeLaw, (self.family, self.params, self.m,
                          self.decay_exponent, self.double)


# ---------------------------------------------------------------------------
# case analysis


@dataclass
class _Piece:
    domain: DomainInterval
    anchor_alpha: float
    tag: CaseTag


@dataclass
class _Plan:
    pieces: list
    slope: SlopeLaw | NormCircle


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
        try:
            scale = w * math.pow(w + 1.0, w + 1.0)
        except OverflowError:
            scale = math.inf
        # from lam of about -143 scale is inf; the reciprocal power
        # underflows there, and does not raise
        return (-1.0 / scale if scale < math.inf
                else -math.pow(w + 1.0, -(w + 1.0)) / w)
    raise NoSurfaceError(
        f"lam = {lam}: the mu > 0 family has a double root only for lam < 0")


def _piece(tag: CaseTag | str, lo: float, lo_kind: EndpointKind, hi: float,
           hi_kind: EndpointKind, anchor: float | None = None) -> _Piece:
    """The piece of a plan on (lo, hi) with the tag, or the tag's value;
    anchored by default at its root end, the lower one where both ends
    are roots."""
    tag = CaseTag(tag)
    if anchor is None:
        anchor = lo if lo_kind is _ROOT else hi
    return _Piece(DomainInterval(lo, hi, lo_kind, hi_kind, label=tag.value),
                  anchor, tag)


def _end(term: str, lam: float, value: Callable[[], float],
         zero: bool = False) -> float:
    """value(), the interval end, search bound, stationary point or case
    threshold of a plan that ``term`` names; BracketError where it overflows or is not
    in (0, inf).  With ``zero``, 0.0 passes too: a lower end that
    underflows starts the branch on the axis, which is where it starts
    to within the underflow (sweep seed 409 builds a passing 6.3iv-3
    branch from a15 = 10^-767)."""
    try:
        x = value()
    except (OverflowError, ValueError):
        # math.pow raises ValueError at 0.0 to a negative power, where
        # IEEE gives inf
        x = math.inf
    if not 0.0 <= x < math.inf or (x == 0.0 and not zero):
        raise BracketError(f"{term} leaves the float range at lam = "
                           f"{lam!r}: got {x!r}")
    return x


# The 6.3 cases by family (lam > 0, -1 < lam < 0, lam < -1) and sign of
# mu (+, -), each with the name of its closed-form end E
_GENERAL_CASES = (("6.3i", "a4 = (c1*(lam+1))^(1/(lam+1))"),
                  ("6.3ii", "a8 = (-c1*(lam+1))^(1/(lam+1))"),
                  ("6.3iii", "a10 = (c1*(lam+1))^(1/(lam+1))"),
                  ("6.3iv", "a15 = (-c1*(lam+1))^(1/(lam+1))"),
                  ("6.3v", "a18 = (-c1*w)^(-1/w)"),
                  ("6.3vi", "a22 = (c1*w)^(-1/w)"))


def _c1_plan(req: SolveRequest) -> _Plan:
    """The plan of an inhomogeneous relation, lam != 0 and |mu| = 1:
    cases 6.1 (lam = -1) and 6.3, by the sign of mu*(lam+1) and by c1.

    - The closed-form end E is where N = c1*(lam+1) - mu*t^(lam+1)
      vanishes, E = (mu*c1*(lam+1))^(1/(lam+1)), and E = e^(mu*c1) where
      g = t*(c1 - mu*log t) vanishes at lam = -1.  It is a cap: the top
      of the interval for mu > 0 and its bottom for mu < 0.
    - Where mu*(lam+1) > 0, c1 <= 0 admits no surface (6.3i, 6.3iii,
      6.3vi).
    - Where mu*(lam+1) < 0, c1 = 0 is the sphere of radius |lam+1|
      (6.3ii-1, 6.3iv-1, 6.3v-1), c1 > 0 an interval between roots of
      the gap P - Q or the axis, and c1 < 0 an interval ending at E.
    - For mu > 0 and lam < 0, the axis-to-cap interval (0, E) splits at
      critical_c1(lam).  The gap, with P constant, is stationary at t_d,
      where ``double = (beta, p, t_d)`` gives P - Q = beta*phi_p(t/t_d -
      1) up to the constant (P - Q)(t_d) that vanishes at the critical
      c1.  Below it the interval is one piece, tag case-1; at it a double
      root at t_d splits it (case-2-1, case-2-2); above it two simple
      roots below E cut out an inner and an outer piece (case-3-1,
      case-3-2).

    Each end is the axis, the cap E or a root of the gap, and that role
    fixes its kind.  The ends are computed in the order that decides
    which BracketError a request gets.
    """
    lam, mu, c1, m = req.relation.lam, req.relation.mu, req.c1, req.p.m
    lp, w = lam + 1.0, -(lam + 1.0)
    label = "c1" if mu > 0.0 else "c1*"
    if lam == -1.0:
        law = SlopeLaw(_lm1, (c1, mu), m)
        case = "6.1i" if mu > 0.0 else "6.1ii"
    else:
        k = (lam < 0.0) + (lam < -1.0)
        law = SlopeLaw((_gen_pos, _gen_mid, _gen_low)[k], (lam, c1, mu), m)
        case, e_name = _GENERAL_CASES[2 * k + (mu < 0.0)]
    probes = 256 if case in ("6.1i", "6.1ii", "6.3i") else 512

    def cap() -> float:
        if lam == -1.0:
            return _end("top = e^c1", lam, lambda: math.exp(c1))
        return _end(e_name, lam, lambda: math.pow(mu * c1 * lp, 1.0 / lp),
                    zero=mu < 0.0)

    def roots(lo: float, hi: float, search: str, count: int = 0) -> list:
        """Exactly ``count`` roots of the gap on (lo, hi), or with count 0
        the first one; BracketError naming the search otherwise, and
        where the window is empty."""
        if not lo < hi:
            raise BracketError(f"{search}: the search window ({lo!r}, "
                               f"{hi!r}) is empty")
        found = bracket_roots(law.gap, lo, hi, probes=probes)
        if not count:
            if not found:
                raise BracketError(search)
            return found[:1]
        if len(found) != count:
            raise BracketError(f"{search}, got {found}")
        return found

    def one(tag: str, *ends) -> _Plan:
        return _Plan([_piece(tag, *ends)], law)

    if mu * lp > 0.0 and c1 <= 0.0:
        raise NoSurfaceError(
            "c1* <= 0 with lam < -1: t*G(t) stays nonpositive, no admissible "
            "interval" if lam < -1.0 else
            "c1 <= 0: admissibility 0 < c1 - alpha^(lam+1)/(lam+1) fails")
    if mu * lp < 0.0:
        if lam > 0.0:
            # the band's threshold overflows from lam of about 143
            bound = _end("band threshold = lam^lam/(lam+1)", lam,
                         lambda: lam ** lam / (lam + 1.0))
            _boundary_warn(c1, bound, label)
        elif lam < -1.0:
            c_crit = critical_c1(lam)
            _boundary_warn(c1, c_crit, label)
        _boundary_warn(c1, 0.0, label)
        if _near(c1, 0.0):
            return _Plan([_piece(f"{case}-1", 0.0, _AXIS, abs(lp), _ROOT)],
                         NormCircle(0.0, -1.0, abs(lp), m))
        if c1 > 0.0 and lam > 0.0:
            if c1 >= bound or _near(c1, bound):
                raise NoSurfaceError(f"c1* >= lam^lam/(lam+1) = {bound}: "
                                     "admissible band is empty")
            # finite: below 10*max(lam, 1) + 10, since c1*(lam+1) < lam^lam
            hi = 10.0 * math.pow(max(c1 * lp, 1.0), 1.0 / lp) + 10.0
            a6, a7 = roots(1e-12, hi, "expected two band roots", 2)
            return one(f"{case}-2", a6, _ROOT, a7, _ROOT)
        if c1 > 0.0:
            a, = roots(1e-12, 2.0 * lp + 10.0 if lam > -1.0 else w + 1.0,
                       "root of the admissibility function not found"
                       if lam > -1.0 else
                       "admissibility root not found for c1 > 0")
            return one(f"{case}-2", 0.0, _AXIS, a, _ROOT)
        case += "-3"
    if mu < 0.0:
        # E is the bottom, and the interval runs up to a root of the gap
        if lam == -1.0:
            hi = _end("a3's search bound = e^(-c1) + 10*(1+|c1|)", lam,
                      lambda: math.exp(-c1) + 10.0 * (1.0 + abs(c1)))
            bottom, count = math.exp(-c1), 0
            search = "root of t*(c1 + log t) = 1 not bracketed"
        else:
            bottom = cap()
            bound, extra, search, count = (
                ("a9's search bound = 10*a8 + 10", 0.0,
                 f"expected one root above {bottom}", 1),
                ("a16's search bound = 10*a15 + 10*(lam+1) + 10", 10.0 * lp,
                 "outer admissibility root not found", 0),
                ("a23's search bound = 10*a22 + w + 10", w,
                 "upper admissibility root not found", 0))[k]
            hi = _end(bound, lam, lambda: 10.0 * bottom + extra + 10.0)
        a, = roots(bottom, hi, search, count)
        return one(case, bottom, _CAP, a, _ROOT)
    # E is the top
    top = cap()
    if lam > 0.0:
        a5, = roots(1e-12, top, f"expected one simple root below {top}", 1)
        return one(case, a5, _ROOT, top, _CAP)
    if lam >= -1.0:
        c_crit = critical_c1(lam)
        _boundary_warn(c1, c_crit, label)
    if lam == -1.0:
        # 1 - g is stationary at t_d = e^(c1-1), where it equals
        # (1 - t_d) + t_d * ((1+x)*log1p(x) - x) with x = t/t_d - 1
        t_d = math.exp(c1 - 1.0)
        double = (t_d, 1.0, t_d)
    elif lam > -1.0:
        # P - Q = (lam+1) + t - c1*(lam+1)*t^(-lam) is stationary at a11;
        # c1*nl*(lam+1) <= c1*(lam+1), so a11 <= a10: a11, beta are finite
        nl = -lam
        a11 = math.pow(c1 * nl * lp, 1.0 / lp)
        double = (-c1 * lp * a11 ** nl, nl, a11)
    else:
        # P - Q = w - t - c1*w*t^(w+1) is stationary at a19
        a19 = _end("a19 = (-c1*w*(w+1))^(-1/w)", lam,
                   lambda: math.pow(-c1 * w * (w + 1.0), -1.0 / w), zero=True)
        beta = _end("beta = -c1*w*a19^(w+1)", lam,
                    lambda: -c1 * w * math.pow(a19, w + 1.0), zero=True)
        double = (beta, w + 1.0, a19)
    if _near(c1, c_crit):
        t_d, kind = double[2], EndpointKind.DOUBLE_ROOT
        pieces = [_piece(f"{case}-2-1", 0.0, _AXIS, t_d, kind, 0.0),
                  _piece(f"{case}-2-2", t_d, kind, top, _CAP)]
        return _Plan(pieces, replace(law, double=double))
    if c1 < c_crit:
        return one(f"{case}-1", 0.0, _AXIS, top, _CAP,
                   top if lam == -1.0 else 0.0)
    a_in, a_out = roots(1e-12, top, f"expected two roots below {top}", 2)
    return _Plan([_piece(f"{case}-3-1", 0.0, _AXIS, a_in, _ROOT),
                  _piece(f"{case}-3-2", a_out, _ROOT, top, _CAP)], law)


def _plan(req: SolveRequest) -> _Plan:
    form, m = req.relation.form, req.p.m
    lam, mu, c1, c2 = req.relation.lam, req.relation.mu, req.c1, req.c2
    if form is RelationForm.K1_ZERO:
        raise ValueError("lam = mu = 0 is the cylinder 4i, alpha = const, "
                         "which has no profile u(alpha)")
    if form is RelationForm.K2_CONST:
        # alpha^2m + (u - shift)^2m = 1
        return _Plan([_piece(CaseTag.SPHERE_TRANSLATE, 0.0, _AXIS, 1.0,
                             _ROOT)], NormCircle(0.0, -1.0, 1.0, m))
    if form is RelationForm.K1_CONST:
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
        return _Plan([_piece(tag, lo, kinds[0], hi, kinds[1],
                             hi if mu > 0.0 else lo)],
                     NormCircle(c1, mu, 1.0, m))
    if form is not RelationForm.HOMOGENEOUS:
        return _c1_plan(req)
    if c2 <= 0.0:
        raise ValueError("homogeneous relation needs c2 > 0")
    if lam > 0.0:
        decay = (2 * m - 1) * lam
        _boundary_warn(decay, 1.0, "(2m-1)*lam")
        tag = CaseTag.HOM_POS_FAST if decay > 1.0 and not _near(decay, 1.0) \
            else CaseTag.HOM_POS_SLOW
        return _Plan([_piece(tag, c2, _ROOT, math.inf,
                             EndpointKind.UNBOUNDED)],
                     SlopeLaw(_hom_pos, (lam, c2), m, decay_exponent=decay))
    # lam < 0: domain (0, c2), integrand rewritten to stay finite at 0
    return _Plan([_piece(CaseTag.HOM_NEG, 0.0, _AXIS, c2, _ROOT)],
                  SlopeLaw(_hom_neg, (lam, c2), m))


def classify(req: SolveRequest) -> tuple:
    """Case label of the first piece and the admissible alpha-intervals
    of a request; the case follows from the relation's form and c1.

    Raises NoSurfaceError (naming the violated inequality) when the
    admissible set is empty, and BracketError when the roots that bound
    the intervals are not bracketed.  Constants near a taxonomy boundary
    trigger an IllConditionedWarning.
    """
    plan = _plan(_normalize(req)[0])
    return plan.pieces[0].tag, [piece.domain for piece in plan.pieces]


# ---------------------------------------------------------------------------
# branch construction


def _normalize(req: SolveRequest) -> tuple:
    """Rescale a request with mu not in {0, 1, -1} to |mu| = 1; returns
    (request, scale)."""
    mu = req.relation.mu
    if mu != 0.0 and abs(mu) != 1.0:
        rel = replace(req.relation, mu=math.copysign(1.0, mu))
        return replace(req, relation=rel), 1.0 / abs(mu)
    return req, 1.0


def _norm_circle_branch(req: SolveRequest, piece: _Piece,
                        slope: NormCircle) -> ProfileBranch:
    """Closed-form branch on a norm circle, on the rows of _build_grid
    strictly inside the domain and off its root."""
    dom = piece.domain
    grid = sorted_unique(np.clip(
        _build_grid(dom, req.samples, req.p.m, math.inf),
        np.nextafter(dom.lower, math.inf), np.nextafter(dom.upper, 0.0)))
    with np.errstate(all="ignore"):
        du = req.sign * np.asarray(slope(grid))
    off_root = np.isfinite(du)
    alpha, du = grid[off_root], du[off_root]
    a0 = piece.anchor_alpha
    return ProfileBranch(
        request=req, case=piece.tag, domain=dom, alpha=alpha,
        u=req.sign * slope.height(alpha) + req.shift,
        du=du,
        slope=slope,
        anchor=(a0, float(req.sign * slope.height(a0) + req.shift)),
        span=slope.R)


def _quadrature_branch(req: SolveRequest, piece: _Piece,
                       law: SlopeLaw) -> ProfileBranch:
    dom = piece.domain
    cut = math.inf
    if not dom.bounded:
        cut = ALPHA_MAX_FACTOR * max(dom.lower, 1.0)
    table = profile_from_integral(
        law, dom, req.sign, (piece.anchor_alpha, req.shift),
        samples=req.samples, tol=req.tol, upper_cut=cut)
    return ProfileBranch(
        request=req, case=piece.tag, domain=dom, alpha=table.alpha,
        u=table.u, du=table.du, slope=law,
        anchor=(piece.anchor_alpha, req.shift), span=table.span,
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
        span=scale * branch.span, quad_error=scale * branch.quad_error,
        scale=scale)


def solve(req: SolveRequest, *, case: CaseTag | None = None) -> list:
    """All admissible branches for a request, one per maximal interval.

    With ``case``, only the branch of the piece with that tag, or [] where
    the request has no such piece.  Each branch is built on its own, so it
    has the bits of the same branch among all of them.
    """
    norm_req, scale = _normalize(req)
    plan = _plan(norm_req)
    build = (_norm_circle_branch if isinstance(plan.slope, NormCircle)
             else _quadrature_branch)
    return [_rescale(build(norm_req, piece, plan.slope), scale)
            for piece in plan.pieces if case in (None, piece.tag)]


# ---------------------------------------------------------------------------
# convenience wrappers for the individual families


def solve_constant_k2(p, c: float = 0.0, sign: int = +1,
                      samples: int = 512) -> ProfileBranch:
    """Unit sphere translated along the axis: k2 = -1 identically."""
    req = SolveRequest(p=p, relation=WeingartenRelation(math.inf, -1.0),
                       shift=c, sign=sign, samples=samples)
    return solve(req)[0]


def solve_constant_k1(p, mu: float, c1: float, c2: float = 0.0,
                      sign: int = +1, samples: int = 512) -> ProfileBranch:
    """Circle-like arc with k1 = mu constant (mu = +/-1)."""
    req = SolveRequest(p=p, relation=WeingartenRelation(0.0, mu),
                       c1=c1, shift=c2, sign=sign, samples=samples)
    return solve(req)[0]


def solve_homogeneous(p, lam: float, c2: float, sign: int = +1,
                      samples: int = 512,
                      tol: float = 1e-10) -> ProfileBranch:
    req = SolveRequest(p=p, relation=WeingartenRelation(lam, 0.0),
                       c2=c2, sign=sign, samples=samples, tol=tol)
    return solve(req)[0]


def solve_inhom_lambda_minus1(p, mu: float, c1: float, sign: int = +1,
                              samples: int = 512, tol: float = 1e-10) -> list:
    req = SolveRequest(p=p, relation=WeingartenRelation(-1.0, mu),
                       c1=c1, sign=sign, samples=samples, tol=tol)
    return solve(req)

def solve_inhom_general(p, lam: float, mu: float, c1: float, sign: int = +1,
                        samples: int = 512, tol: float = 1e-10) -> list:
    req = SolveRequest(p=p, relation=WeingartenRelation(lam, mu),
                       c1=c1, sign=sign, samples=samples, tol=tol)
    return solve(req)
