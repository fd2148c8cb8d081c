"""Norm data and curvature formulas for rotational surfaces.

The ambient space is R^3 with the rotationally symmetric norm
``((x1^2 + x2^2)^m + x3^(2m))^(1/2m)`` for an integer m >= 1.  A rotational
surface is generated by a profile curve in the (radius, axis) half-plane;
its two principal curvatures come from the differential of the Birkhoff
normal field.  All fractional powers with odd denominator 2m-1 use the real
odd-root convention so that profiles with negative slope stay inside the
real formulas.

The curvature functions take floats or float arrays.  On arrays, powers
run through ``quadrature.libm`` and the rest through numpy's +, -, *, /,
so every element has the bits of the float evaluation, and an element
whose float evaluation raises is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quadrature import LibmArray, libm

__all__ = [
    "Chart",
    "NormParameter",
    "ProfileJet",
    "BirkhoffFrame",
    "PrincipalCurvatures",
    "phi",
    "signed_odd_root_pow",
    "birkhoff_normal",
    "principal_curvatures",
    "oriented_radius_chart_curvatures",
    "weingarten_residual",
]


class Chart(Enum):
    """Which coordinate is the graph parameter of the profile curve."""

    GRAPH_OVER_AXIS = "graph_over_axis"      # radius = alpha(u), axis = u
    GRAPH_OVER_RADIUS = "graph_over_radius"  # axis = beta(u), radius = u


@dataclass(frozen=True)
class NormParameter:
    """The integer exponent m of the norm.  m = 1 is the Euclidean case."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")

    @property
    def q(self) -> int:
        """Odd denominator 2m - 1 shared by all fractional exponents."""
        return 2 * self.m - 1


@dataclass(frozen=True)
class ProfileJet:
    """Second-order jet of a profile curve at one point.

    ``value``/``d1``/``d2`` are the profile function and its derivatives in
    the given chart; ``radius`` is the distance to the rotation axis at the
    point (needed by the parallel curvature).
    """

    chart: Chart
    value: float
    d1: float
    d2: float
    radius: float


@dataclass(frozen=True)
class BirkhoffFrame:
    eta: np.ndarray   # Birkhoff normal, unit vector of the norm
    A: float          # (alpha')^(2m/(2m-1)) + (beta')^(2m/(2m-1))


@dataclass(frozen=True)
class PrincipalCurvatures:
    k1: float  # meridian curvature
    k2: float  # parallel curvature


def phi(p: NormParameter, x) -> float:
    """Gauge function (x1^2 + x2^2)^m + x3^(2m); equals 1 on the unit sphere."""
    x = np.asarray(x, dtype=float)
    return float((x[0] ** 2 + x[1] ** 2) ** p.m + x[2] ** (2 * p.m))


def signed_odd_root_pow(x, p: int, q: int):
    """Real power x^(p/q) for odd q: sign(x)^p * |x|^(p/q).

    Continuous in x for p >= q; raises for a negative power of zero.  x is
    a float or a float array, whose elements have the float's bits and
    are NaN where the float raises.
    """
    if q <= 0 or q % 2 == 0:
        raise ValueError(f"q must be an odd positive integer, got {q}")
    if isinstance(x, np.ndarray):
        y = libm(pow, np.abs(x), p / q).view(LibmArray)
        return np.negative(y, where=x < 0.0, out=y) if p % 2 else y
    if x == 0.0:
        if p < 0:
            raise ZeroDivisionError("negative fractional power of zero")
        return 1.0 if p == 0 else 0.0
    sign = -1.0 if (x < 0.0 and p % 2 != 0) else 1.0
    return sign * abs(x) ** (p / q)


def birkhoff_normal(p: NormParameter, d_alpha: float, d_beta: float,
                    v: float) -> BirkhoffFrame:
    """Birkhoff normal of a rotational surface at meridian angle v.

    ``d_alpha``/``d_beta`` are the derivatives of the radius and axis
    components of the profile; at least one must be nonzero.
    """
    if d_alpha == 0.0 and d_beta == 0.0:
        raise ValueError("(d_alpha, d_beta) must be nonzero")
    q = p.q
    A = (signed_odd_root_pow(d_alpha, 2 * p.m, q)
         + signed_odd_root_pow(d_beta, 2 * p.m, q))
    assert A > 0.0, "A is a sum of positive even odd-root powers"
    scale = A ** (-1.0 / (2 * p.m))
    b = signed_odd_root_pow(d_beta, 1, q)
    a = signed_odd_root_pow(d_alpha, 1, q)
    eta = scale * np.array([-b * math.cos(v), -b * math.sin(v), a])
    return BirkhoffFrame(eta=eta, A=A)


def principal_curvatures(p: NormParameter, jet: ProfileJet) -> PrincipalCurvatures:
    """Principal curvatures of a rotational surface from a profile jet.

    Uses the graph-over-axis formulas when the profile is radius(u) and the
    graph-over-radius formulas when it is axis(u).  Signs follow the normal
    with positive axis component; see ``oriented_radius_chart_curvatures``
    for the orientation-normalized variant.  The jet's numbers are floats
    or float arrays; on arrays, an element whose float jet raises is NaN.
    """
    d1, d2, radius = jet.d1, jet.d2, jet.radius
    if isinstance(d1, np.ndarray):
        d1 = np.where((d1 == 0.0) | (radius <= 0.0), math.nan, d1)
    elif d1 == 0.0:
        raise ValueError("profile jet needs d1 != 0")
    elif radius <= 0.0:
        raise ValueError("profile jet needs radius > 0")
    m, q = p.m, p.q
    A1 = signed_odd_root_pow(d1, 2 * m, q) + 1.0
    outer = A1 ** (-(2 * m + 1) / (2 * m))
    inner = signed_odd_root_pow(d1, -(2 * m - 2), q)
    if jet.chart is Chart.GRAPH_OVER_AXIS:
        k1 = (1.0 / q) * outer * inner * d2
        k2 = -(1.0 / radius) * A1 ** (-1.0 / (2 * m))
    else:
        k1 = -(1.0 / q) * outer * inner * d2
        k2 = (-(1.0 / radius) * A1 ** (-1.0 / (2 * m))
              * signed_odd_root_pow(d1, 1, q))
    return PrincipalCurvatures(k1=k1, k2=k2)


def oriented_radius_chart_curvatures(p: NormParameter, radius, d1,
                                     d2) -> PrincipalCurvatures:
    """Graph-over-radius curvatures normalized to the d1 > 0 orientation.

    The two graph charts induce opposite normals when the axis profile is
    decreasing; negating both curvatures for d1 < 0 makes the pair agree
    with the graph-over-axis values at the same geometric point.  The
    arguments are floats or float arrays.
    """
    k = principal_curvatures(
        p, ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=d1, d2=d2,
                      radius=radius))
    if isinstance(d1, np.ndarray):
        flip = d1 < 0.0
        return PrincipalCurvatures(k1=np.where(flip, -k.k1, k.k1),
                                   k2=np.where(flip, -k.k2, k.k2))
    if d1 < 0.0:
        return PrincipalCurvatures(k1=-k.k1, k2=-k.k2)
    return k


def weingarten_residual(k: PrincipalCurvatures, lam: float, mu: float) -> float:
    """Residual k1 + lam*k2 - mu of the linear curvature relation."""
    return k.k1 + lam * k.k2 - mu
