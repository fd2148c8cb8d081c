"""Norm data and curvature formulas for rotational surfaces.

The ambient space is R^3 with the rotationally symmetric norm
``((x1^2 + x2^2)^m + x3^(2m))^(1/2m)`` for an integer m >= 1.  A rotational
surface is generated by a profile u(alpha), its axis coordinate over the
radius; its two principal curvatures come from the differential of the
Birkhoff normal field.  All fractional powers with odd denominator 2m-1
use the real odd-root convention so that profiles with negative slope
stay inside the real formulas.

The curvature functions take floats or float arrays.  On arrays, powers
run through ``quadrature.libm`` and the rest through numpy's +, -, *, /,
so every element has the bits of the float evaluation, and an element
whose float evaluation raises is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import LibmArray, libm

__all__ = [
    "NormParameter",
    "PrincipalCurvatures",
    "signed_odd_root_pow",
    "principal_curvatures",
    "oriented_radius_chart_curvatures",
]


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
class PrincipalCurvatures:
    k1: float  # meridian curvature
    k2: float  # parallel curvature


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


def principal_curvatures(p: NormParameter, radius, d1,
                         d2) -> PrincipalCurvatures:
    """Principal curvatures of a rotational surface whose profile u(alpha)
    has u' = d1 != 0 and u'' = d2 at alpha = radius > 0.

    Signs follow the normal with positive axis component; see
    ``oriented_radius_chart_curvatures`` for the orientation-normalized
    variant.  The arguments are floats or float arrays; on arrays, an
    element whose float evaluation raises is NaN.
    """
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
    k1 = -(1.0 / q) * outer * inner * d2
    k2 = (-(1.0 / radius) * A1 ** (-1.0 / (2 * m))
          * signed_odd_root_pow(d1, 1, q))
    return PrincipalCurvatures(k1=k1, k2=k2)


def oriented_radius_chart_curvatures(p: NormParameter, radius, d1,
                                     d2) -> PrincipalCurvatures:
    """``principal_curvatures`` normalized to the d1 > 0 orientation: the
    graphs over the radius and over the axis induce opposite normals where
    d1 < 0, so both curvatures are negated there to agree with the
    graph-over-axis values.  The arguments are floats or float arrays.
    """
    k = principal_curvatures(p, radius, d1, d2)
    if isinstance(d1, np.ndarray):
        flip = d1 < 0.0
        return PrincipalCurvatures(k1=np.where(flip, -k.k1, k.k1),
                                   k2=np.where(flip, -k.k2, k.k2))
    if d1 < 0.0:
        return PrincipalCurvatures(k1=-k.k1, k2=-k.k2)
    return k
