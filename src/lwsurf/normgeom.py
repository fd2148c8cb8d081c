"""Norm data and curvature formulas for rotational surfaces.

The ambient space is R^3 with the rotationally symmetric norm
``((x1^2 + x2^2)^m + x3^(2m))^(1/2m)`` for an integer m >= 1.  A rotational
surface is generated by a profile u(alpha), its axis coordinate over the
radius; its two principal curvatures come from the differential of the
Birkhoff normal field, whose radial part is one function W of the
slope's size |u'| (``normal_angle``).  Every fractional power, with odd
denominator 2m-1, is a power of |u'|; the sign of u' enters k2 alone.

The curvature functions take floats or float arrays.  On arrays, powers
run through ``quadrature.libm`` and the rest through numpy's +, -, *, /,
so every element has the bits of the float evaluation, and an element
whose float evaluation raises is NaN.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import as_libm

__all__ = [
    "NormParameter",
    "PrincipalCurvatures",
    "normal_angle",
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


# W and dW/ds at the slope's size s, as the lines that set w and dw; a1 =
# 1 + s^(2m/q) is their common factor, and the exponents are the names in
# _EXPONENTS, which _exponents binds.  normal_angle compiles W from the
# first two lines and W_dW from all three, and the ODE oracle writes all
# three into its stages (verify._RELATION).
_NORMAL_ANGLE = ("a1 = 1.0 + s ** e_a",
                 "w = s ** e_w * a1 ** e_norm",
                 "dw = e_w * a1 ** e_outer * s ** e_b")
_EXPONENTS = ("e_w", "e_a", "e_norm", "e_outer", "e_b")


def _exponents(p: NormParameter) -> dict:
    """The exponents that _NORMAL_ANGLE reads, by name, for the norm p."""
    m, q = p.m, p.q
    return dict(zip(_EXPONENTS, (1.0 / q, 2 * m / q, -1.0 / (2 * m),
                                 -(2 * m + 1) / (2 * m), -(2 * m - 2) / q)))


@functools.cache
def normal_angle(p: NormParameter) -> tuple:
    """``(W, W_dW)``: the normal-angle function of the norm p, W(s) =
    s^(1/q) * (1 + s^(2m/q))^(-1/2m) of the slope's size s = |u'|, and the
    pair (W(s), dW/ds).  k1 = -dW/ds * u'', k2 = -sign(u') * W / alpha,
    and alpha^lam * W + mu * alpha^(lam+1)/(lam+1) is the first integral.
    s is a float or a LibmArray, whose elements have the float's bits; a
    float raises where Python's pow does, as at s = 0 for m > 1.  Both
    are compiled from ``_NORMAL_ANGLE``, once per p, on the first call.
    """
    body = ["    " + line for line in _NORMAL_ANGLE]
    source = "\n".join(["def W(s):", *body[:2], "    return w", "",
                        "def W_dW(s):", *body, "    return w, dw"])
    namespace = _exponents(p)
    exec(compile(source, "<normal angle>", "exec"), namespace)
    return namespace["W"], namespace["W_dW"]


def principal_curvatures(p: NormParameter, radius, d1,
                         d2) -> PrincipalCurvatures:
    """Principal curvatures of a rotational surface whose profile u(alpha)
    has u' = d1 != 0 and u'' = d2 at alpha = radius > 0, from
    ``normal_angle``: k1 = -dW * d2 and k2 = -(1/radius) * (sign(d1) * W).

    Signs follow the normal with positive axis component; see
    ``oriented_radius_chart_curvatures`` for the orientation-normalized
    variant.  The arguments are floats or float arrays; on arrays, an
    element whose float evaluation raises is NaN.
    """
    if isinstance(d1, np.ndarray):
        d1 = as_libm(np.where((d1 == 0.0) | (radius <= 0.0), math.nan, d1))
    elif d1 == 0.0:
        raise ValueError("profile jet needs d1 != 0")
    elif radius <= 0.0:
        raise ValueError("profile jet needs radius > 0")
    w, dw = normal_angle(p)[1](abs(d1))
    if isinstance(d1, np.ndarray):
        w = np.where(d1 < 0.0, -w, w)
    elif d1 < 0.0:
        w = -w
    return PrincipalCurvatures(k1=-dw * d2, k2=-(1.0 / radius) * w)


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
