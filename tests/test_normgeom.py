"""Curvature formula unit tests against independent closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwsurf import (
    NormParameter,
    normal_angle,
    oriented_radius_chart_curvatures,
    principal_curvatures,
)


def sphere_radius_jet(m: int, a: float) -> tuple:
    """(radius, d1, d2) of u(alpha) = -(1 - alpha^(2m))^(1/2m), the lower
    unit sphere.

    Derivatives computed by hand from the implicit equation
    alpha^(2m) + u^(2m) = 1.
    """
    w = (1.0 - a ** (2 * m)) ** (1.0 / (2 * m))
    d1 = a ** (2 * m - 1) / w ** (2 * m - 1)
    d2 = ((2 * m - 1) * a ** (2 * m - 2) / w ** (4 * m - 1))
    return a, d1, d2


def graph_over_axis_curvatures(m: int, radius: float, d1: float,
                               d2: float) -> tuple:
    """(k1, k2) of the profile written as the graph radius(u) over the
    axis, with radius' = d1 and radius'' = d2: the chart lwsurf does not
    use, written here from |d1| as an independent check of the one it
    does."""
    q = 2 * m - 1
    s = abs(d1)
    A1 = s ** (2 * m / q) + 1.0
    k1 = A1 ** (-(2 * m + 1) / (2 * m)) * s ** (-(2 * m - 2) / q) * d2 / q
    k2 = -A1 ** (-1.0 / (2 * m)) / radius
    return k1, k2


class TestNormParameter:
    def test_q(self):
        assert NormParameter(1).q == 1
        assert NormParameter(3).q == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            NormParameter(0)
        with pytest.raises(ValueError):
            NormParameter(-2)


class TestNormalAngle:
    @pytest.mark.parametrize("s", [1e-8, 0.3, 1.0, 2.5, 1e3, 1e8])
    def test_euclidean_closed_form(self, s):
        """m = 1: W = |u'|/sqrt(1 + u'^2) and dW = (1 + u'^2)^(-3/2)."""
        W, W_dW = normal_angle(NormParameter(1))
        w, dw = W_dW(s)
        assert W(s) == w
        assert w == pytest.approx(s / math.sqrt(1.0 + s * s), rel=1e-15)
        assert dw == pytest.approx((1.0 + s * s) ** -1.5, rel=1e-14)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("s", [0.05, 0.7, 3.0, 40.0])
    def test_dw_is_the_derivative_of_w(self, m, s):
        """dW matches a central difference of W; W lies in (0, 1)."""
        W, W_dW = normal_angle(NormParameter(m))
        h = 1e-5 * s
        w, dw = W_dW(s)
        assert 0.0 < w < 1.0
        assert dw == pytest.approx((W(s + h) - W(s - h)) / (2 * h),
                                   rel=1e-8)


class TestSphereCurvatures:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    def test_unit_sphere_both_curvatures(self, m, a):
        p = NormParameter(m)
        k = principal_curvatures(p, *sphere_radius_jet(m, a))
        assert k.k1 == pytest.approx(-1.0, abs=1e-11)
        assert k.k2 == pytest.approx(-1.0, abs=1e-11)

    def test_weingarten_residual_on_sphere(self):
        p = NormParameter(2)
        k = principal_curvatures(p, *sphere_radius_jet(2, 0.4))
        lam, mu = 1.0, -2.0
        assert k.k1 + lam * k.k2 - mu == pytest.approx(0.0, abs=1e-11)


class TestEuclideanCrossCheck:
    """m = 1 must reproduce the classical surface-of-revolution formulas."""

    def test_sphere(self):
        p = NormParameter(1)
        a = 0.3
        d1 = a / math.sqrt(1.0 - a * a)
        d2 = 1.0 / (1.0 - a * a) ** 1.5
        k = principal_curvatures(p, a, d1, d2)
        assert k.k1 == pytest.approx(-1.0, abs=1e-12)
        assert k.k2 == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1.1, 1.5, 2.0, 3.0])
    def test_catenoid(self, a):
        # profile u = arccosh(alpha): k1 = 1/alpha^2, k2 = -1/alpha^2
        p = NormParameter(1)
        d1 = 1.0 / math.sqrt(a * a - 1.0)
        d2 = -a / (a * a - 1.0) ** 1.5
        k = principal_curvatures(p, a, d1, d2)
        assert k.k1 == pytest.approx(1.0 / a ** 2, abs=1e-12)
        assert k.k2 == pytest.approx(-1.0 / a ** 2, abs=1e-12)
        assert k.k1 + k.k2 == pytest.approx(0.0, abs=1e-12)

    def test_classical_formula_generic_jet(self):
        # k1 = -u''/(1+u'^2)^(3/2), k2 = -u'/(r*sqrt(1+u'^2)) at m = 1
        p = NormParameter(1)
        r, d1, d2 = 1.7, -0.8, 0.45
        k = principal_curvatures(p, r, d1, d2)
        assert k.k1 == pytest.approx(-d2 / (1 + d1 ** 2) ** 1.5, abs=1e-12)
        assert k.k2 == pytest.approx(-d1 / (r * math.sqrt(1 + d1 ** 2)),
                                     abs=1e-12)


class TestChartConsistency:
    @given(log_d1=st.floats(-3.0, 8.0), sign=st.sampled_from([-1.0, 1.0]),
           d2=st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 1e-3),
           a=st.floats(0.3, 3.0), m=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_inverse_chart_same_curvatures(self, log_d1, sign, d2, a, m):
        """The oriented radius chart and the inverse graph-over-axis jet
        (1/d1, -d2/d1^3) agree at the same geometric point, for slopes of
        both signs up to |d1| = 1e8; the measured floor is 4.7e-15."""
        p = NormParameter(m)
        d1 = sign * 10.0 ** log_d1
        k_r = oriented_radius_chart_curvatures(p, a, d1, d2)
        k1, k2 = graph_over_axis_curvatures(m, a, 1.0 / d1, -d2 / d1 ** 3)
        assert k1 == pytest.approx(k_r.k1, rel=1e-12, abs=0.0)
        assert k2 == pytest.approx(k_r.k2, rel=1e-12, abs=0.0)

    def test_oriented_curvatures_negative_slope(self):
        """Orientation normalization flips both signs together for d1 < 0."""
        p = NormParameter(2)
        k_pos = oriented_radius_chart_curvatures(p, 0.8, 1.2, 0.5)
        raw = principal_curvatures(p, 0.8, -1.2, 0.5)
        k_neg = oriented_radius_chart_curvatures(p, 0.8, -1.2, 0.5)
        assert k_neg.k1 == pytest.approx(-raw.k1)
        assert k_neg.k2 == pytest.approx(-raw.k2)
        # mirror profile: same k2 magnitude at the same radius
        assert abs(k_neg.k2) == pytest.approx(abs(k_pos.k2), rel=1e-12)

    def test_degenerate_jets_rejected(self):
        p = NormParameter(2)
        with pytest.raises(ValueError):
            principal_curvatures(p, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            principal_curvatures(p, -1.0, 1.0, 1.0)
