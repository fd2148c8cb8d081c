"""Curvature formula unit tests against independent closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwsurf import (
    Chart,
    NormParameter,
    ProfileJet,
    birkhoff_normal,
    oriented_radius_chart_curvatures,
    phi,
    principal_curvatures,
    signed_odd_root_pow,
)
from lwsurf.normgeom import weingarten_residual


def sphere_radius_jet(m: int, a: float) -> ProfileJet:
    """Jet of u(alpha) = -(1 - alpha^(2m))^(1/2m), the lower unit sphere.

    Derivatives computed by hand from the implicit equation
    alpha^(2m) + u^(2m) = 1.
    """
    w = (1.0 - a ** (2 * m)) ** (1.0 / (2 * m))
    d1 = a ** (2 * m - 1) / w ** (2 * m - 1)
    d2 = ((2 * m - 1) * a ** (2 * m - 2) / w ** (4 * m - 1))
    return ProfileJet(Chart.GRAPH_OVER_RADIUS, value=-w, d1=d1, d2=d2,
                      radius=a)


class TestSignedOddRootPow:
    def test_positive_base(self):
        assert signed_odd_root_pow(8.0, 1, 3) == pytest.approx(2.0)

    def test_negative_base_odd_power(self):
        assert signed_odd_root_pow(-8.0, 1, 3) == pytest.approx(-2.0)

    def test_negative_base_even_power(self):
        assert signed_odd_root_pow(-8.0, 2, 3) == pytest.approx(4.0)

    def test_zero_base(self):
        assert signed_odd_root_pow(0.0, 2, 3) == 0.0
        assert signed_odd_root_pow(0.0, 0, 3) == 1.0
        with pytest.raises(ZeroDivisionError):
            signed_odd_root_pow(0.0, -1, 3)

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            signed_odd_root_pow(1.0, 1, 2)

    @given(x=st.floats(-10.0, 10.0, allow_nan=False).filter(
               lambda v: v == 0.0 or abs(v) >= 1e-3),
           p=st.integers(-3, 6), q=st.sampled_from([1, 3, 5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry(self, x, p, q):
        if x == 0.0 and p <= 0:
            return
        a = signed_odd_root_pow(x, p, q)
        b = signed_odd_root_pow(-x, p, q)
        if p % 2 == 0:
            assert a == pytest.approx(b, abs=1e-12)
        else:
            assert a == pytest.approx(-b, abs=1e-12)


class TestNormParameter:
    def test_q(self):
        assert NormParameter(1).q == 1
        assert NormParameter(3).q == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            NormParameter(0)
        with pytest.raises(ValueError):
            NormParameter(-2)


class TestBirkhoffNormal:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_normal_is_unit_vector(self, m):
        p = NormParameter(m)
        frame = birkhoff_normal(p, 0.6, -1.3, 0.7)
        assert phi(p, frame.eta) == pytest.approx(1.0, abs=1e-12)

    def test_zero_tangent_rejected(self):
        with pytest.raises(ValueError):
            birkhoff_normal(NormParameter(2), 0.0, 0.0, 0.0)


class TestSphereCurvatures:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    def test_unit_sphere_both_curvatures(self, m, a):
        p = NormParameter(m)
        k = principal_curvatures(p, sphere_radius_jet(m, a))
        assert k.k1 == pytest.approx(-1.0, abs=1e-11)
        assert k.k2 == pytest.approx(-1.0, abs=1e-11)

    def test_weingarten_residual_on_sphere(self):
        p = NormParameter(2)
        k = principal_curvatures(p, sphere_radius_jet(2, 0.4))
        assert weingarten_residual(k, 1.0, -2.0) == pytest.approx(0.0, abs=1e-11)


class TestEuclideanCrossCheck:
    """m = 1 must reproduce the classical surface-of-revolution formulas."""

    def test_sphere(self):
        p = NormParameter(1)
        a = 0.3
        d1 = a / math.sqrt(1.0 - a * a)
        d2 = 1.0 / (1.0 - a * a) ** 1.5
        k = principal_curvatures(
            p, ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=d1, d2=d2,
                          radius=a))
        assert k.k1 == pytest.approx(-1.0, abs=1e-12)
        assert k.k2 == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1.1, 1.5, 2.0, 3.0])
    def test_catenoid(self, a):
        # profile u = arccosh(alpha): k1 = 1/alpha^2, k2 = -1/alpha^2
        p = NormParameter(1)
        d1 = 1.0 / math.sqrt(a * a - 1.0)
        d2 = -a / (a * a - 1.0) ** 1.5
        k = principal_curvatures(
            p, ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=d1, d2=d2,
                          radius=a))
        assert k.k1 == pytest.approx(1.0 / a ** 2, abs=1e-12)
        assert k.k2 == pytest.approx(-1.0 / a ** 2, abs=1e-12)
        assert k.k1 + k.k2 == pytest.approx(0.0, abs=1e-12)

    def test_classical_formula_generic_jet(self):
        # k1 = -u''/(1+u'^2)^(3/2), k2 = -u'/(r*sqrt(1+u'^2)) at m = 1
        p = NormParameter(1)
        r, d1, d2 = 1.7, -0.8, 0.45
        k = principal_curvatures(
            p, ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=d1, d2=d2,
                          radius=r))
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
        k_a = principal_curvatures(p, ProfileJet(
            Chart.GRAPH_OVER_AXIS, value=a, d1=1.0 / d1, d2=-d2 / d1 ** 3,
            radius=a))
        assert k_a.k1 == pytest.approx(k_r.k1, rel=1e-12, abs=0.0)
        assert k_a.k2 == pytest.approx(k_r.k2, rel=1e-12, abs=0.0)

    def test_oriented_curvatures_negative_slope(self):
        """Orientation normalization flips both signs together for d1 < 0."""
        p = NormParameter(2)
        k_pos = oriented_radius_chart_curvatures(p, 0.8, 1.2, 0.5)
        raw = principal_curvatures(
            p, ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=-1.2,
                          d2=0.5, radius=0.8))
        k_neg = oriented_radius_chart_curvatures(p, 0.8, -1.2, 0.5)
        assert k_neg.k1 == pytest.approx(-raw.k1)
        assert k_neg.k2 == pytest.approx(-raw.k2)
        # mirror profile: same k2 magnitude at the same radius
        assert abs(k_neg.k2) == pytest.approx(abs(k_pos.k2), rel=1e-12)

    def test_degenerate_jets_rejected(self):
        p = NormParameter(2)
        with pytest.raises(ValueError):
            principal_curvatures(p, ProfileJet(Chart.GRAPH_OVER_RADIUS,
                                               0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            principal_curvatures(p, ProfileJet(Chart.GRAPH_OVER_RADIUS,
                                               0.0, 1.0, 1.0, -1.0))
