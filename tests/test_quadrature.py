"""Singular quadrature engine tests against independent closed forms."""

import math

import numpy as np
import pytest
from scipy import special

from lwsurf import (
    DomainInterval,
    EndpointKind,
    IntegrandSpec,
    bracket_roots,
    integrate_singular,
    profile_from_integral,
)


def simple_root_spec(m: int, a: float, b: float) -> IntegrandSpec:
    """1/(t - a)^((2m-1)/2m) on (a, b): integral is 2m*(b - a)^(1/2m)."""
    return IntegrandSpec(
        numerator=lambda t: 1.0,
        denominator=lambda t: t - a,
        exponent=(2 * m - 1) / (2 * m),
        m=m)


def interval(a: float, b: float, lower: str, upper: str) -> DomainInterval:
    return DomainInterval(a, b, EndpointKind[lower], EndpointKind[upper])


class TestBracketRoots:
    def test_simple_roots_of_cubic(self):
        # (t-1)(t-2)(t-4) has three simple roots
        f = lambda t: (t - 1.0) * (t - 2.0) * (t - 4.0)
        roots = bracket_roots(f, 0.0, 5.0, probes=64)
        assert all(type(r) is float for r in roots)
        assert np.allclose(roots, [1.0, 2.0, 4.0], atol=1e-12)

    def test_no_roots(self):
        assert bracket_roots(lambda t: t * t + 1.0, -3.0, 3.0) == []

    def test_transcendental_pair(self):
        # t*(c1 - log t) = 1 with c1 = 1.5 has two roots; compare against
        # direct brentq on hand-picked brackets
        from scipy.optimize import brentq
        c1 = 1.5
        f = lambda t: 1.0 - t * (c1 - math.log(t))
        roots = bracket_roots(f, 1e-12, math.exp(c1), probes=256)
        assert len(roots) == 2
        r1 = brentq(f, 0.3, 1.2)
        r2 = brentq(f, 2.0, math.exp(c1) - 1e-9)
        assert roots[0] == pytest.approx(r1, abs=1e-10)
        assert roots[1] == pytest.approx(r2, abs=1e-10)

    def test_brent_cap_next_to_double_root(self):
        # a simple root 1.4e-12 from a double root: Brent's interpolation
        # crawls and runs out of its 100 iterations; bisection finishes
        c, d = 37.985826165876226, 1.3858335572361976e-12
        f = lambda x: (x + c) ** 2 * (x + c - d)
        roots = bracket_roots(f, -98.11043508113295, -33.76129618694514, 64)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-c + d, abs=1e-13)

    def test_sign_change_across_a_pole_dropped(self):
        # 1/(t - 1.3) changes sign at its pole, where |f| is not small
        f = lambda t: 1.0 / (t - 1.3) if t != 1.3 else math.inf
        assert bracket_roots(f, 0.0, 3.0) == []

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (0.0, math.nan),
                                       (2.0, 2.0), (3.0, 1.0),
                                       (-math.inf, 1.0)])
    def test_window_must_be_finite_and_nonempty(self, lo, hi):
        with pytest.raises(ValueError, match="finite window"):
            bracket_roots(lambda t: t - 1.5, lo, hi)


class TestIntegrateSingular:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_simple_root_closed_form(self, m):
        a, b = 0.5, 2.5
        res = integrate_singular(simple_root_spec(m, a, b),
                                 interval(a, b, "SIMPLE_ROOT", "SMOOTH_CAP"))
        assert res.finite
        expected = 2 * m * (b - a) ** (1.0 / (2 * m))
        assert res.value == pytest.approx(expected, abs=1e-10)

    def test_quarter_beta_integral(self):
        # int_1^inf dt / (t^4 - 1)^(3/4) = B(1/2, 1/4) / 4, evaluated
        # independently through the Gamma function
        m = 2
        spec = IntegrandSpec(
            numerator=lambda t: 1.0,
            denominator=lambda t: t ** 4 - 1.0,
            exponent=0.75, m=m, decay_exponent=3.0)
        res = integrate_singular(
            spec, interval(1.0, math.inf, "SIMPLE_ROOT", "UNBOUNDED"))
        expected = special.beta(0.5, 0.25) / 4.0
        assert res.finite
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_double_root_divergent(self):
        m = 2
        spec = IntegrandSpec(
            numerator=lambda t: 1.0,
            denominator=lambda t: (t - 1.0) ** 2,
            exponent=0.75, m=m)
        res = integrate_singular(
            spec, interval(1.0, 2.0, "DOUBLE_ROOT", "SMOOTH_CAP"))
        assert not res.finite

    def test_slow_decay_divergent(self):
        m = 2
        spec = IntegrandSpec(
            numerator=lambda t: 1.0,
            denominator=lambda t: t,
            exponent=1.0, m=m, decay_exponent=1.0)
        res = integrate_singular(
            spec, interval(1.0, math.inf, "SMOOTH_CAP", "UNBOUNDED"))
        assert not res.finite

    def test_regular_integral(self):
        m = 2
        spec = IntegrandSpec(
            numerator=lambda t: t,
            denominator=lambda t: 1.0,
            exponent=1.0, m=m)
        res = integrate_singular(
            spec, interval(0.0, 2.0, "SMOOTH_CAP", "SMOOTH_CAP"))
        assert res.value == pytest.approx(2.0, abs=1e-12)


class TestProfileFromIntegral:
    def test_trivial_linear_profile(self):
        # du/dalpha = 1 everywhere: u is alpha - alpha0
        m = 2
        spec = IntegrandSpec(numerator=lambda t: 1.0,
                             denominator=lambda t: 1.0,
                             exponent=1.0, m=m)
        dom = DomainInterval(0.0, 1.0, EndpointKind.SMOOTH_CAP,
                             EndpointKind.SMOOTH_CAP)
        prof = profile_from_integral(spec, dom, +1, (0.0, 0.0), samples=3)
        assert np.allclose(prof.u, prof.alpha, atol=1e-13)
        assert np.allclose(prof.du, 1.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_singular_edge_profile_matches_closed_form(self, m):
        # du/dalpha = (alpha - 1)^(-(2m-1)/2m) integrates to
        # 2m * (alpha - 1)^(1/2m)
        a, b = 1.0, 2.0
        spec = simple_root_spec(m, a, b)
        dom = DomainInterval(a, b, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        prof = profile_from_integral(spec, dom, +1, (a, 0.0), samples=128)
        expected = 2 * m * (prof.alpha - a) ** (1.0 / (2 * m))
        assert np.max(np.abs(prof.u - expected)) < 1e-10

    def test_sign_flip(self):
        m = 2
        spec = simple_root_spec(m, 1.0, 2.0)
        dom = DomainInterval(1.0, 2.0, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        up = profile_from_integral(spec, dom, +1, (1.0, 0.5), samples=64)
        dn = profile_from_integral(spec, dom, -1, (1.0, 0.5), samples=64)
        assert np.allclose(up.u - 0.5, -(dn.u - 0.5), atol=1e-13)
        assert np.allclose(up.du, -dn.du)

    def test_anchor_outside_domain_rejected(self):
        m = 2
        spec = simple_root_spec(m, 1.0, 2.0)
        dom = DomainInterval(1.0, 2.0, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        with pytest.raises(ValueError):
            profile_from_integral(spec, dom, +1, (3.0, 0.0))

    def test_graded_grid_denser_near_simple_root(self):
        m = 2
        spec = simple_root_spec(m, 1.0, 2.0)
        dom = DomainInterval(1.0, 2.0, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        prof = profile_from_integral(spec, dom, +1, (1.0, 0.0), samples=128)
        steps = np.diff(prof.alpha)
        # edge panel adjacent to the root is much finer than the far end
        assert steps[0] < 1e-3 * steps[-1]
