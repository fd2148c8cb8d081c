"""Singular quadrature engine tests against independent closed forms."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

import lwsurf.quadrature as quadrature
from lwsurf import (
    DomainInterval,
    EndpointKind,
    NormParameter,
    SolveRequest,
    WeingartenRelation,
    bracket_roots,
    classify,
    integrate_singular,
    profile_from_integral,
)
from lwsurf.quadrature import log, sorted_unique
from lwsurf.solver import SlopeLaw, _hom_pos


def simple_root_law(m: int, a: float) -> SlopeLaw:
    """a^(q/2m) / (t - a)^(q/2m), q = 2m-1: the homogeneous law with
    lam = 1/2m and c2 = a, whose P^2m - Q^2m is t - a."""
    return SlopeLaw(_hom_pos, (1.0 / (2 * m), a), m)


def simple_root_integral(m: int, a: float, t: float) -> float:
    """Integral of simple_root_law(m, a) over (a, t)."""
    q = 2 * m - 1
    return 2 * m * a ** (q / (2 * m)) * (t - a) ** (1.0 / (2 * m))


def interval(a: float, b: float, lower: str, upper: str) -> DomainInterval:
    return DomainInterval(a, b, EndpointKind[lower], EndpointKind[upper])


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSortedUnique:
    """sorted_unique has the bits of np.unique on finite arrays."""

    def test_seeded_draws_with_repeats(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            x = rng.integers(-40, 40, n) * 10.0 ** rng.integers(-30, 30)
            if rng.random() < 0.5:
                x = x + rng.normal(0.0, 1.0, n)
            assert same_array(sorted_unique(x), np.unique(x)), x

    @pytest.mark.parametrize("x", [[2.5], [0.0], [-1e-300], [math.pi] * 5,
                                   []])
    def test_single_values_and_no_value(self, x):
        x = np.array(x, dtype=float)
        assert same_array(sorted_unique(x), np.unique(x))

    def test_two_sorted_halves_meeting_at_a_shared_value(self):
        """The shape of _build_grid's input: each end's graded rows, the
        midpoint in both halves."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            lo, up = np.sort(rng.normal(0.0, 10.0, 2))
            mid = 0.5 * (lo + up)
            n = int(rng.integers(1, 200))
            lo_pts = lo + (mid - lo) * np.sort(rng.random(n)) ** 4
            hi_pts = up - (up - mid) * np.sort(rng.random(n)) ** 4
            x = np.concatenate([lo_pts, [mid], hi_pts, [mid]])
            assert same_array(sorted_unique(x), np.unique(x))

    def test_the_input_is_not_reordered(self):
        x = np.array([3.0, 1.0, 3.0, 2.0])
        assert sorted_unique(x).tolist() == [1.0, 2.0, 3.0]
        assert x.tolist() == [3.0, 1.0, 3.0, 2.0]


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
        # lwsurf's log: math.log on a float, and on every float of an array
        f = lambda t: 1.0 - t * (c1 - log(t))
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
        # 1/(t - 1.3) changes sign at its pole, where |f| is not small;
        # inf at the pole itself, on a float and on an array
        def f(t):
            d = np.asarray(t, dtype=float) - 1.3
            with np.errstate(divide="ignore"):
                return np.where(d != 0.0, 1.0 / d, math.inf)
        assert bracket_roots(f, 0.0, 3.0) == []

    def test_sign_change_whose_product_underflows(self):
        # neighbouring probe values near 1e-202 multiply to 0.0
        assert bracket_roots(lambda t: 1e-200 * (t - 0.7), 0.0, 1.0) == [
            pytest.approx(0.7, abs=1e-15)]

    def test_probe_scan_emits_no_overflow_warning(self):
        """A sweep draw whose probe values are so large that the product
        of two neighbours overflows: the sign test still holds, and no
        RuntimeWarning comes out of the probe scan."""
        req = SolveRequest(p=NormParameter(3), relation=WeingartenRelation
                           .linear(-1.0099327183766427, -1.3347097074541474),
                           c1=0.7042997230779999)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                classify(req)
            except RuntimeError:  # its upper root is not found
                pass
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)
                and w.filename == quadrature.__file__] == []

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
        res = integrate_singular(simple_root_law(m, a),
                                 interval(a, b, "SIMPLE_ROOT", "SMOOTH_CAP"))
        assert res.finite
        assert res.value == pytest.approx(simple_root_integral(m, a, b),
                                          abs=1e-10)

    def test_quarter_beta_integral(self):
        # int_1^inf dt / (t^4 - 1)^(3/4) = B(1/2, 1/4) / 4, evaluated
        # independently through the Gamma function
        law = SlopeLaw(_hom_pos, (1.0, 1.0), 2, decay_exponent=3.0)
        res = integrate_singular(
            law, interval(1.0, math.inf, "SIMPLE_ROOT", "UNBOUNDED"))
        expected = special.beta(0.5, 0.25) / 4.0
        assert res.finite
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_double_root_divergent(self):
        # the endpoint kind alone decides; the law is never evaluated
        res = integrate_singular(
            simple_root_law(2, 1.0),
            interval(1.0, 2.0, "DOUBLE_ROOT", "SMOOTH_CAP"))
        assert not res.finite

    def test_slow_decay_divergent(self):
        # lam = 1/3 at m = 2: the integrand decays like t^-(2m-1)*lam = 1/t
        law = SlopeLaw(_hom_pos, (1.0 / 3.0, 1.0), 2, decay_exponent=1.0)
        res = integrate_singular(
            law, interval(1.0, math.inf, "SMOOTH_CAP", "UNBOUNDED"))
        assert not res.finite

    def test_regular_integral(self):
        m, a = 2, 0.5
        res = integrate_singular(
            simple_root_law(m, a),
            interval(1.5, 2.5, "SMOOTH_CAP", "SMOOTH_CAP"))
        expected = (simple_root_integral(m, a, 2.5)
                    - simple_root_integral(m, a, 1.5))
        assert res.value == pytest.approx(expected, abs=1e-12)


class TestProfileFromIntegral:
    def test_three_sample_profile(self):
        # the smallest table, anchored at a smooth end off any root
        m, a = 2, 0.5
        dom = DomainInterval(1.5, 2.5, EndpointKind.SMOOTH_CAP,
                             EndpointKind.SMOOTH_CAP)
        prof = profile_from_integral(simple_root_law(m, a), dom, +1,
                                     (1.5, 0.0), samples=3)
        assert prof.alpha.tolist() == [1.5, 2.0, 2.5]
        expected = [simple_root_integral(m, a, t)
                    - simple_root_integral(m, a, 1.5) for t in prof.alpha]
        assert np.allclose(prof.u, expected, rtol=0, atol=1e-13)
        assert np.allclose(prof.du, a ** 0.75 / (prof.alpha - a) ** 0.75,
                           rtol=1e-15, atol=0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_singular_edge_profile_matches_closed_form(self, m):
        # du/dalpha = (a / (alpha - a))^((2m-1)/2m) integrates to
        # 2m * a^((2m-1)/2m) * (alpha - a)^(1/2m)
        a, b = 1.0, 2.0
        dom = DomainInterval(a, b, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        prof = profile_from_integral(simple_root_law(m, a), dom, +1, (a, 0.0),
                                     samples=128)
        expected = simple_root_integral(m, a, prof.alpha)
        assert np.max(np.abs(prof.u - expected)) < 1e-10

    def test_sign_flip(self):
        law = simple_root_law(2, 1.0)
        dom = DomainInterval(1.0, 2.0, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        up = profile_from_integral(law, dom, +1, (1.0, 0.5), samples=64)
        dn = profile_from_integral(law, dom, -1, (1.0, 0.5), samples=64)
        assert np.allclose(up.u - 0.5, -(dn.u - 0.5), atol=1e-13)
        assert np.allclose(up.du, -dn.du)

    def test_anchor_outside_domain_rejected(self):
        dom = DomainInterval(1.0, 2.0, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        with pytest.raises(ValueError):
            profile_from_integral(simple_root_law(2, 1.0), dom, +1,
                                  (3.0, 0.0))

    @pytest.mark.parametrize("alpha0", [1.5, math.nextafter(1.0, 2.0),
                                        math.nextafter(2.0, 1.0)])
    def test_interior_anchor_rejected(self, alpha0):
        # an anchor is an end of the domain, never a point inside it
        dom = DomainInterval(1.0, 2.0, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        with pytest.raises(ValueError, match="not an end of the domain"):
            profile_from_integral(simple_root_law(2, 1.0), dom, +1,
                                  (alpha0, 0.0))

    def test_anchor_at_an_infinite_end_rejected(self):
        # every grid row lies within 1e-12 * inf of inf, so without the
        # check the anchor snapped to the second-to-last row
        law = SlopeLaw(_hom_pos, (1.0, 1.0), 2, decay_exponent=3.0)
        dom = DomainInterval(1.0, math.inf, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.UNBOUNDED)
        with pytest.raises(ValueError, match="anchor inf is not finite"):
            profile_from_integral(law, dom, +1, (math.inf, 0.0), samples=64,
                                  upper_cut=50.0)

    def test_graded_grid_denser_near_simple_root(self):
        dom = DomainInterval(1.0, 2.0, EndpointKind.SIMPLE_ROOT,
                             EndpointKind.SMOOTH_CAP)
        prof = profile_from_integral(simple_root_law(2, 1.0), dom, +1,
                                     (1.0, 0.0), samples=128)
        steps = np.diff(prof.alpha)
        # edge panel adjacent to the root is much finer than the far end
        assert steps[0] < 1e-3 * steps[-1]
