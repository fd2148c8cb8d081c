"""The array forms of the slopes give the scalar forms' bits.

Slope laws, norm circles, the edge integrands of simple roots and the
residual scan's 5-point stencil take float arrays: powers and logs run
through libm one float at a time and only +, -, *, / and abs run as numpy
loops, so each element rounds as the scalar evaluation does.  These tests
check that on every table grid of the m = 2, 3 taxonomy.  CI runs them a
second time with numpy's AVX-512 loops disabled, to show that the bits do
not depend on numpy's SIMD dispatch.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import lwsurf.verify as verify
from conftest import build_instances, instances
from lwsurf import (
    EndpointKind,
    IllConditionedWarning,
    NormParameter,
    SolveRequest,
    WeingartenRelation,
    residual_scan,
    solve,
)
from lwsurf.quadrature import _edge_integrand
from lwsurf.solver import NormCircle, SlopeLaw


def bits(values) -> list:
    return [float(v).hex() for v in values]


def request(m, lam, mu, c1) -> SolveRequest:
    return SolveRequest(p=NormParameter(m),
                        relation=WeingartenRelation.linear(lam, mu), c1=c1)


@pytest.mark.parametrize("m", [2, 3])
def test_slope_on_every_table_grid(m):
    kinds = set()
    for tag, b in instances(m).items():
        assert b.scale == 1.0, tag
        law = b.slope
        got = law(b.alpha)
        assert np.isfinite(got).all(), tag
        assert bits(got) == bits(law(t) for t in b.alpha.tolist()), tag
        if isinstance(law, NormCircle):
            kinds.add("circle")
        else:
            kinds.add("double" if law.double else "law")
            num, den = law.terms(b.alpha)
            assert bits(np.broadcast_to(num, b.alpha.shape)) == bits(
                law.terms(t)[0] for t in b.alpha.tolist()), tag
            assert bits(den) == bits(
                law.terms(t)[1] for t in b.alpha.tolist()), tag
    assert kinds == {"circle", "double", "law"}


@pytest.mark.parametrize("m", [2, 3])
def test_edge_integrands_on_every_table_grid(m):
    """Each simple-root edge integrand on the table points of the half of
    the domain it integrates, in s = |alpha - root|^(1/2m); the points
    next to the root fall below the cofactor's switch h0."""
    edges = below_switch = 0
    for tag, b in instances(m).items():
        if not isinstance(b.slope, SlopeLaw):
            continue
        dom = b.domain
        width = dom.upper - dom.lower
        for root, inward, kind in ((dom.lower, +1, dom.lower_kind),
                                   (dom.upper, -1, dom.upper_kind)):
            if kind is not EndpointKind.SIMPLE_ROOT:
                continue
            d = np.abs(b.alpha - root)
            s = d[d <= 0.5 * width] ** (1.0 / (2 * m))
            g = _edge_integrand(b.slope, root, inward)
            got = g(s)
            assert np.isfinite(got).all(), tag
            assert bits(got) == bits(g(v) for v in s.tolist()), tag
            edges += 1
            below_switch += int(np.sum(d < 1e-5 * max(1.0, abs(root))))
    assert edges >= 15
    assert below_switch > 0


@pytest.mark.parametrize("m", [2, 3])
def test_residual_stencil_matches_the_scalar_one(m):
    for tag, b in instances(m).items():
        lo, hi, mask, _ = verify._scan_frame(b, 1e-3)
        points = b.alpha[mask]
        h = [min(max(1e-6, 1e-4 * min(max(1.0, abs(a)), min(a - lo, hi - a))),
                 0.25 * min(a - lo, hi - a)) for a in points.tolist()]
        d1 = b.uprime(points)
        d2 = b.fd_second(points, np.array(h))
        assert np.isfinite(d1).all() and np.isfinite(d2).all(), tag
        assert bits(d1) == bits(b.uprime(a) for a in points.tolist()), tag
        assert bits(d2) == bits(b.fd_second(a, step) for a, step
                                in zip(points.tolist(), h)), tag
        jets = verify._fd_jets_exact(b, points, lo, hi)
        assert [bits(j) for j in jets] == [bits(j) for j in zip(d1, d2)], tag


class NanAtOnePoint:
    """A slope whose array form gives NaN at one point; its float form is
    the law's and counts its calls."""

    def __init__(self, law, bad: float):
        self.law, self.bad, self.float_calls = law, bad, 0

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            return np.where(t == self.bad, math.nan, self.law(t))
        self.float_calls += 1
        return self.law(t)


def test_stencil_evaluates_a_non_finite_point_again(instances_m2):
    b = instances_m2["6.3i"]
    lo, hi, mask, _ = verify._scan_frame(b)
    points = b.alpha[mask]
    slope = NanAtOnePoint(b.slope, float(points[len(points) // 2]))
    nan_b = dataclasses.replace(b, slope=slope)
    assert np.isnan(nan_b.uprime(points)).sum() == 1
    jets = verify._fd_jets_exact(nan_b, points, lo, hi)
    # u' and the four stencil points of that one point, on Python floats
    assert slope.float_calls == 5
    want = verify._fd_jets_exact(b, points, lo, hi)
    assert [bits(j) for j in jets] == [bits(j) for j in want]
    assert residual_scan(nan_b).as_dict() == residual_scan(b).as_dict()


def test_complex_slope_still_raises_type_error():
    """The seed-402 sweep draw: the array pass leaves the complex values
    to the scalar fallback, which raises as the panel loop did, and never
    casts a complex value to a real one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TypeError, match="not 'complex'"):
            solve(request(6, -0.09214164874133957, 0.8025229379416952,
                          4.822590238398405))


def test_array_paths_emit_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for b in build_instances(2).values():
            residual_scan(b)
        (b,) = solve(request(5, -0.9676349260580417, 2.263783851459214,
                             1.065926470183868))
        assert math.isnan(residual_scan(b).max_residual)
