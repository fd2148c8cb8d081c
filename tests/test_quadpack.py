"""Parity of the in-house QUADPACK port with scipy.integrate.quad.

Profile panels, span pieces, anchor pieces and the span's unbounded
tail go through quadrature._panel_quad: quadpack.panels runs the first
rule on all panels at once and bisects the ones it rejects in lockstep.
The tail is a panel on (0, 1) after QAGI's map, so on a mapped tail
panels must match scipy's quad on the same mapped function to the bit,
and scipy's QAGI on (a, inf) within the two error estimates.  The
integrands map arrays and give each float
the bits of the float call (quadrature.libm, as_libm), so scipy's quad
on the floats is the reference: value and error estimate must agree to
the bit, so that tables, spans and quad_error do not depend on the port.
Most checks also require the same evaluation points, sorted, since a
round evaluates all its nodes in one array; that pins down every branch
the two take.  A panel that meets a non-finite or complex value has a
non-finite value, nothing is raised, and a table with one raises
ToleranceError.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import lwsurf.quadrature as quadrature
from conftest import build_instances
from lwsurf import NormParameter, SolveRequest, WeingartenRelation, solve
import lwsurf.quadpack as quadpack
from lwsurf.quadpack import _accepted, _rule, panels
from lwsurf.quadrature import (
    DomainInterval,
    EndpointKind,
    ToleranceError,
    as_libm,
    libm,
    log,
    profile_from_integral,
)

EPSABS = 1e-14  # what quadrature passes


def reference(f, a, b, epsrel, limit):
    """scipy's quad, which calls f with Python floats."""
    return scipy_quad(f, a, b, epsabs=EPSABS, epsrel=epsrel, limit=limit,
                      full_output=1)


def first_rule(f, a, b, epsabs, epsrel) -> tuple:
    """dqagse's first step on every panel (a[i], b[i]) at once: arrays
    (result, abserr, done), where ``done`` says that the 21 values are
    finite and dqagse stops after this rule."""
    with np.errstate(all="ignore"):
        *sums, finite = _rule(f, a, b)
    return sums[0], sums[1], _accepted(*sums, epsabs, epsrel) & finite


def one_range(f, a, b, epsrel, limit) -> tuple:
    """panels on the one range (a, b)."""
    values, errors = panels(f, np.array([a]), np.array([b]), EPSABS, epsrel,
                            limit)
    return float(values[0]), float(errors[0])


def mapped_tail(f, a):
    """f on (a, inf) as a function on (0, 1], on QAGI's map
    t = a + (1 - x)/x, as quadrature's tail integrand maps the law."""
    return lambda x: f(a + (1.0 - x) / x) / x / x


def hexes(pair) -> tuple:
    return tuple(float(v).hex() for v in pair[:2])


def recorded(f, points: list):
    """f, recording the floats it is called with, one or an array."""
    def g(x):
        points.extend(np.ravel(x).tolist())
        return f(x)
    return g


def assert_same(f, a, b, epsrel=1e-10, limit=200) -> int:
    """Bit-equal (value, abserr) from the same evaluation points; returns
    the number of evaluations."""
    seen_ref, seen_port = [], []
    want = reference(recorded(f, seen_ref), a, b, epsrel, limit)
    got = one_range(recorded(f, seen_port), a, b, epsrel, limit)
    assert hexes(got) == hexes(want), (a, b, epsrel, limit)
    assert sorted(seen_port) == sorted(seen_ref)
    return len(seen_port)


# ---------------------------------------------------------------------------
# real panels


@pytest.mark.parametrize("m", [2, 3])
def test_taxonomy_panels_bit_identical(m, monkeypatch):
    """Every panel, span piece, anchor piece and unbounded tail that
    building every m = 2, 3 instance integrates has the (value, abserr)
    bits of scipy's quad on its floats.  Some of them bisect, and the
    span pieces reach dqagse's bisection too."""
    pieces = []
    panel_quad = quadrature._panel_quad

    def record_panels(integrands, which, a, b, tol):
        values, errors = panel_quad(integrands, which, a, b, tol)
        pieces.extend(
            (k, integrands[k], x, y, tol, got) for k, x, y, got in zip(
                which.tolist(), a.tolist(), b.tolist(),
                zip(values.tolist(), errors.tolist())))
        return values, errors

    monkeypatch.setattr(quadrature, "_panel_quad", record_panels)
    build_instances(m)
    monkeypatch.undo()
    assert len(pieces) > 13000
    # the tail of tag 5i-1, the one unbounded span
    assert [(a, b) for k, _, a, b, _, _ in pieces if k == 3] == [(0.0, 1.0)]
    bisected = 0
    for _, f, a, b, tol, got in pieces:
        want = reference(f, a, b, tol, 200)
        assert hexes(got) == hexes(want), (a, b)
        bisected += want[2]["last"] > 1
    assert 10 <= bisected < len(pieces) // 50


# ---------------------------------------------------------------------------
# synthetic integrands


def mapped(fn):
    """fn on a float, and on every float of an array through libm."""
    return lambda x: libm(fn, x) if isinstance(x, np.ndarray) else fn(x)


SINGULAR = {
    "inverse_sqrt": (lambda x: as_libm(x) ** -0.5, 0.0, 1.0),
    "log": (log, 0.0, 1.0),
    "interior_cusp": (mapped(lambda x: abs(x - 0.3) ** -0.5 if x != 0.3
                             else 0.0), 0.0, 1.0),
}


@pytest.mark.parametrize("epsrel", [1e-3, 1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("name", sorted(SINGULAR))
def test_endpoint_singularities_bisect_and_extrapolate(name, epsrel):
    f, a, b = SINGULAR[name]
    for limit in (50, 200):
        assert assert_same(f, a, b, epsrel, limit) > 21


def test_equal_error_estimates():
    """A singularity at the midpoint gives both halves the same error, so
    dqpsrt's ordering decides ties."""
    f = mapped(lambda x: abs(x - 0.5) ** -0.5 if x != 0.5 else 0.0)
    for epsrel in (1e-10, 1e-13):
        assert assert_same(f, 0.0, 1.0, epsrel) > 21


def epsilon_table_integrand(x):
    return 1.0 / (x * (-log(x)) ** 3)


def test_epsilon_table_at_its_cap():
    """Extrapolation on nearly every bisection fills dqelg's table to its
    limexp = 50 entries, which then drops its oldest ones."""
    assert assert_same(epsilon_table_integrand, 0.0, 0.5, 1e-8,
                       100) == 21 * 199


def test_overflowing_sums():
    """The node sums overflow to inf, so the Gauss-Kronrod difference is
    NaN and the error estimate comes from the resabs floor."""
    assert_same(mapped(lambda x: 1.6e308), 0.0, 1.0)
    assert_same(lambda x: 1.6e308 * (1.0 - x), 0.0, 1.0)


@pytest.mark.parametrize("limit", [1, 3])
def test_limit_exhaustion(limit):
    f, a, b = SINGULAR["inverse_sqrt"]
    rule_applications = 1 if limit == 1 else 1 + 2 * (limit - 1)
    assert assert_same(f, a, b, 1e-10, limit) == 21 * rule_applications
    out = reference(f, a, b, 1e-10, limit)
    assert "maximum number of subdivisions" in out[3]


@pytest.mark.parametrize("f, epsrel, last", [
    (lambda x: as_libm(x) ** -0.5, 1e-15, 11),  # in the loop
    (mapped(lambda x: 1.0 + 1e-15 * math.sin(1e7 * x)), 1e-16, 1),  # first
])
def test_roundoff_exit(f, epsrel, last):
    assert_same(f, 0.0, 1.0, epsrel, 200)
    out = reference(f, 0.0, 1.0, epsrel, 200)
    assert out[2]["last"] == last
    assert "roundoff error is detected" in out[3]


@pytest.mark.parametrize("f, a", [
    (lambda t: as_libm(t) ** -1.1, 1.0),
    (lambda t: as_libm(t) ** -1.5, 2.0),
    (mapped(lambda t: math.exp(-t)), 0.0),
])
@pytest.mark.parametrize("limit", [3, 50, 400])
def test_unbounded_tails(f, a, limit):
    """The tail mapped to (0, 1) has the bits of scipy's quad on the
    mapped function, and agrees with scipy's QAGI on (a, inf) within the
    two error estimates combined."""
    assert_same(mapped_tail(f, a), 0.0, 1.0, 1e-10, limit)
    value, error = one_range(mapped_tail(f, a), 0.0, 1.0, 1e-10, limit)
    want, want_error = reference(f, a, math.inf, 1e-10, limit)[:2]
    assert abs(value - want) <= error + want_error


def test_empty_range():
    """A zero-width panel contributes (0.0, 0.0), as quad returns there,
    and its integrand is not called."""
    f = SINGULAR["inverse_sqrt"][0]
    calls = []
    values, errors = quadrature._panel_quad(
        [recorded(f, calls)], np.zeros(2, dtype=int), np.array([1.0, 0.0]),
        np.array([1.0, 1.0]), 1e-10)
    assert (values[0], errors[0]) == (0.0, 0.0)
    assert hexes((values[1], errors[1])) == hexes(reference(f, 0.0, 1.0,
                                                            1e-10, 200))
    assert 1.0 not in calls


# (integrand, a, b): a singular, an oscillating and a mapped tail range
CONTRACT_RANGES = (
    (SINGULAR["inverse_sqrt"][0], 0.0, 1.0),
    (mapped(lambda x: math.sin(30.0 * x)), 0.0, 2.0),
    (mapped_tail(lambda t: as_libm(1.0 + t) ** -1.5, 0.0), 0.0, 1.0),
)


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 7, 20, 60, 250])
@pytest.mark.parametrize("limit", [20, 50])
def test_one_non_finite_value(special, at, limit):
    """NaN or inf at the at-th evaluated float, on finite and mapped
    tail ranges.  A rule that meets it has a non-finite sum, and the range
    leaves dqagse with a non-finite result, without an exception or a
    warning; scipy instead carries the value through dqagse's
    comparisons.  A run that ends before that evaluation has scipy's
    bits."""
    for base, a, b in CONTRACT_RANGES:
        calls = [0]

        def f(x, base=base):
            y = np.array(base(x), dtype=float)
            if 0 <= at - calls[0] < y.size:
                y.flat[at - calls[0]] = special
            calls[0] += y.size
            return y

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = one_range(f, a, b, 1e-10, limit)
        if calls[0] > at:
            assert not math.isfinite(got[0]), (a, b)
        else:
            assert hexes(got) == hexes(reference(base, a, b, 1e-10, limit))


# ---------------------------------------------------------------------------
# the first rule on many panels at once


FIRST_RULE = {
    "inverse_sqrt": (lambda x: as_libm(x) ** -0.5, 0.0, 1.0),
    "oscillating": (mapped(lambda x: math.sin(30.0 * x)), 0.0, 2.0),
    "log": (mapped(math.log), 0.0, 1.0),
    "overflowing": (lambda x: 1.6e308 * (1.0 - x), 0.0, 1.0),
    "complex_left_half": (lambda x: as_libm(x - 0.5) ** 0.5, 0.0, 1.0),
}
# scipy's limit on these panels: the overflowing sums give NaN areas, and
# above 50 these overrun scipy's 52-entry epsilon table (undefined
# behaviour in C, which can crash the process)
SAFE_LIMIT = 50


def seeded_panels(name: str, seed: int) -> tuple:
    """300 panels that tile the range of FIRST_RULE[name]."""
    f, a, b = FIRST_RULE[name]
    cuts = np.sort(np.random.default_rng(seed).uniform(a, b, 300))
    return f, np.concatenate(([a], cuts[:-1])), np.concatenate(([b],
                                                                cuts[1:]))


@pytest.mark.parametrize("name", sorted(FIRST_RULE))
def test_first_rule_panels_match_quad(name):
    """A panel first_rule accepts has the bits of scipy's quad and is one
    that scipy ends after its first rule; a panel scipy bisects, or
    raises on, is not accepted."""
    f, lo, hi = seeded_panels(name, 7)
    result, abserr, done = first_rule(f, lo, hi, EPSABS, 1e-10)
    for i in range(lo.size):
        try:
            want = reference(f, lo[i], hi[i], 1e-10, SAFE_LIMIT)
        except TypeError:  # a complex value
            assert not done[i]
            continue
        if done[i]:
            assert want[2]["neval"] == 21
            assert hexes((result[i], abserr[i])) == hexes(want)
        if want[2]["neval"] > 21:
            assert not done[i]
    if name != "overflowing":
        assert done.any()


@pytest.mark.parametrize("name", sorted(FIRST_RULE))
def test_rule_on_panels_matches_rule_on_floats(name):
    """The 21-point rule on an array of panels gives every panel the
    (result, abserr) bits of scipy's first rule on its floats (dqagse
    ends there at limit 1), whether first_rule accepts the panel or not,
    and whether its values and sums are finite or not.  Where a float
    value is complex, scipy raises, and the array pass flags the panel
    non-finite; panels then gives it a non-finite result."""
    f, lo, hi = seeded_panels(name, 11)
    with np.errstate(all="ignore"):
        *sums, finite = _rule(f, lo, hi)
    for i in range(lo.size):
        values = []
        try:
            want = reference(recorded(f, values), lo[i], hi[i], 1e-10, 1)
        except TypeError:
            assert not finite[i]
            continue
        assert want[2]["neval"] == 21
        assert hexes((sums[0][i], sums[1][i])) == hexes(want)
        assert finite[i] == all(map(math.isfinite, map(f, values)))
    result = panels(f, lo, hi, EPSABS, 1e-10, 200)[0]
    assert not np.isfinite(result[~finite]).any()
    if name == "overflowing":
        assert finite.all() and not np.isfinite(sums[0]).all()
    elif name == "complex_left_half":
        assert not finite.all()


# ---------------------------------------------------------------------------
# dqagse on many panels in lockstep


def loop_of_quad(f, lo, hi, epsrel=1e-10, limit=200) -> list:
    """scipy's quad on each panel in turn."""
    return [hexes(reference(f, a, b, epsrel, limit))
            for a, b in zip(lo.tolist(), hi.tolist())]


@pytest.mark.parametrize("name", sorted(FIRST_RULE))
def test_panel_quad_matches_a_loop_of_quad(name, monkeypatch):
    """_panel_quad on 300 seeded panels, many of them rejected by the
    first rule and bisected, gives every panel on which scipy's quad
    returns its bits, both at SAFE_LIMIT.  Where scipy raises, the value
    or the error is non-finite."""
    monkeypatch.setattr(quadrature, "_LIMIT", SAFE_LIMIT)
    f, a, b = FIRST_RULE[name]
    lo, hi = np.sort(np.random.default_rng(17).uniform(a, b, (2, 300)),
                     axis=0)
    lo[:20] = a  # panels from the left end, where three are singular
    values, errors = quadrature._panel_quad(
        [f], np.zeros(lo.size, dtype=int), lo, hi, 1e-10)
    raised = 0
    for x, y, got in zip(lo.tolist(), hi.tolist(), zip(values, errors)):
        try:
            want = reference(f, x, y, 1e-10, SAFE_LIMIT)
        except TypeError:
            raised += 1
            assert not all(map(math.isfinite, got)), (x, y)
            continue
        assert hexes(got) == hexes(want), (x, y)
    assert (raised > 0) == (name == "complex_left_half")
    assert not first_rule(f, lo, hi, EPSABS, 1e-10)[2].all()


def epsilon_table_integrand(x):
    return 1.0 / (x * (-log(x)) ** 3)


# dqagse paths a lockstep panel takes, each from a synthetic integrand
# above: (integrand, range, epsrel, limit, scipy's message or None)
LOCKSTEP_PATHS = {
    # test_limit_exhaustion: ier = 1 after limit - 1 = 2 bisections
    "limit": (FIRST_RULE["inverse_sqrt"][0], 0.0, 1.0, 1e-10, 3,
              "maximum number of subdivisions"),
    # test_roundoff_exit: ier = 2 in the loop, at last = 11
    "roundoff": (FIRST_RULE["inverse_sqrt"][0], 0.0, 1.0, 1e-15, 200,
                 "roundoff error is detected"),
    # test_epsilon_table_at_its_cap: _qelg on nearly every bisection
    "qelg": (epsilon_table_integrand, 0.0, 0.5, 1e-8, 100, None),
}


@pytest.mark.parametrize("path", sorted(LOCKSTEP_PATHS))
def test_lockstep_paths(path, monkeypatch):
    """quadpack.panels on the path's range and on 40 seeded panels inside
    it gives quad's bits for each."""
    f, a, b, epsrel, limit, message = LOCKSTEP_PATHS[path]
    lo, hi = np.sort(np.random.default_rng(5).uniform(a, b, (2, 41)),
                     axis=0)
    lo[0], hi[0] = a, b
    qelg_calls = [0]
    qelg = quadpack._qelg

    def counted_qelg(*args):
        qelg_calls[0] += 1
        return qelg(*args)

    monkeypatch.setattr(quadpack, "_qelg", counted_qelg)
    values, errors = panels(f, lo, hi, EPSABS, epsrel, limit)
    monkeypatch.undo()
    assert list(map(hexes, zip(values, errors))) == loop_of_quad(
        f, lo, hi, epsrel, limit)
    out = reference(f, a, b, epsrel, limit)
    if message:
        assert message in out[3]
    else:
        assert qelg_calls[0] > 40


class NanSlope:
    """x^-1/2 on arrays, NaN below 1e-3 and above 1.5."""

    m = 1

    def __call__(self, x):
        return np.where((x < 1e-3) | (x > 1.5), math.nan,
                        as_libm(x) ** -0.5)


def test_table_whose_panel_meets_nan_raises():
    """On (0, 1) the first rule is finite and rejected, and a bisection's
    half meets NaN; on (1, 2) the first rule meets it.  Either panel's
    value is NaN, and a table with either raises ToleranceError from
    profile_from_integral, as integrate_singular raises on a non-finite
    integral."""
    f = NanSlope()
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    assert _rule(f, lo, hi)[4].tolist() == [True, False]
    assert first_rule(f, lo, hi, EPSABS, 1e-10)[2].tolist() == [False] * 2
    assert np.isnan(panels(f, lo, hi, EPSABS, 1e-10, 200)[0]).all()
    for lower, upper, samples in ((0.0, 1.0, 2), (1.0, 2.0, 2),
                                  (0.0, 2.0, 3)):
        domain = DomainInterval(lower, upper, EndpointKind.SMOOTH_CAP,
                                EndpointKind.SMOOTH_CAP)
        with pytest.raises(ToleranceError, match="non-finite value"):
            profile_from_integral(f, domain, +1, (lower, 0.0),
                                  samples=samples)


class NanBelow:
    """x^(1/2) on arrays, NaN below 1e-7."""

    m = 1

    def __call__(self, x):
        return np.where(x < 1e-7, math.nan, as_libm(x) ** 0.5)


def test_anchor_piece_that_meets_nan_raises():
    """The anchor 0.0 of an axis end lies off the grid, whose first point
    is 1e-6, so only the piece out to it meets the NaN; the table raises
    ToleranceError instead of giving every u as NaN."""
    domain = DomainInterval(0.0, 1.0, EndpointKind.AXIS_ZERO,
                            EndpointKind.SMOOTH_CAP)
    with pytest.raises(ToleranceError, match="non-finite value"):
        profile_from_integral(NanBelow(), domain, +1, (0.0, 0.0),
                              samples=64)
    table = profile_from_integral(NanBelow(), DomainInterval(
        1e-6, 1.0, EndpointKind.SMOOTH_CAP, EndpointKind.SMOOTH_CAP), +1,
        (1e-6, 0.0), samples=64)
    assert np.isfinite(table.u).all()


# ---------------------------------------------------------------------------
# integrand values that are not floats


def test_numpy_and_int_values_convert_like_scipy():
    """Int and float32 values convert as floats."""
    assert_same(lambda x: np.full(np.shape(x), 3), 0.0, 2.0)
    assert_same(lambda x: np.square(np.asarray(x, dtype=np.float32)),
                0.0, 1.0)


def test_complex_value_gives_non_finite_result():
    """A complex value has no float.  scipy raises TypeError on it; the
    array rule gives the range a non-finite result instead, without
    casting it to a real one, raising or warning."""
    def f(x):
        return np.where((0.4 < x) & (x < 0.45), 1j, x)

    with pytest.raises(TypeError):
        reference(f, 0.0, 1.0, 1e-10, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(one_range(f, 0.0, 1.0, 1e-10, 200)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = panels(f, np.array([0.0, 0.5]), np.array([0.5, 1.0]),
                        EPSABS, 1e-10, 200)[0]
    assert not np.isfinite(values).any()


@pytest.mark.parametrize("m, lam, mu, c1", [
    (6, -0.09214164874133957, 0.8025229379416952, 4.822590238398405),
    (5, -0.07940116829614086, 1.575839105558944, 3.5001109854391803),
])
def test_complex_slope_raises_from_solve(m, lam, mu, c1):
    """Two sweep draws whose misplaced root pair makes the denominator
    negative inside a panel: the slope is NaN there on arrays, and solve
    raises ToleranceError instead of returning a table, without casting a
    complex value to a real one or warning of the NaN."""
    req = SolveRequest(p=NormParameter(m),
                       relation=WeingartenRelation.linear(lam, mu), c1=c1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ToleranceError, match="non-finite value"):
            solve(req)
