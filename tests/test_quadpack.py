"""Parity of the in-house QUADPACK port with scipy.integrate.quad.

Profile panels go through quadrature._panel_quad: quadpack.panels runs
the first rule on all panels at once and bisects the ones it rejects in
lockstep.  Spans and tails go through quadrature._quad, which runs
quadpack.quad, a port of QUADPACK's QAGS and QAGI.  Value and error
estimate must agree with scipy's quad to the bit, so that tables, spans
and quad_error do not depend on which of the two ran.  Most checks also
require the same evaluation points in the same order, which pins down
every branch the two take.  A panel that meets a non-finite value has a
non-finite value, and a table with one raises ToleranceError.
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
from lwsurf.quadpack import _RULE21, _first, _rule, panels, quad
from lwsurf.quadrature import (
    DomainInterval,
    EndpointKind,
    ToleranceError,
    as_libm,
    libm,
    log,
    profile_from_integral,
)

EPSABS = 1e-14  # what quadrature._quad passes


def reference(f, a, b, epsrel, limit):
    return scipy_quad(f, a, b, epsabs=EPSABS, epsrel=epsrel, limit=limit,
                      full_output=1)


def first_rule(f, a, b, epsabs, epsrel) -> tuple:
    """dqagse's first step on every panel (a[i], b[i]) at once: arrays
    (result, abserr, done), where ``done`` says that the 21 values are
    finite and dqagse stops after this rule."""
    (result, abserr, *_), finite, accepted = _first(f, a, b, epsabs, epsrel)
    return result, abserr, accepted & finite


def hexes(pair) -> tuple:
    return tuple(float(v).hex() for v in pair[:2])


def recorded(f, points: list):
    def g(x):
        points.append(x.hex())
        return f(x)
    return g


def assert_same(f, a, b, epsrel=1e-10, limit=200) -> int:
    """Bit-equal (value, abserr) from the same evaluation points; returns
    the number of evaluations."""
    seen_ref, seen_port = [], []
    want = reference(recorded(f, seen_ref), a, b, epsrel, limit)
    got = quad(recorded(f, seen_port), a, b, EPSABS, epsrel, limit)
    assert hexes(got) == hexes(want), (a, b, epsrel, limit)
    assert seen_port == seen_ref
    return len(seen_port)


# ---------------------------------------------------------------------------
# real panels


@pytest.mark.parametrize("m", [2, 3])
def test_taxonomy_panels_bit_identical(m, monkeypatch):
    """Every panel that building every m = 2, 3 instance integrates.

    _panel_quad returns the (value, abserr) bits of quad on each panel;
    a panel the first array pass accepts is one that quad ends after the
    first rule, and every panel that quad bisects is bisected in lockstep
    with the table's other rejected panels.  A sample is compared with
    scipy: every 50th panel and scalar call, every one that bisects, and
    the unbounded tail."""
    panels, scalar_calls = [], []
    panel_quad, port = quadrature._panel_quad, quadrature._quad

    def record_panels(integrands, which, a, b, tol):
        values, errors = panel_quad(integrands, which, a, b, tol)
        done = np.zeros(a.size, dtype=bool)
        for k, f in enumerate(integrands):
            idx = np.flatnonzero((which == k) & (a < b))
            for start in range(0, idx.size, quadrature.PANEL_BLOCK):
                block = idx[start:start + quadrature.PANEL_BLOCK]
                done[block] = first_rule(f, a[block], b[block], EPSABS,
                                         tol)[2]
        for i in range(a.size):
            panels.append((integrands[which[i]], a[i], b[i], tol,
                           (values[i], errors[i]), done[i]))
        return values, errors

    def record_scalar(f, a, b, tol, limit=200):
        scalar_calls.append((f, a, b, tol, limit))
        return port(f, a, b, tol, limit)

    monkeypatch.setattr(quadrature, "_panel_quad", record_panels)
    monkeypatch.setattr(quadrature, "_quad", record_scalar)
    build_instances(m)
    monkeypatch.undo()
    assert len(panels) > 13000
    bisected = tails = fallback = 0
    for index, (f, a, b, tol, got, done) in enumerate(panels):
        evaluations = [0]

        def counted(x, f=f):
            evaluations[0] += 1
            return f(x)

        assert hexes(quad(counted, a, b, EPSABS, tol, 200)) == hexes(got)
        loop = evaluations[0] > 21
        assert not (done and evaluations[0] != 21), (a, b)
        fallback += not done
        if loop or index % 50 == 0:
            assert_same(f, a, b, tol)
            bisected += loop
    assert 0 < fallback < len(panels) // 100
    for index, (f, a, b, tol, limit) in enumerate(scalar_calls):
        evaluations = [0]

        def counted(x, f=f):
            evaluations[0] += 1
            return f(x)

        quad(counted, a, b, EPSABS, tol, limit)
        tail = math.isinf(b)
        if tail or evaluations[0] > 21 or index % 50 == 0:
            assert_same(f, a, b, tol, limit)
            tails += tail
            bisected += not tail and evaluations[0] > 21
    assert tails == 1
    assert bisected >= 10


# ---------------------------------------------------------------------------
# synthetic integrands


SINGULAR = {
    "inverse_sqrt": (lambda x: x ** -0.5, 0.0, 1.0),
    "log": (lambda x: math.log(x), 0.0, 1.0),
    "interior_cusp": (lambda x: abs(x - 0.3) ** -0.5 if x != 0.3 else 0.0,
                      0.0, 1.0),
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
    f = lambda x: abs(x - 0.5) ** -0.5 if x != 0.5 else 0.0
    for epsrel in (1e-10, 1e-13):
        assert assert_same(f, 0.0, 1.0, epsrel) > 21


def test_epsilon_table_at_its_cap():
    """Extrapolation on nearly every bisection fills dqelg's table to its
    limexp = 50 entries, which then drops its oldest ones."""
    f = lambda x: 1.0 / (x * (-math.log(x)) ** 3)
    assert assert_same(f, 0.0, 0.5, 1e-8, 100) == 21 * 199


def test_overflowing_sums():
    """The node sums overflow to inf, so the Gauss-Kronrod difference is
    NaN and the error estimate comes from the resabs floor."""
    assert_same(lambda x: 1.6e308, 0.0, 1.0)
    assert_same(lambda x: 1.6e308 * (1.0 - x), 0.0, 1.0)


@pytest.mark.parametrize("limit", [1, 3])
def test_limit_exhaustion(limit):
    f, a, b = SINGULAR["inverse_sqrt"]
    rule_applications = 1 if limit == 1 else 1 + 2 * (limit - 1)
    assert assert_same(f, a, b, 1e-10, limit) == 21 * rule_applications
    out = reference(f, a, b, 1e-10, limit)
    assert "maximum number of subdivisions" in out[3]


@pytest.mark.parametrize("f, epsrel, last", [
    (lambda x: x ** -0.5, 1e-15, 11),                   # in the loop
    (lambda x: 1.0 + 1e-15 * math.sin(1e7 * x), 1e-16, 1),  # first rule
])
def test_roundoff_exit(f, epsrel, last):
    assert_same(f, 0.0, 1.0, epsrel, 200)
    out = reference(f, 0.0, 1.0, epsrel, 200)
    assert out[2]["last"] == last
    assert "roundoff error is detected" in out[3]


@pytest.mark.parametrize("f, a", [
    (lambda t: t ** -1.1, 1.0),
    (lambda t: t ** -1.5, 2.0),
    (lambda t: math.exp(-t), 0.0),
])
@pytest.mark.parametrize("limit", [3, 50, 400])
def test_unbounded_tails(f, a, limit):
    assert_same(f, a, math.inf, 1e-10, limit)


def test_empty_range():
    f = SINGULAR["inverse_sqrt"][0]
    assert quad(f, 1.0, 1.0, EPSABS, 1e-10, 200) == (0.0, 0.0)


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 7, 20, 60, 250])
@pytest.mark.parametrize("limit", [20, 50])
def test_one_non_finite_value(special, at, limit):
    """NaN or inf at one evaluation.  NaN then reaches QUADPACK's
    comparisons, whose outcomes decide which interval is bisected next and
    when to extrapolate.  limit <= 50 keeps scipy inside its 52-entry
    epsilon table, which a NaN area can overrun (undefined behaviour in
    C)."""
    for base, a, b in ((lambda x: x ** -0.5, 0.0, 1.0),
                       (lambda x: math.sin(30.0 * x), 0.0, 2.0),
                       (lambda t: (1.0 + t) ** -1.5, 0.0, math.inf)):
        calls = [0]

        def f(x, base=base):
            calls[0] += 1
            return special if calls[0] == at + 1 else base(x)

        # f counts its calls, so each run gets a fresh counter
        seen_ref, seen_port = [], []
        want = reference(recorded(f, seen_ref), a, b, 1e-10, limit)
        calls[0] = 0
        got = quad(recorded(f, seen_port), a, b, EPSABS, 1e-10, limit)
        assert hexes(got) == hexes(want)
        assert seen_port == seen_ref


# ---------------------------------------------------------------------------
# the first rule on many panels at once


def mapped(fn):
    """fn on a float, and on every float of an array through libm."""
    return lambda x: libm(fn, x) if isinstance(x, np.ndarray) else fn(x)


FIRST_RULE = {
    "inverse_sqrt": (lambda x: as_libm(x) ** -0.5, 0.0, 1.0),
    "oscillating": (mapped(lambda x: math.sin(30.0 * x)), 0.0, 2.0),
    "log": (mapped(math.log), 0.0, 1.0),
    "overflowing": (lambda x: 1.6e308 * (1.0 - x), 0.0, 1.0),
    "complex_left_half": (lambda x: as_libm(x - 0.5) ** 0.5, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(FIRST_RULE))
def test_first_rule_panels_match_quad(name):
    """A panel first_rule accepts has quad's bits and is one that quad ends
    after its first rule; a panel quad bisects, or raises on, is not
    accepted."""
    f, a, b = FIRST_RULE[name]
    cuts = np.sort(np.random.default_rng(7).uniform(a, b, 300))
    lo = np.concatenate(([a], cuts[:-1]))
    hi = np.concatenate(([b], cuts[1:]))
    result, abserr, done = first_rule(f, lo, hi, EPSABS, 1e-10)
    for i in range(lo.size):
        evaluations = [0]

        def counted(x):
            evaluations[0] += 1
            return f(x)

        try:
            got = quad(counted, lo[i], hi[i], EPSABS, 1e-10, 200)
        except TypeError:
            assert not done[i]
            continue
        if done[i]:
            assert evaluations[0] == 21
            assert hexes(got) == hexes((result[i], abserr[i]))
        if evaluations[0] > 21:
            assert not done[i]
    if name != "overflowing":
        assert done.any()


@pytest.mark.parametrize("name", sorted(FIRST_RULE))
def test_rule_on_panels_matches_rule_on_floats(name):
    """The 21-point rule on an array of panels gives every panel the
    (result, abserr, resabs, resasc) bits of the rule on its floats,
    whether first_rule accepts the panel or not, and whether its values
    and sums are finite or not.  A panel whose float values include a
    complex one raises there, and the array pass flags it non-finite;
    panels then gives it a non-finite result."""
    f, a, b = FIRST_RULE[name]
    cuts = np.sort(np.random.default_rng(11).uniform(a, b, 300))
    lo = np.concatenate(([a], cuts[:-1]))
    hi = np.concatenate(([b], cuts[1:]))
    with np.errstate(all="ignore"):
        *sums, finite = _rule(_RULE21, f, lo, hi)
    for i in range(lo.size):
        values = []

        def g(x):
            values.append(f(x))
            return values[-1]

        try:
            got = _rule(_RULE21, g, float(lo[i]), float(hi[i]))
        except TypeError:
            assert not finite[i]
            continue
        assert len(values) == 21
        assert [v.hex() for v in got] == [float(s[i]).hex() for s in sums]
        assert finite[i] == all(map(math.isfinite, values))
    result = panels(f, lo, hi, EPSABS, 1e-10, 200)[0]
    assert not np.isfinite(result[~finite]).any()
    if name == "overflowing":
        assert finite.all() and not np.isfinite(sums[0]).all()
    elif name == "complex_left_half":
        assert not finite.all()


# ---------------------------------------------------------------------------
# dqagse on many panels in lockstep


def loop_of_quad(f, lo, hi, epsrel=1e-10, limit=200) -> list:
    return [hexes(quad(f, a, b, EPSABS, epsrel, limit))
            for a, b in zip(lo.tolist(), hi.tolist())]


@pytest.mark.parametrize("name", sorted(FIRST_RULE))
def test_panel_quad_matches_a_loop_of_quad(name):
    """_panel_quad on 300 seeded panels, many of them rejected by the
    first rule and bisected, gives every panel on which quad returns the
    bits of quad on its floats.  Where quad raises, the value or the
    error is non-finite."""
    f, a, b = FIRST_RULE[name]
    lo, hi = np.sort(np.random.default_rng(17).uniform(a, b, (2, 300)),
                     axis=0)
    lo[:20] = a  # panels from the left end, where three are singular
    values, errors = quadrature._panel_quad(
        [f], np.zeros(lo.size, dtype=int), lo, hi, 1e-10)
    raised = 0
    for x, y, got in zip(lo.tolist(), hi.tolist(), zip(values, errors)):
        try:
            want = quad(f, x, y, EPSABS, 1e-10, 200)
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
    assert _rule(_RULE21, f, lo, hi)[4].tolist() == [True, False]
    assert first_rule(f, lo, hi, EPSABS, 1e-10)[2].tolist() == [False] * 2
    assert np.isnan(panels(f, lo, hi, EPSABS, 1e-10, 200)[0]).all()
    for lower, upper, samples in ((0.0, 1.0, 2), (1.0, 2.0, 2),
                                  (0.0, 2.0, 3)):
        domain = DomainInterval(lower, upper, EndpointKind.SMOOTH_CAP,
                                EndpointKind.SMOOTH_CAP)
        with pytest.raises(ToleranceError, match="non-finite value"):
            profile_from_integral(f, domain, +1, (lower, 0.0),
                                  samples=samples)


# ---------------------------------------------------------------------------
# integrand values that are not Python floats


def test_numpy_and_int_values_convert_like_scipy():
    assert_same(lambda x: np.float64(x) ** -0.5, 0.0, 1.0)
    assert_same(lambda x: 3, 0.0, 2.0)
    assert_same(lambda x: np.float32(x) ** 2, 0.0, 1.0)


def test_complex_value_raises_type_error():
    def f(x):
        return 1j if 0.4 < x < 0.45 else x

    with pytest.raises(TypeError):
        reference(f, 0.0, 1.0, 1e-10, 200)
    with pytest.raises(TypeError):
        quad(f, 0.0, 1.0, EPSABS, 1e-10, 200)
    with pytest.raises(TypeError):
        quad(f, 0.0, math.inf, EPSABS, 1e-10, 200)


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
