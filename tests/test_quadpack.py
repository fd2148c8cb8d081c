"""Parity of the in-house QUADPACK port with scipy.integrate.quad.

Every profile panel goes through quadrature._quad, which runs
quadpack.quad, a port of QUADPACK's QAGS and QAGI.  Value and error
estimate must agree with scipy's quad to the bit, so that tables, spans
and quad_error do not depend on which of the two ran.  Most checks also
require the same evaluation points in the same order, which pins down
every branch the two take.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import lwsurf.quadrature as quadrature
from conftest import build_instances
from lwsurf import NormParameter, SolveRequest, WeingartenRelation, solve
from lwsurf.quadpack import quad

EPSABS = 1e-14  # what quadrature._quad passes


def reference(f, a, b, epsrel, limit):
    return scipy_quad(f, a, b, epsabs=EPSABS, epsrel=epsrel, limit=limit,
                      full_output=1)


def hexes(pair) -> tuple:
    return tuple(float(v).hex() for v in pair[:2])


def recorded(f, points: list):
    def g(x):
        points.append(x.hex())
        return f(x)
    return g


def assert_same(f, a, b, epsrel=1e-10, limit=200, ordered=True) -> int:
    """Bit-equal (value, abserr) from the same evaluation points; returns
    the number of evaluations."""
    seen_ref, seen_port = [], []
    want = reference(recorded(f, seen_ref), a, b, epsrel, limit)
    got = quad(recorded(f, seen_port), a, b, EPSABS, epsrel, limit)
    assert hexes(got) == hexes(want), (a, b, epsrel, limit)
    if not ordered:  # dqk15i evaluates +t and -t in another order
        seen_ref.sort()
        seen_port.sort()
    assert seen_port == seen_ref
    return len(seen_port)


# ---------------------------------------------------------------------------
# real panels


@pytest.mark.parametrize("m", [2, 3])
def test_taxonomy_panels_bit_identical(m, monkeypatch):
    """A sample of the panels that building every m = 2, 3 instance makes:
    every 50th call, every call that bisects, and the unbounded tail."""
    calls = []
    port = quadrature._quad

    def record(f, a, b, tol, limit=200):
        calls.append((f, a, b, tol, limit))
        return port(f, a, b, tol, limit)

    monkeypatch.setattr(quadrature, "_quad", record)
    build_instances(m)
    monkeypatch.undo()
    assert len(calls) > 13000
    bisected = tails = 0
    for index, (f, a, b, tol, limit) in enumerate(calls):
        evaluations = [0]

        def counted(x, f=f):
            evaluations[0] += 1
            return f(x)

        quad(counted, a, b, EPSABS, tol, limit)
        tail = math.isinf(b)
        loop = not tail and evaluations[0] > 21
        if tail or loop or index % 50 == 0:
            assert_same(f, a, b, tol, limit)
            tails += tail
            bisected += loop
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


def test_limit_below_one_raises_like_scipy():
    f = SINGULAR["inverse_sqrt"][0]
    for limit in (0, -3):
        with pytest.raises(ValueError, match="at least one subinterval"):
            reference(f, 0.0, 1.0, 1e-10, limit)
        with pytest.raises(ValueError, match="at least one subinterval"):
            quad(f, 0.0, 1.0, EPSABS, 1e-10, limit)
        with pytest.raises(ValueError, match="at least one subinterval"):
            quad(f, 1.0, math.inf, EPSABS, 1e-10, limit)


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


def test_infinite_lower_and_both_limits():
    assert_same(lambda t: math.exp(t), -math.inf, 0.5)
    assert_same(lambda t: math.exp(-t * t), -math.inf, math.inf,
                ordered=False)
    assert_same(lambda t: 1.0 / (1.0 + t * t), -math.inf, math.inf,
                ordered=False)


def test_reversed_and_empty_ranges():
    f = SINGULAR["inverse_sqrt"][0]
    assert assert_same(f, 1.0, 0.0) > 21
    assert assert_same(lambda t: t ** -1.5, math.inf, 2.0) > 15
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
    negative inside a panel: solve raises instead of returning a table."""
    req = SolveRequest(p=NormParameter(m),
                       relation=WeingartenRelation.linear(lam, mu), c1=c1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TypeError):
            solve(req)
