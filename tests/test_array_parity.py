"""The array forms of the slopes and curvatures give the scalar forms' bits.

Slope laws, norm circles, the edge integrands of simple roots, the
residual scan's 5-point stencil, normgeom's curvature functions and the
residual scan's residuals take float arrays.  Powers run through
``np.float_power``, which numpy does not SIMD-dispatch: it is a plain C
loop over libm's pow, the function Python's ``float ** e`` calls.  log,
log1p and expm1 run as numpy's ufuncs on a reversed view, where numpy
calls libm in a plain loop; on a contiguous array its SIMD loops differ
from ``math`` in the last bit.  Each is kept only once a fixed probe
shows ``math``'s bits, and is called once per element otherwise.  Only
+, -, *, / and abs run as other numpy loops.  So each element rounds as
the scalar evaluation does.  These tests check that on fixed corpora of
powers and of log, log1p and expm1, and on every table grid of the
taxonomy, and that the probe rejects a ufunc one ulp off.  CI runs them
again with numpy's AVX-512 loops disabled, and with its AVX2 loops
disabled too, and the floor job on the oldest numpy, to show that the
bits depend on none of these.
"""

import dataclasses
import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import lwsurf.quadrature as quadrature
import lwsurf.solver as solver
import lwsurf.verify as verify
from conftest import build_instances, instances, workloads
from lwsurf import (
    EndpointKind,
    IllConditionedWarning,
    NormParameter,
    SolveRequest,
    WeingartenRelation,
    classify,
    residual_scan,
    solve,
    solve_homogeneous,
    solve_inhom_general,
    solve_inhom_lambda_minus1,
)
from lwsurf.normgeom import (
    normal_angle,
    oriented_radius_chart_curvatures,
    principal_curvatures,
)
from lwsurf.quadrature import (
    ROOT_VALUE_TOL,
    LibmArray,
    ToleranceError,
    _edge_integrand,
    _refine,
    as_libm,
    libm,
)
from lwsurf.solver import (
    NormCircle,
    SlopeLaw,
    _gen_low,
    _gen_mid,
    _gen_pos,
    _hom_neg,
    _hom_pos,
    _lm1,
    fd_step,
)


def bits(values) -> list:
    return [float(v).hex() for v in values]


def request(m, lam, mu, c1, sign=1) -> SolveRequest:
    return SolveRequest(p=NormParameter(m),
                        relation=WeingartenRelation.linear(lam, mu), c1=c1,
                        sign=sign)


TINY = 2.2250738585072014e-308  # the smallest normal float
POW_BASES = [
    0.0, -0.0, 5e-324, -5e-324, TINY / 3, -TINY / 3, TINY, 1e-300, 1e-10,
    0.5, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 2.0, 3.7, 1e10, 1e300,
    1.7976931348623157e308, math.inf, -math.inf, math.nan, -1.0, -0.5, -2.0,
    -3.7, -1e10, -1e300,
    # NaNs of either sign and with a payload: v ** e is v for e != 0
    -math.nan,
    *np.array([0x7FF80000000001A5, 0xFFF800000000BEEF],
              dtype=np.uint64).view(float).tolist(),
]
_rng = np.random.default_rng(16)
POW_BASES += (_rng.choice([-1.0, 1.0], 400)
              * 10.0 ** _rng.uniform(-320, 308, 400)).tolist()


def pow_exponents() -> list:
    """The exponents the code raises to at m = 1..6, and a few more: the
    odd-root powers p/q of normgeom and the first integral, the norm's
    k/2m, the integer powers, and k*lam, lam + 1 and -(lam + 1) at the
    taxonomy's lam values."""
    out = {0.0, 1.5, 2.5, -0.5, 3.0, -3.0}
    for m in range(1, 7):
        q, m2 = 2 * m - 1, 2 * m
        out.update(p / q for p in range(-m2, m2 + 1))
        out.update(k / m2 for k in range(-m2 - 1, m2 + 2))
        out.update(float(k) for k in range(-3, m2 + 1))
        for lam in (1.0, 0.5, -0.5, -2.0, 0.5 / q):
            out.update((lam + 1.0, -(lam + 1.0)))
            out.update(k * s for k in range(1, m2 + 1) for s in (lam, -lam))
    return sorted(out)


def test_float_power_gives_pythons_pow_bits():
    """np.float_power has the bits of Python's pow wherever that gives a
    float, up to the sign and payload of a NaN; libm(pow, ...) has them
    all, a NaN's included, and NaN where Python raises (overflow,
    0.0 ** -e) or gives a complex number."""
    x = np.array(POW_BASES)
    raised = complex_values = 0
    for e in pow_exponents():
        want = []
        for v in POW_BASES:
            try:
                y = v ** e
            except (OverflowError, ZeroDivisionError):
                raised += 1
                y = None
            if isinstance(y, complex):
                complex_values += 1
            want.append(y)
        with np.errstate(all="ignore"):
            fp = np.float_power(x, e)
        assert [f.hex() for f, y in zip(fp.tolist(), want)
                if isinstance(y, float)] == [
                    y.hex() for y in want if isinstance(y, float)], e
        got = libm(pow, x, e)
        floats = np.array([isinstance(y, float) for y in want])
        assert int_bits(got[floats]) == int_bits(
            [y for y in want if isinstance(y, float)]), e
        assert np.isnan(got[~floats]).all(), e
        assert int_bits(x.view(LibmArray) ** e) == int_bits(got), e
    assert raised > 0 and complex_values > 0


def int_bits(values) -> list:
    """The bit patterns of floats, NaN payloads and signs included."""
    return np.asarray(values, dtype=float).view(np.int64).ravel().tolist()


def math_or_nan(fn, v: float) -> float:
    try:
        return fn(v)
    except (ValueError, OverflowError):
        return math.nan


LOG_INPUTS = [
    0.0, -0.0, 5e-324, -5e-324, TINY / 3, -TINY / 3, TINY, -TINY, 1e-300,
    1e-10, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 2.0, -0.5, -1.0,
    -1.0 + 2.0 ** -53, -1.0 - 2.0 ** -52, -2.0, -1e300,
    709.78, 709.782712893384, 709.7827128933841, 709.8, 710.0, 1e10, 1e300,
    1.7976931348623157e308, -1.7976931348623157e308, -709.8, -746.0,
    math.inf, -math.inf, math.nan, -math.nan, *quadrature._PROBE,
]
_rng = np.random.default_rng(35)
LOG_DRAWS = (_rng.choice([-1.0, 1.0], 100_000)
             * 10.0 ** np.concatenate([_rng.uniform(-320, 308, 50_000),
                                       _rng.uniform(-6, 3, 50_000)])).tolist()


@pytest.mark.parametrize("fn", [math.log, math.log1p, math.expm1],
                         ids=["log", "log1p", "expm1"])
def test_log_log1p_expm1_give_maths_bits(fn):
    """libm(fn, ...) has math's bits on every element, with NaN where
    math raises, on 0-d, 1-d, 2-d, strided and reversed arrays."""
    x = np.array(LOG_INPUTS + LOG_DRAWS)
    want = np.array([math_or_nan(fn, v) for v in x.tolist()])
    assert np.isnan(want).sum() > 100
    assert int_bits(libm(fn, x)) == int_bits(want)
    assert int_bits(libm(fn, x.view(LibmArray))) == int_bits(want)
    n = len(x) // 4 * 4
    assert int_bits(libm(fn, x[:n].reshape(4, -1))) == int_bits(want[:n])
    assert int_bits(libm(fn, x[:n].reshape(4, -1).T)) == int_bits(
        want[:n].reshape(4, -1).T)
    assert int_bits(libm(fn, x[::3])) == int_bits(want[::3])
    assert int_bits(libm(fn, x[::-1])) == int_bits(want[::-1])
    for v in LOG_INPUTS:
        got = libm(fn, np.array(v))
        assert got.shape == () and int_bits(got) == int_bits(
            math_or_nan(fn, v)), v
    for n in range(1, 40):  # every length up to a few SIMD widths
        assert int_bits(libm(fn, x[-n:])) == int_bits(want[-n:]), n


@pytest.mark.parametrize("fn", [math.log, math.log1p, math.expm1],
                         ids=["log", "log1p", "expm1"])
def test_probe_rejects_a_ufunc_one_ulp_off(fn, monkeypatch):
    """A ufunc that is one ulp off on one probe input fails the probe:
    libm drops it and still gives math's bits."""
    ufunc = getattr(np, fn.__name__)
    probe = quadrature._PROBE[-1]
    calls = []

    def off(x):
        calls.append(len(x))
        out = ufunc(x)
        hit = x == probe
        out[hit] = np.nextafter(out[hit], math.inf)
        return out

    monkeypatch.setattr(quadrature, "_UFUNCS", {fn: off})
    monkeypatch.setattr(quadrature, "_passes_probe", functools.cache(
        quadrature._passes_probe.__wrapped__))
    x = np.array([0.25, probe, 3.0, probe])
    want = [math_or_nan(fn, v) for v in x.tolist()]
    assert int_bits(libm(fn, x)) == int_bits(want)
    assert calls == [len(quadrature._PROBE)]
    assert not quadrature._passes_probe(fn)
    assert int_bits(libm(fn, x)) == int_bits(want)
    assert calls == [len(quadrature._PROBE)]


def test_power_one_is_a_copy():
    """LibmArray ** 1 is a new array with the bits of Python's v ** 1,
    which is v, not a view.  float_power gives those bits too, except
    that it clears the sign of a NaN."""
    x = np.array(POW_BASES + [-math.nan]).view(LibmArray)
    want = [v ** 1 for v in x.tolist()]
    assert int_bits(want) == int_bits(x)
    for e in (1, 1.0):
        y = x ** e
        assert type(y) is LibmArray and not np.shares_memory(x, y)
        assert int_bits(y) == int_bits(want)
    number = ~np.isnan(x)
    assert int_bits(x[number] ** 1) == int_bits(
        np.float_power(x[number], 1.0))
    y = x[::-2] ** 1
    assert y.flags.c_contiguous and int_bits(y) == int_bits(x[::-2])


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
        h = [fd_step(a, lo, hi) for a in points.tolist()]
        assert bits(fd_step(points, lo, hi)) == bits(h), tag
        d1 = b.uprime(points)
        d2 = b.fd_second(points, np.array(h))
        assert np.isfinite(d1).all() and np.isfinite(d2).all(), tag
        assert bits(d1) == bits(b.uprime(a) for a in points.tolist()), tag
        assert bits(d2) == bits(b.fd_second(a, step) for a, step
                                in zip(points.tolist(), h)), tag
        got = verify._fd_jets_exact(b, points, lo, hi)
        assert [bits(x) for x in got] == [bits(d1), bits(d2)], tag


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


def test_stencil_leaves_a_non_finite_point_to_fail_the_scan(instances_m2):
    """A point where the array slope gives NaN is not evaluated again on
    floats: its u' stays NaN, every other point keeps its bits, and the
    scan fails without raising."""
    b = instances_m2["6.3i"]
    lo, hi, mask, _ = verify._scan_frame(b)
    points = b.alpha[mask]
    slope = NanAtOnePoint(b.slope, float(points[len(points) // 2]))
    nan_b = dataclasses.replace(b, slope=slope)
    d1, d2 = verify._fd_jets_exact(nan_b, points, lo, hi)
    assert slope.float_calls == 0
    want = verify._fd_jets_exact(b, points, lo, hi)
    bad = len(points) // 2
    assert np.isnan(d1[bad])
    rest = np.arange(len(points)) != bad
    assert [bits(x[rest]) for x in (d1, d2)] == [bits(x[rest]) for x in want]
    rep = residual_scan(nan_b)
    assert slope.float_calls == 0
    assert not rep.passed and math.isnan(rep.max_residual)
    assert residual_scan(b).passed


def test_complex_slope_raises_tolerance_error():
    """The seed-402 sweep draw: the array pass leaves NaN where the
    scalar slope is complex, never casting a complex value to a real
    one, and the table raises ToleranceError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ToleranceError, match="non-finite value"):
            solve(request(6, -0.09214164874133957, 0.8025229379416952,
                          4.822590238398405))


def test_array_paths_emit_no_runtime_warning():
    """Nor do the tables at m >= 4 whose row on a simple root, or past
    one, has an infinite or NaN slope."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for b in build_instances(2).values():
            residual_scan(b)
        (b,) = solve(request(5, -0.9676349260580417, 2.263783851459214,
                             1.065926470183868))
        assert math.isnan(residual_scan(b).max_residual)
        warnings.simplefilter("ignore", IllConditionedWarning)
        for m in (4, 5, 6):
            p = NormParameter(m)
            b = solve_homogeneous(p, 1.0, 1.0)
            assert math.isinf(b.du[0])
            solve_inhom_lambda_minus1(p, 1.0, 1.5)
            solve_inhom_general(p, -0.5, 1.0, 3.2)
            solve_inhom_general(p, -2.0, 1.0, 0.3)


def scalar_each(f, *arrays) -> list:
    """f on the Python floats of each index of arrays, as a list of
    tuples; NaNs where f raises."""
    out = []
    for args in zip(*(x.tolist() for x in arrays)):
        try:
            y = f(*args)
        except (ArithmeticError, ValueError):
            y = None
        out.append(y if isinstance(y, tuple) or y is None else (y,))
    width = next((len(y) for y in out if y is not None), 1)
    return [y or (math.nan,) * width for y in out]


def jet_corpus() -> tuple:
    """(radius, d1, d2) arrays: slopes of both signs from 1e-8 to 1e8,
    zero, tiny, huge and non-finite entries, and a few radii at or below
    zero."""
    rng = np.random.default_rng(1616)
    n = 400
    d1 = np.concatenate([
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n),
        [0.0, -0.0, 5e-324, -1e-300, 1e200, -1e200, math.inf, -math.inf,
         math.nan, 10.0, -10.0, math.nextafter(10.0, 11.0)]])
    d2 = rng.normal(size=d1.size) * 10.0 ** rng.uniform(-3, 6, d1.size)
    radius = 10.0 ** rng.uniform(-6, 3, d1.size)
    d2[:3], radius[3:6] = (math.inf, -math.inf, math.nan), (0.0, -1.0,
                                                            math.nan)
    return radius, d1, d2


def curvature_pairs(k) -> tuple:
    return k.k1, k.k2


@pytest.mark.parametrize("m", range(1, 7))
def test_curvature_functions_on_arrays(m):
    """Each element of normgeom's array forms has the bits of the float
    form, or is NaN where the float form raises."""
    p = NormParameter(m)
    radius, d1, d2 = jet_corpus()
    W, W_dW = normal_angle(p)
    s = np.abs(d1)
    with np.errstate(all="ignore"):
        w = W(as_libm(s))
        assert bits(w) == bits(v for (v,) in scalar_each(W, s))
        # the pair's W is W, also at s = 0, where the float dW raises
        w_pair, dw = W_dW(as_libm(s))
        assert bits(w_pair) == bits(w)
        assert bits(dw) == bits(v for (v,) in scalar_each(
            lambda x: W_dW(x)[1], s))
        for curvatures in (principal_curvatures,
                           oriented_radius_chart_curvatures):
            got = curvature_pairs(curvatures(p, radius, d1, d2))
            want = scalar_each(lambda r, x, y: curvature_pairs(
                curvatures(p, r, x, y)), radius, d1, d2)
            assert [bits(g) for g in got] == [bits(w) for w in zip(*want)]
        for lam in (1.0, -0.5, -2.0, math.inf):
            got = verify._relation_residual(p, radius, d1, d2, lam, -1.0)
            want = scalar_each(lambda r, x, y: verify._relation_residual(
                p, r, x, y, lam, -1.0), radius, d1, d2)
            assert bits(got) == bits(w for (w,) in want), lam


def decreasing_branches(m: int) -> list:
    """The sign = -1 branches of test_verify's decreasing profiles."""
    branches = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for lam, mu, c1 in ((-1.0, 1.0, 1.5), (0.5, 1.0, 0.8),
                            (-2.0, -1.0, 0.4), (1.0, -1.0, 0.3)):
            branches += solve(request(m, lam, mu, c1, sign=-1))
    return branches


@pytest.mark.parametrize("m", range(1, 7))
def test_residuals_on_every_table_grid(m):
    """The scan's array residuals have the bits of the float loop on the
    taxonomy and on decreasing branches, at every point where they are
    finite; slopes on both sides of |u'| = 10, negative slopes and
    lam = inf all occur."""
    seen = set()
    branches = [*instances(m).values(), *decreasing_branches(m)]
    for b in branches:
        lo, hi, mask, _ = verify._scan_frame(b)
        points = b.alpha[mask]
        if not points.size:
            continue
        d1, d2 = verify._fd_jets_exact(b, points, lo, hi)
        keep = d1 != 0.0
        a, d1, d2 = points[keep], d1[keep], d2[keep]
        lam, mu = b.lam, b.mu / b.scale
        with np.errstate(all="ignore"):
            got = verify._relation_residual(b.request.p, a, d1, d2, lam, mu)
        want = scalar_each(lambda x, y, z: verify._relation_residual(
            b.request.p, x, y, z, lam, mu), a, d1, d2)
        finite = np.isfinite(got)
        assert bits(got[finite]) == bits(
            w for (w,), f in zip(want, finite) if f), b.case.value
        seen.update(("steep" if s else "flat") for s in
                    np.unique(np.abs(d1) > 10.0))
        seen.update(["decreasing"] if np.any(d1 < 0.0) else [])
        seen.update(["lam=inf"] if math.isinf(lam) else [])
    assert seen == {"steep", "flat", "decreasing", "lam=inf"}


class SpikeAtOnePoint:
    """A slope that is the law's except at one point, where its array
    form and its float form both give ``value``."""

    def __init__(self, law, bad: float, value: float):
        self.law, self.bad, self.value = law, bad, value

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            return np.where(t == self.bad, self.value, self.law(t))
        return self.value if t == self.bad else self.law(t)


def test_non_finite_residuals_fail_the_report(instances_m2):
    """An infinite d2, and a d1 whose 2m/q power overflows, leave the
    array residual non-finite where the float form gives inf or raises
    OverflowError; nothing raises, and the report fails."""
    p = NormParameter(2)
    a = np.array([0.5, 0.7, 0.9, 0.9])
    d1 = np.array([0.3, -2.0, 40.0, 1e300])
    d2 = np.array([1.0, math.inf, 2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            got = verify._relation_residual(p, a, d1, d2, 0.5, 1.0)
        rep = verify._report("residual_scan", "test", 1e-6, got, a)
    assert np.isfinite(got).tolist() == [True, False, True, False]
    finite = np.isfinite(got)
    assert bits(got[finite]) == bits(
        verify._relation_residual(p, *v, 0.5, 1.0)
        for v in zip(a[finite].tolist(), d1[finite].tolist(),
                     d2[finite].tolist()))
    with pytest.raises(OverflowError):
        verify._relation_residual(p, 0.9, 1e300, 1.0, 0.5, 1.0)
    assert not rep.passed and not math.isfinite(rep.max_residual)
    # a table point whose slope is 1e300 on arrays and on floats alike
    b = instances_m2["6.3i"]
    points = b.alpha[verify._scan_frame(b)[2]]
    spike = SpikeAtOnePoint(b.slope, float(points[len(points) // 2]), 1e300)
    rep = residual_scan(dataclasses.replace(b, slope=spike))
    assert not rep.passed and not math.isfinite(rep.max_residual)


# ---------------------------------------------------------------------------
# the probe grid of bracket_roots


# each family at constants of both signs where it has any: the
# taxonomy's, and some of the sweep's box
GAP_LAWS = [
    (_hom_pos, (1.0, 1.0)), (_hom_pos, (0.1, 2.5)),
    (_hom_neg, (-0.5, 1.0)), (_hom_neg, (-3.3, 0.7)),
    (_lm1, (1.5, 1.0)), (_lm1, (-0.5, -1.0)), (_lm1, (4.2, -3.1)),
    (_gen_pos, (0.5, 0.8, 1.0)), (_gen_pos, (2.7, -4.1, -0.3)),
    (_gen_mid, (-0.5, 3.2, 1.0)), (_gen_mid, (-0.9, 0.4, -2.2)),
    (_gen_low, (-2.0, 0.3, 1.0)), (_gen_low, (-3.8, -1.7, 4.6)),
]


def probe_corpus() -> np.ndarray:
    """Probe-like points: uniform grids as bracket_roots lays them, and
    points from 1e-300 to 1e300 of both signs, and zero."""
    rng = np.random.default_rng(17)
    wide = 10.0 ** rng.uniform(-300, 300, 300)
    return np.concatenate([np.linspace(1e-12, 12.0, 512),
                           np.linspace(3.1, 48.0, 256), wide, -wide,
                           [0.0, -0.0, 1.0, 5e-324]])


@pytest.mark.parametrize("m", range(1, 7))
def test_gap_on_arrays(m):
    """SlopeLaw.gap on an array gives every finite element the bits of
    the float call; where the array element is not finite, the float
    call raises, gives a complex number or is not finite either."""
    t = probe_corpus()
    for family, params in GAP_LAWS:
        law = SlopeLaw(family, params, m)
        with np.errstate(all="ignore"):
            got = law.gap(t)
        want = scalar_each(law.gap, t)
        finite = np.isfinite(got)
        assert bits(got[finite]) == bits(
            w for (w,), f in zip(want, finite) if f), (family, params)
        assert not any(isinstance(w, float) and math.isfinite(w)
                       for (w,), f in zip(want, finite) if not f)
        assert finite.sum() > 700, (family, params)


def scalar_probe_roots(f, lo, hi, probes=64) -> list:
    """bracket_roots as it was before its probe grid took arrays: f on
    each probe, and sign changes found one pair at a time."""
    if probes < 8:
        raise ValueError("need at least 8 probes")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite window lo < hi, got ({lo}, {hi})")
    eps = 1e-9 * (hi - lo)
    grid = np.linspace(lo + eps, hi - eps, probes)
    vals = np.array([f(t) for t in grid])
    finite = np.isfinite(vals)
    grid, vals = grid[finite], vals[finite]
    if grid.size < 2:
        return []
    scale = max(1.0, float(np.max(np.abs(vals))))

    roots: list[float] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            root = float(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            root = float(_refine(f, grid[i], grid[i + 1], xtol=1e-15,
                                 rtol=8.9e-16))
        else:
            continue
        if all(abs(r - root) >= 1e-10 * max(1.0, abs(root)) for r in roots):
            roots.append(root)
    roots.sort()
    return [r for r in roots if abs(f(r)) < ROOT_VALUE_TOL * scale * 10]


def sweep_draws(seed: int) -> list:
    """The benchmark sweep's draws at a seed."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    return workloads().Sweep(perfbench, seed, perfbench).items


def test_bracket_roots_as_the_scalar_probe_loop(monkeypatch):
    """Every bracket_roots call of the taxonomy at m = 2, 3 and of
    classifying the seed-401 sweep draws finds the roots, or raises the
    exception, of the loop that probed one float at a time."""
    calls = []
    bracket_roots = solver.bracket_roots

    def both(f, lo, hi, probes=64):
        def outcome(find):
            try:
                return bits(find(f, lo, hi, probes))
            except Exception as exc:
                return repr(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = outcome(scalar_probe_roots)
        got = outcome(bracket_roots)
        calls.append((lo, hi, got, want))
        return bracket_roots(f, lo, hi, probes)

    monkeypatch.setattr(solver, "bracket_roots", both)
    build_instances(2)
    build_instances(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m, lam, mu, c1 in sweep_draws(401):
            try:
                classify(request(m, lam, mu, c1))
            except Exception:  # the draws' known failures
                pass
    monkeypatch.undo()
    assert [(lo, hi, got) for lo, hi, got, _ in calls] == [
        (lo, hi, want) for lo, hi, _, want in calls]
    assert len(calls) > 200
    assert sum(map(len, (got for _, _, got, _ in calls))) > 200
