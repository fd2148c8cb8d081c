"""Quadrature for profile integrals with endpoint singularities.

The one integrand is a branch's SlopeLaw, Q^q / (P^2m - Q^2m)^e with
q = 2m-1 and e = q/2m; quadrature reads only its ``terms``, ``m``,
``exponent`` and ``decay_exponent``.  The denominator vanishes at domain
boundaries, and the domain's endpoint kinds record where and how: a
simple root gives an integrable singularity which the substitution
t = root +/- s^(2m) removes exactly; a double root makes the integral
diverge because 2e >= 1.
Divergence is decided from the endpoint kinds and exponent arithmetic,
never from the size of a numeric estimate.

Every finite integral runs through quadpack.panels on arrays: a table's
grid panels, the piece out to an anchor off the grid and the span's
pieces go through one panel call per table (``_panel_quad``).  The
span's unbounded tail is one of those pieces, on (0, 1) after QUADPACK's
map for QAGI (dqagie), and the same 21-point rule integrates it.

Integrands take a float or a float array, and every element of an array
has the bits of the scalar evaluation (``libm``, ``LibmArray``).  Powers
run through ``np.float_power``: numpy does not SIMD-dispatch that ufunc,
so it is a plain C loop over libm's pow, the function Python's
``float ** e`` calls.  log, log1p and expm1 run as numpy's float64
ufuncs on a reversed view of the array.  On a contiguous array numpy
dispatches them to SIMD loops that differ from libm in the last bit; on
a negative stride it runs its plain loop over libm, the functions
``math`` calls.  Each proves that at its first use on a fixed probe
(``_PROBE``: special values, and inputs where the AVX-512 loops round
otherwise), bit for bit against ``math``; one that fails is called once
per element from then on.  Only +, -, *, / and abs run as other numpy
loops, which round as Python floats do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .solver import SlopeLaw

__all__ = [
    "EndpointKind",
    "DomainInterval",
    "QuadratureResult",
    "ToleranceError",
    "bracket_roots",
    "double_root_factor",
    "integrate_singular",
    "profile_from_integral",
    "ProfileSamples",
]

ROOT_VALUE_TOL = 1e-13

# panels per array pass of the 21-point rule; a block's nodes are
# 512*21 floats, so no table holds all its nodes at once
PANEL_BLOCK = 512
_EPSABS = 1e-14  # every panel's absolute tolerance
_LIMIT = 200     # dqagse's subdivision limit on a finite range

# lwsurf.quadpack, imported by the first panel so that classification and
# the closed forms never compile the QUADPACK port
_quadpack = None


# math's log, log1p and expm1 and the numpy ufuncs that stand in for them
# on arrays once the probe has shown their bits (_passes_probe)
_UFUNCS = {math.log: np.log, math.log1p: np.log1p, math.expm1: np.expm1}
# special values, and for each function four inputs where numpy 2.4's
# contiguous AVX-512 loop rounds otherwise than math
_PROBE = tuple(float.fromhex(h) for h in (
    "0x0.0p+0", "-0x0.0p+0", "0x0.0000000000001p-1022",
    "-0x0.0000000000001p-1022", "0x1.0p-1022", "0x1.0p+0", "-0x1.0p+0",
    "-0x1.0p+1", "0x1.62e42fefa39efp+9", "0x1.630p+9",
    "0x1.fffffffffffffp+1023", "inf", "-inf", "nan",
    # log
    "0x1.0cc2712954499p-1", "0x1.24aa0f92dd644p-75",
    "0x1.bd73653e39ea6p-1", "0x1.78f2ca63290c9p-733",
    # log1p
    "0x1.2c9ec0f7feb7ep-1", "-0x1.566e2d8674100p-2",
    "-0x1.29097336d27bap-1", "0x1.88b3b9f8a51d2p-1",
    # expm1
    "0x1.847ace25901b8p+1", "0x1.7711ee94aaf0cp+0",
    "0x1.e7b1acf708be8p+1", "0x1.016dc01a3a18cp+1",
))


def libm(fn, x, *args):
    """fn(v, *args) for every float v of the array x, with the bits of
    the float call.

    ``libm(pow, x, e)`` is ``np.float_power(x, e)``, a plain C loop over
    libm's pow (see above).  ``math.log``, ``math.log1p`` and
    ``math.expm1`` run as numpy's ufunc on a reversed view of x once
    ``_PROBE`` has shown that ufunc to give math's bits; other functions,
    and one the probe rejects, are called once per element.  An element
    whose float call raises or gives a complex number is NaN: for log,
    log1p and expm1, a NaN from an input that is not NaN and an infinity
    from a finite input (log(0), log1p(-1), expm1(710)); for pow, an
    infinite power of a finite base, where Python raises OverflowError
    (or ZeroDivisionError at ``0.0 ** -e``), and a fractional power of a
    negative base.  So is every element of a complex array, whose scalar
    values are complex.  A power of a NaN base is that NaN, sign and
    payload kept, for every exponent but 0, as in Python
    (``_pow_fixup``).
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.full(x.shape, math.nan)
    if fn is pow:
        with np.errstate(all="ignore"):
            out = np.asarray(np.float_power(x, *args))
        if not np.isfinite(out).all():
            _pow_fixup(out, x, *args)
        return out
    if fn in _UFUNCS and _passes_probe(fn):
        return _reversed_ufunc(_UFUNCS[fn], x)
    return _each(fn, x, args)


def _pow_fixup(out: np.ndarray, x: np.ndarray, e) -> None:
    """Python's pow, in place, where ``out = np.float_power(x, e)`` has an
    element that is not finite; libm calls it only then, so a finite
    array pays one pass for it.  An infinity from a finite base, where
    Python raises, becomes NaN.  A NaN base gives itself, sign and
    payload, for every e != 0, as Python's ``v ** e`` does; float_power
    clears its sign bit for an odd integer e."""
    out[np.isinf(out) & np.isfinite(x)] = math.nan
    if e != 0:
        nan = np.isnan(x)
        out[nan] = x[nan]


def _reversed_ufunc(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc on the elements of x through a negative stride, which numpy
    serves with its plain loop over libm, with NaN where math raises."""
    flat = np.asarray(x, dtype=float).ravel()
    with np.errstate(all="ignore"):
        out = ufunc(flat[::-1])[::-1]
    if not np.isfinite(out).all():
        out[(np.isnan(out) & ~np.isnan(flat))
            | (np.isinf(out) & np.isfinite(flat))] = math.nan
    return out.reshape(x.shape)


def _each(fn, x: np.ndarray, args: tuple) -> np.ndarray:
    """fn called on each element of x."""
    # a memoryview yields the Python floats one at a time, where a list
    # would hold them all
    values = memoryview(np.ascontiguousarray(x, dtype=float).ravel())
    try:
        out = np.fromiter(map(fn, values, *map(repeat, args)), float,
                          len(values))
    except (ArithmeticError, TypeError, ValueError):
        out = np.array([_or_nan(fn, v, args) for v in values], dtype=float)
    return out.reshape(x.shape)


def _or_nan(fn, v: float, args: tuple) -> float:
    try:
        y = fn(v, *args)
    except (ArithmeticError, ValueError):
        return math.nan
    return math.nan if isinstance(y, complex) else y


@functools.cache
def _passes_probe(fn) -> bool:
    """Whether _UFUNCS[fn] gives fn's bits on every element of _PROBE,
    NaN payloads included; asked once per fn and process."""
    x = np.array(_PROBE)
    return np.array_equal(_reversed_ufunc(_UFUNCS[fn], x).view(np.int64),
                          _each(fn, x, ()).view(np.int64))


class LibmArray(np.ndarray):
    """A float array whose ``**`` rounds every element as libm's pow.

    Formulas written for floats run unchanged on it: +, -, *, / and abs
    are numpy loops, which round as Python floats do, and ``x ** e`` is
    ``libm(pow, x, e)`` for a float or int exponent e.  ``x ** 1`` is a
    copy of x, without a pow pass: Python's ``v ** 1`` is v, and
    float_power gives v too, except that it clears a NaN's sign bit.
    """

    def __pow__(self, e):
        if e == 1 and self.dtype == np.float64:
            return self.copy()
        return libm(pow, self, e).view(LibmArray)


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-d array x in ascending order: np.sort,
    then each element that differs from the one before it.  On finite
    arrays these are the values of np.unique, whose first call on numpy
    2.x imports numpy.ma to ask whether x is masked; lwsurf passes plain
    arrays, so the commands never load it.  Unlike np.unique, NaNs are not
    merged, and of -0.0 and 0.0 the one that sorts first is kept."""
    s = np.sort(x)
    keep = np.ones(s.shape, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def as_libm(t):
    """t viewed as a LibmArray if it is an array; a float unchanged."""
    if isinstance(t, np.ndarray):
        return t.view(LibmArray)
    return t


def log(t):
    """math.log of a float, or of every float of an array."""
    if isinstance(t, np.ndarray):
        return libm(math.log, t).view(LibmArray)
    return math.log(t)


class ToleranceError(RuntimeError):
    """Requested tolerance could not be met; carries the best estimate."""

    def __init__(self, message: str, best: float, error: float):
        super().__init__(message)
        self.best = best
        self.error = error


class EndpointKind(Enum):
    SIMPLE_ROOT = "simple_root"   # integrable singularity, u' -> +/-inf
    DOUBLE_ROOT = "double_root"   # divergent, u -> +/-inf
    AXIS_ZERO = "axis_zero"       # alpha -> 0 with u' -> 0
    SMOOTH_CAP = "smooth_cap"     # finite endpoint with u' -> 0
    UNBOUNDED = "unbounded"       # alpha -> infinity


@dataclass(frozen=True)
class DomainInterval:
    """Maximal alpha-interval of one profile branch."""

    lower: float
    upper: float
    lower_kind: EndpointKind
    upper_kind: EndpointKind
    label: str = ""

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.upper)


@dataclass(frozen=True)
class QuadratureResult:
    finite: bool
    value: float = math.nan
    error_estimate: float = math.nan


def _brent(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float, maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of the loop of ``optimize.brentq`` (brentq.c):
    the same iterates, the same calls of f, so the same root to the bit.
    Like ``brentq`` it raises ValueError when f returns NaN or f(a), f(b)
    have the same sign, and RuntimeError when maxiter steps do not
    converge.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # in C the step is then inf or NaN, and the test below
                # bisects
                stry = math.nan
            # C's MIN(|spre|, 3|sbis| - delta), NaN placement included
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _refine(f: Callable[[float], float], a: float, b: float, xtol: float,
            rtol: float) -> float:
    """Root of f on the sign-change bracket [a, b]: Brent, then bisection.

    Brent's iteration cap can run out next to a nearby double root, where
    its interpolation steps crawl.  The bracket is then finished by
    bisection under Brent's stopping rule, which always terminates.
    """
    try:
        return _brent(f, a, b, xtol=xtol, rtol=rtol)
    except RuntimeError:
        pass
    fa = float(f(a))
    while True:
        mid = 0.5 * (a + b)
        if abs(b - a) < xtol + rtol * abs(mid) or mid in (a, b):
            return mid
        fm = float(f(mid))
        if math.isnan(fm):
            raise ValueError(f"The function value at x={mid} is NaN; "
                             "solver cannot continue.")
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid


def bracket_roots(f: Callable, lo: float, hi: float,
                  probes: int = 64) -> list[float]:
    """Sorted roots of f on the finite window (lo, hi).

    f maps a float, or a float array element by element with the same
    bits.  The probe grid is evaluated in one call of f, and its sign
    changes are refined on floats by Brent's method, finished by
    bisection where Brent's iteration cap runs out; a refined point where
    |f| is not small is a pole and is dropped.  Double roots, which do
    not change sign, are known analytically (DomainInterval kinds).
    """
    if probes < 8:
        raise ValueError("need at least 8 probes")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite window lo < hi, got ({lo}, {hi})")
    eps = 1e-9 * (hi - lo)
    grid = np.linspace(lo + eps, hi - eps, probes)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(grid), dtype=float)
        finite = np.isfinite(vals)
        grid, vals = grid[finite], vals[finite]
        if grid.size < 2:
            return []
        # a zero, or a sign change between two nonzero neighbours; their
        # signs are compared, since their product can underflow to 0
        starts = (vals[:-1] == 0.0) | (np.sign(vals[:-1])
                                       * np.sign(vals[1:]) < 0.0)
    scale = max(1.0, float(np.max(np.abs(vals))))

    roots: list[float] = []
    for i in np.flatnonzero(starts).tolist():
        if vals[i] == 0.0:
            root = float(grid[i])
        else:
            root = float(_refine(f, grid[i], grid[i + 1], xtol=1e-15,
                                 rtol=8.9e-16))
        if all(abs(r - root) >= 1e-10 * max(1.0, abs(root)) for r in roots):
            roots.append(root)
    roots.sort()
    return [r for r in roots if abs(f(r)) < ROOT_VALUE_TOL * scale * 10]


def _edge_integrand(law: SlopeLaw, root: float, inward: int):
    """Smooth integrand in s after the substitution t = root + inward*s^(2m).

    The denominator factor (t-root) is divided out analytically, and its
    power s^(2m-1) cancels that of dt/ds; the remaining cofactor is
    evaluated as denominator(t)/|t-root| with a one-sided derivative
    fallback very close to the root.  s is a float or an array; the law is
    called once, on every point.
    """
    m = law.m
    e = law.exponent
    # below h0 the direct quotient denominator(t)/d loses digits to the
    # rounding of root + d, so a local linear model of the cofactor is
    # used instead (coefficients by one-sided Richardson extrapolation)
    h0 = 1e-5 * max(1.0, abs(root))
    c_a = law.terms(root + inward * h0)[1] / h0
    c_b = law.terms(root + inward * 2.0 * h0)[1] / (2.0 * h0)
    cof0 = 2.0 * c_a - c_b
    cof_slope = (c_b - c_a) / h0

    def g(s):
        s = as_libm(s)
        d = s ** (2 * m)
        t = root + inward * d
        num, den = law.terms(t)
        if isinstance(s, np.ndarray):
            far = d > h0
            cof = cof0 + cof_slope * d
            cof[far] = den[far] / d[far]
        else:
            cof = den / d if d > h0 else cof0 + cof_slope * d
        return 2 * m * num * cof ** (-e)

    return g


def double_root_factor(p: float) -> Callable[[float], float]:
    """phi_p(x) = (1+x)^p - 1 - p*x, accurate near its double zero x = 0.

    At a critical constant the admissibility function A - B(t) equals
    beta * phi_p(t/t_d - 1), which vanishes to second order at t_d; the
    direct difference would lose all digits there to cancellation.  p = 1,
    where phi_p vanishes identically, stands for the log limit
    (1+x)*log1p(x) - x = lim phi_p(x)/(p-1).  Below |x| = 1/8 the binomial
    series sum_{k>=2} C(p,k) x^k is summed to degree 20, whose first
    omitted term is below 8^-19 of the leading one; further out the closed
    form loses at most a few digits.  x is a float or an array.
    """
    log_limit = p == 1.0
    c = 0.5 if log_limit else 0.5 * p * (p - 1.0)
    coeffs = []
    for k in range(2, 21):
        coeffs.append(c)
        c *= (p - k) / (k + 1)
    coeffs.reverse()  # Horner order, degree 20 first

    def series(x):
        acc = 0.0
        for ck in coeffs:
            acc = acc * x + ck
        return acc * x * x

    def closed(x, log1p, expm1):
        if log_limit:
            return (1.0 + x) * log1p(x) - x
        return expm1(p * log1p(x)) - p * x

    def phi(x):
        if isinstance(x, np.ndarray):
            out = np.empty_like(x)
            near = np.abs(x) < 0.125
            out[near] = series(x[near])
            out[~near] = closed(x[~near], lambda v: libm(math.log1p, v),
                                lambda v: libm(math.expm1, v))
            return out
        if abs(x) < 0.125:
            return series(x)
        return closed(x, math.log1p, math.expm1)

    return phi


def _qp():
    global _quadpack
    if _quadpack is None:
        from . import quadpack
        _quadpack = quadpack
    return _quadpack


def _panel_quad(integrands: list, which: np.ndarray, a: np.ndarray,
                b: np.ndarray, tol: float) -> tuple:
    """(values, errors): dqagse on every panel (a[i], b[i]) of the
    integrand ``integrands[which[i]]``, with scipy.integrate.quad's bits
    where its rules meet only finite values.

    Each integrand's panels go through quadpack.panels together,
    PANEL_BLOCK at a time: the first rule on all of them, then dqagse's
    bisection of the rejected ones in lockstep, one array pass per round.
    A panel whose rule meets a non-finite value gets a non-finite value,
    and a zero-width panel (0.0, 0.0), as quad returns there.
    """
    panels = _qp().panels
    values, errors = np.zeros(a.size), np.zeros(a.size)
    for k, f in enumerate(integrands):
        idx = np.flatnonzero((which == k) & (a != b))
        for start in range(0, idx.size, PANEL_BLOCK):
            block = idx[start:start + PANEL_BLOCK]
            values[block], errors[block] = panels(
                f, a[block], b[block], _EPSABS, tol, _LIMIT)
    return values, errors


def _running_sum(x: np.ndarray) -> np.ndarray:
    """[0, x0, x0 + x1, ...], added left to right as a Python loop adds."""
    return np.add.accumulate(np.concatenate(([0.0], x)))


def _tail_start(domain: DomainInterval) -> float:
    """Where the span of an unbounded domain leaves the law for its tail."""
    return max(2.0 * abs(domain.lower) + 10.0, 10.0)


def _span_plan(law: SlopeLaw, domain: DomainInterval):
    """The span's pieces (integrand, a, b) in the order their values are
    added, or None where it diverges.  The integrand is 0 for the law, 1
    and 2 for the lower and upper edge integrands in s, and 3 for the
    unbounded tail on (0, 1) (_edge_integrands).

    Double-root endpoints are divergent because the local exponent
    2*(2m-1)/2m is at least 1; an unbounded upper limit is finite exactly
    when the declared decay exponent exceeds 1.  The domain is split at
    its midpoint (at the tail's start on an unbounded one), with one
    substituted edge per simple root.
    """
    if EndpointKind.DOUBLE_ROOT in (domain.lower_kind, domain.upper_kind):
        return None
    lo, hi = domain.lower, domain.upper
    if not domain.bounded:
        if law.decay_exponent is None or law.decay_exponent <= 1.0:
            return None
        hi = _tail_start(domain)
    mid = 0.5 * (lo + hi)
    pieces = []
    if domain.lower_kind is EndpointKind.SIMPLE_ROOT:
        pieces.append((1, 0.0, (mid - lo) ** (1.0 / (2 * law.m))))
        lo = mid
    if domain.upper_kind is EndpointKind.SIMPLE_ROOT:
        w = hi - mid
        pieces.append((2, 0.0, w ** (1.0 / (2 * law.m))))
        hi = hi - w
    if hi > lo:
        pieces.append((0, lo, hi))
    if not domain.bounded:
        pieces.append((3, 0.0, 1.0))
    return pieces


def _span(values: list, errors: list, tol: float) -> QuadratureResult:
    """The span from its pieces' values and errors, added in order;
    ToleranceError where the total is not finite or its error estimate
    exceeds the tolerance."""
    total, err_total = 0.0, 0.0
    for value, error in zip(values, errors):
        total += value
        err_total += error
    if not math.isfinite(total):
        raise ToleranceError("integral evaluation produced non-finite value",
                             total, err_total)
    if err_total > max(tol * abs(total), 1e-12) * 50:
        raise ToleranceError("quadrature error estimate exceeds tolerance",
                             total, err_total)
    return QuadratureResult(True, value=total, error_estimate=err_total)


def _edge_integrands(law: SlopeLaw, domain: DomainInterval) -> list:
    """The integrands of _span_plan's and profile_from_integral's pieces:
    the law; the edge integrands in s at the lower and upper simple roots
    (None where the end is not one); and on an unbounded domain the tail
    on dqagie's map x = 1/(1 + t - start) of (start, inf) to (0, 1]
    (else None)."""
    root_lo = domain.lower_kind is EndpointKind.SIMPLE_ROOT
    root_hi = domain.upper_kind is EndpointKind.SIMPLE_ROOT
    tail = None
    if not domain.bounded:
        start = _tail_start(domain)

        def tail(x):
            return law(start + (1.0 - x) / x) / x / x

    # t = root - s^(2m): dt orientation already positive in s
    return [law, _edge_integrand(law, domain.lower, +1) if root_lo else None,
            _edge_integrand(law, domain.upper, -1) if root_hi else None,
            tail]


def integrate_singular(law: SlopeLaw, domain: DomainInterval,
                       tol: float = 1e-10) -> QuadratureResult:
    """Integral of the law over the domain with singular-endpoint handling.

    Divergence is decided from the endpoint kinds and the decay exponent
    (_span_plan); simple-root endpoints are regularized by substitution,
    and the pieces go through one _panel_quad call, as the span pieces of
    profile_from_integral do, so both give the same bits.
    """
    plan = _span_plan(law, domain)
    if plan is None:
        return QuadratureResult(False)
    which, a, b = map(np.array, zip(*plan))
    values, errors = _panel_quad(_edge_integrands(law, domain), which, a,
                                 b, tol)
    return _span(values.tolist(), errors.tolist(), tol)


@dataclass
class ProfileSamples:
    """Monotone table (alpha, u, du) of one signed profile branch."""

    alpha: np.ndarray
    u: np.ndarray
    du: np.ndarray
    quad_error: float = 0.0
    span: float = math.nan  # total |u|-variation over the domain


def _edge_offsets(width: float, n: int, kind: EndpointKind,
                  m: int) -> np.ndarray:
    """Distances from an endpoint, ascending, graded by endpoint kind."""
    if kind is EndpointKind.SIMPLE_ROOT:
        s = np.linspace(0.0, width ** (1.0 / (2 * m)), n + 1)[1:]
        return s ** (2 * m)
    if kind is EndpointKind.DOUBLE_ROOT:
        d0 = max(1e-6 * width, 1e-9)
        return np.geomspace(d0, width, n)
    if kind is EndpointKind.AXIS_ZERO:
        d0 = min(1e-6, 1e-3 * width)
        return np.geomspace(d0, width, n)
    # a smooth cap or an unbounded end (cut): uniform, the end included
    return np.linspace(0.0, width, n)


_SINGULAR_KINDS = (EndpointKind.SIMPLE_ROOT, EndpointKind.DOUBLE_ROOT,
                   EndpointKind.AXIS_ZERO)


def _build_grid(domain: DomainInterval, samples: int, m: int,
                upper_cut: float) -> np.ndarray:
    """The rows of every branch table.  With a singular end, half of them
    come from each end, graded by its kind (_edge_offsets); otherwise they
    are uniform.  A cap or cut end is a row, and at m >= 4 rows can round
    onto a simple root; the closed forms clip them off the ends."""
    lo, up = domain.lower, min(domain.upper, upper_cut)
    lk, uk = domain.lower_kind, domain.upper_kind
    if math.isinf(domain.upper):
        uk = EndpointKind.UNBOUNDED
    if lk not in _SINGULAR_KINDS and uk not in _SINGULAR_KINDS:
        return np.linspace(lo, up, samples)
    mid = 0.5 * (lo + up)
    n_lo = samples // 2
    n_hi = samples - n_lo
    lo_pts = lo + _edge_offsets(mid - lo, n_lo, lk, m)
    hi_pts = up - _edge_offsets(up - mid, n_hi, uk, m)
    return sorted_unique(np.concatenate([lo_pts, hi_pts]))


def profile_from_integral(law: SlopeLaw, domain: DomainInterval,
                          sign: int, anchor: tuple[float, float],
                          samples: int = 512, tol: float = 1e-10,
                          upper_cut: float = math.inf) -> ProfileSamples:
    """Sample u(alpha) = u0 + sign * int_{alpha0}^{alpha} law on a graded
    grid, with the span integrate_singular gives.

    The anchor alpha0 is domain.lower or domain.upper, and may be an
    integrable singular endpoint; the panels next to a simple denominator
    root are integrated in the regularized variable.  The grid panels,
    the piece out to an anchor off the grid and the span's pieces
    (_span_plan) go through one _panel_quad call.  The du column is the
    closed-form integrand, signed.  A non-finite table or anchor piece
    raises ToleranceError, as integrate_singular does.  The span is the
    value when finite, inf when divergent and NaN where _span raises
    ToleranceError.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    a0, u0 = anchor
    lower, upper = domain.lower, domain.upper
    if a0 not in (lower, upper):
        raise ValueError(f"anchor {a0} is not an end of the domain "
                         f"[{lower}, {upper}]")
    if not math.isfinite(a0):
        raise ValueError(f"anchor {a0} is not finite")

    grid = _build_grid(domain, samples, law.m, upper_cut)
    span_hi = min(upper, upper_cut) - lower
    # each panel's integrand: the law, or next to a simple root the edge
    # integrand in s, t = root +/- s^(2m)
    integrands = _edge_integrands(law, domain)
    root_lo, root_hi = (g is not None for g in integrands[1:3])
    t0, t1 = grid[:-1], grid[1:]
    a, b = t0.copy(), t1.copy()
    which = np.zeros(t0.size, dtype=int)
    to_s = 1.0 / (2 * law.m)
    if root_lo:
        near = t1 - lower <= 0.51 * span_hi
        which[near] = 1
        a[near] = libm(pow, t0[near] - lower, to_s)
        b[near] = libm(pow, t1[near] - lower, to_s)
    if root_hi:
        near = (which == 0) & (upper - t0 <= 0.51 * (upper - lower))
        which[near] = 2
        a[near] = libm(pow, upper - t1[near], to_s)
        b[near] = libm(pow, upper - t0[near], to_s)
    # the anchor's row: one within 1e-12 * max(1, |a0|) of it, j - 1
    # tried before j; off the grid, the piece out to it is integrated
    j = int(np.clip(np.searchsorted(grid, a0), 0, len(grid) - 1))
    radius = 1e-12 * max(1.0, abs(a0))
    row = next((k for k in (j - 1, j, j + 1)
                if 0 <= k < len(grid) and abs(grid[k] - a0) <= radius), None)
    pieces = []
    if row is None and a0 == lower:
        pieces.append((1, 0.0, (grid[0] - lower) ** to_s) if root_lo
                      else (0, a0, grid[0]))
    elif row is None:
        pieces.append((2, 0.0, (upper - grid[-1]) ** to_s) if root_hi
                      else (0, grid[-1], a0))
    plan = _span_plan(law, domain)
    pieces += plan or []
    more = np.array(pieces).reshape(-1, 3).T
    values, errors = _panel_quad(
        integrands, np.concatenate((which, more[0].astype(int))),
        np.concatenate((a, more[1])), np.concatenate((b, more[2])), tol)
    n = t0.size
    # cumulative integral from grid[0]
    U = _running_sum(values[:n])
    err_total = float(_running_sum(errors[:n])[-1])
    if not math.isfinite(U[-1]):
        raise ToleranceError("integral evaluation produced non-finite value",
                             float(U[-1]), err_total)
    if row is not None:
        offset = float(U[row])
    else:
        piece = values[n]
        if not math.isfinite(piece):
            raise ToleranceError(
                "integral evaluation produced non-finite value",
                float(piece), float(errors[n]))
        offset = float(U[0] - piece if a0 == lower else U[-1] + piece)
        n += 1
    if plan is None:
        span = math.inf
    else:
        try:
            span = _span(values[n:].tolist(), errors[n:].tolist(),
                         tol).value
        except ToleranceError:
            span = math.nan
    u = u0 + sign * (U - offset)
    with np.errstate(all="ignore"):
        # a plain array: the law gives a LibmArray, whose ** is libm's
        du = sign * np.asarray(law(grid))
    return ProfileSamples(alpha=grid, u=u, du=du, quad_error=err_total,
                          span=span)
