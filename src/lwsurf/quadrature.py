"""Quadrature for profile integrals with endpoint singularities.

The profile integrands have the shape numerator / denominator^e with
e = (2m-1)/2m and a denominator vanishing at domain boundaries.  A simple
root gives an integrable singularity which the substitution
t = root +/- s^(2m) removes exactly; a double root makes the integral
diverge because 2e >= 1.  Divergence is decided from root multiplicity and
exponent arithmetic, never from the size of a numeric estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy import integrate, optimize

__all__ = [
    "EndpointKind",
    "DomainInterval",
    "QuadratureResult",
    "IntegrandSpec",
    "ToleranceError",
    "bracket_roots",
    "integrate_singular",
    "profile_from_integral",
    "ProfileSamples",
]

DOUBLE_ROOT_DERIV_TOL = 1e-8
ROOT_VALUE_TOL = 1e-13


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
    divergent_sign: int = 0

    @staticmethod
    def finite_value(value: float, error: float) -> "QuadratureResult":
        return QuadratureResult(True, value=value, error_estimate=error)

    @staticmethod
    def divergent(sign: int) -> "QuadratureResult":
        return QuadratureResult(False, divergent_sign=sign)


@dataclass(frozen=True)
class IntegrandSpec:
    """Profile integrand numerator(t) / denominator(t)^exponent.

    ``roots`` lists known denominator roots as (location, multiplicity)
    pairs; only roots sitting at the integration endpoints matter.
    ``decay_exponent`` is the algebraic decay rate of the full integrand at
    infinity, used for the finiteness decision on unbounded intervals.
    """

    numerator: Callable[[float], float]
    denominator: Callable[[float], float]
    exponent: float
    m: int
    roots: tuple = ()
    decay_exponent: float | None = None

    def __call__(self, t: float) -> float:
        return self.numerator(t) / self.denominator(t) ** self.exponent


def _probe_grid(lo: float, hi: float, probes: int) -> np.ndarray:
    if math.isinf(hi):
        # linear sweep near the left end plus a geometric sweep further out
        base = lo if lo > 0 else 0.0
        lin = np.linspace(base + 1e-9 * max(1.0, abs(base) + 1.0),
                          base + 10.0, probes // 2)
        geo = np.geomspace(base + 10.0, base + 1e6, probes - probes // 2)
        return np.concatenate([lin, geo])
    span = hi - lo
    eps = 1e-9 * span
    return np.linspace(lo + eps, hi - eps, probes)


def bracket_roots(f: Callable[[float], float], lo: float, hi: float,
                  probes: int = 64) -> list[tuple[float, int]]:
    """Locate roots of f on (lo, hi) with multiplicity 1 or 2.

    Sign changes on a probe grid are refined by Brent's method.  A local
    minimum of |f| that touches zero without a sign change is refined via
    the numeric derivative and reported with multiplicity 2.
    """
    if probes < 8:
        raise ValueError("need at least 8 probes")
    grid = _probe_grid(lo, hi, probes)
    vals = np.array([f(t) for t in grid])
    finite = np.isfinite(vals)
    grid, vals = grid[finite], vals[finite]
    if grid.size < 2:
        return []
    scale = max(1.0, float(np.max(np.abs(vals))))
    h_scale = grid[-1] - grid[0]

    def fprime(t: float) -> float:
        h = 1e-7 * max(1.0, abs(t))
        return (f(t + h) - f(t - h)) / (2.0 * h)

    roots: list[tuple[float, int]] = []

    def add(root: float, mult: int) -> None:
        for r, _ in roots:
            if abs(r - root) < 1e-10 * max(1.0, abs(root)):
                return
        roots.append((root, mult))

    # simple roots: sign changes
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            add(float(a), 2 if abs(fprime(a)) < DOUBLE_ROOT_DERIV_TOL * scale else 1)
            continue
        if fa * fb < 0.0:
            root = optimize.brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)
            mult = 2 if abs(fprime(root)) < DOUBLE_ROOT_DERIV_TOL * scale else 1
            add(float(root), mult)

    # double roots: zero-touching local minima of |f| without a sign change
    absvals = np.abs(vals)
    for i in range(1, len(grid) - 1):
        if absvals[i] <= absvals[i - 1] and absvals[i] <= absvals[i + 1]:
            if vals[i - 1] * vals[i + 1] <= 0.0:
                continue  # handled by the sign-change pass
            da, db = fprime(grid[i - 1]), fprime(grid[i + 1])
            if da * db < 0.0:
                t0 = optimize.brentq(fprime, grid[i - 1], grid[i + 1],
                                     xtol=1e-14, rtol=8.9e-16)
                if abs(f(t0)) < ROOT_VALUE_TOL * scale:
                    add(float(t0), 2)
    roots.sort(key=lambda rm: rm[0])
    # sanity: refined roots must satisfy the value tolerance
    return [(r, m_) for r, m_ in roots
            if abs(f(r)) < ROOT_VALUE_TOL * scale * 10 or m_ == 2]


def _root_at(spec: IntegrandSpec, point: float) -> tuple[float, int] | None:
    for root, mult in spec.roots:
        if abs(root - point) <= 1e-9 * max(1.0, abs(point)):
            return root, mult
    return None


def _edge_integrand(spec: IntegrandSpec, root: float, inward: int):
    """Smooth integrand in s after the substitution t = root + inward*s^(2m).

    The denominator factor (t-root) is divided out analytically; the
    remaining cofactor is evaluated as denominator(t)/|t-root| with a
    one-sided derivative fallback very close to the root.
    """
    m = spec.m
    e = spec.exponent
    pw = (2 * m - 1) - 2 * m * e  # zero for the canonical exponent
    # below h0 the direct quotient denominator(t)/d loses digits to the
    # rounding of root + d, so a local linear model of the cofactor is
    # used instead (coefficients by one-sided Richardson extrapolation)
    h0 = 1e-5 * max(1.0, abs(root))
    c_a = spec.denominator(root + inward * h0) / h0
    c_b = spec.denominator(root + inward * 2.0 * h0) / (2.0 * h0)
    cof0 = 2.0 * c_a - c_b
    cof_slope = (c_b - c_a) / h0

    def g(s: float) -> float:
        d = s ** (2 * m)
        t = root + inward * d
        if d > h0:
            cof = spec.denominator(t) / d
        else:
            cof = cof0 + cof_slope * d
        val = 2 * m * spec.numerator(t) * cof ** (-e)
        if pw != 0.0:
            val *= s ** pw
        return val

    return g


def _quad(f, a, b, tol):
    # the returned error estimate is checked by the callers; the stock
    # subdivision warnings would only duplicate that signal
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, epsabs=1e-14, epsrel=tol,
                                  limit=200)
    return val, err


def integrate_singular(spec: IntegrandSpec, a: float, b: float,
                       tol: float = 1e-10) -> QuadratureResult:
    """Integral of the spec over (a, b) with singular-endpoint handling.

    Double-root endpoints are classified divergent analytically because the
    local exponent 2*(2m-1)/2m is at least 1; unbounded upper limits are
    finite exactly when the declared decay exponent exceeds 1.
    """
    root_a = _root_at(spec, a)
    root_b = None if math.isinf(b) else _root_at(spec, b)
    if (root_a and root_a[1] >= 2) or (root_b and root_b[1] >= 2):
        return QuadratureResult.divergent(+1)
    if math.isinf(b):
        if spec.decay_exponent is None or spec.decay_exponent <= 1.0:
            return QuadratureResult.divergent(+1)

    total, err_total = 0.0, 0.0
    lo, hi = a, b
    if math.isinf(b):
        hi = max(2.0 * abs(a) + 10.0, 10.0)
    mid = 0.5 * (lo + hi)

    if root_a:
        w = mid - lo
        g = _edge_integrand(spec, root_a[0], +1)
        val, err = _quad(g, 0.0, w ** (1.0 / (2 * spec.m)), tol)
        total += val
        err_total += err
        lo = mid
    if root_b:
        w = hi - mid if root_a else hi - 0.5 * (lo + hi)
        inner = hi - w
        g = _edge_integrand(spec, root_b[0], -1)
        val, err = _quad(g, 0.0, w ** (1.0 / (2 * spec.m)), tol)
        total += val
        err_total += err
        hi = inner
    if hi > lo:
        val, err = _quad(spec, lo, hi, tol)
        total += val
        err_total += err
    if math.isinf(b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(spec, max(lo, hi), np.inf,
                                      epsabs=1e-14, epsrel=tol, limit=400)
        total += val
        err_total += err
    if not math.isfinite(total):
        raise ToleranceError("integral evaluation produced non-finite value",
                             total, err_total)
    if err_total > max(tol * abs(total), 1e-12) * 50:
        raise ToleranceError("quadrature error estimate exceeds tolerance",
                             total, err_total)
    return QuadratureResult.finite_value(total, err_total)


@dataclass
class ProfileSamples:
    """Monotone table (alpha, u, du) of one signed profile branch."""

    alpha: np.ndarray
    u: np.ndarray
    du: np.ndarray
    quad_error: float = 0.0


def _edge_offsets(width: float, n: int, kind: EndpointKind, m: int,
                  include_end: bool) -> np.ndarray:
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
    # smooth / regular endpoints: uniform, optionally including the end
    if include_end:
        return np.linspace(0.0, width, n)
    return np.linspace(0.0, width, n + 1)[1:]


_SINGULAR_KINDS = (EndpointKind.SIMPLE_ROOT, EndpointKind.DOUBLE_ROOT,
                   EndpointKind.AXIS_ZERO)


def _build_grid(domain: DomainInterval, samples: int, m: int,
                upper_cut: float) -> np.ndarray:
    lo, up = domain.lower, min(domain.upper, upper_cut)
    lk, uk = domain.lower_kind, domain.upper_kind
    if math.isinf(domain.upper):
        uk = EndpointKind.UNBOUNDED
    if lk not in _SINGULAR_KINDS and uk not in _SINGULAR_KINDS:
        return np.linspace(lo, up, samples)
    mid = 0.5 * (lo + up)
    n_lo = samples // 2
    n_hi = samples - n_lo
    lo_pts = lo + _edge_offsets(mid - lo, n_lo, lk, m,
                                include_end=lk is EndpointKind.SMOOTH_CAP)
    hi_pts = up - _edge_offsets(up - mid, n_hi, uk, m,
                                include_end=uk in (EndpointKind.SMOOTH_CAP,
                                                   EndpointKind.UNBOUNDED))
    grid = np.unique(np.concatenate([lo_pts, hi_pts]))
    return grid


def profile_from_integral(spec: IntegrandSpec, domain: DomainInterval,
                          sign: int, anchor: tuple[float, float],
                          samples: int = 512, tol: float = 1e-10,
                          upper_cut: float = math.inf) -> ProfileSamples:
    """Sample u(alpha) = u0 + sign * int_{alpha0}^{alpha} F on a graded grid.

    The anchor (alpha0, u0) may sit at an integrable endpoint; the panel
    adjacent to a simple denominator root is integrated in the regularized
    variable.  The du column is the closed-form integrand, signed.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    a0, u0 = anchor
    if not (domain.lower - 1e-12 <= a0 <= domain.upper + 1e-12):
        raise ValueError("anchor outside domain closure")

    grid = _build_grid(domain, samples, spec.m, upper_cut)
    if domain.lower < a0 < domain.upper and not np.any(
            np.isclose(grid, a0, rtol=0, atol=1e-14 * max(1.0, abs(a0)))):
        grid = np.sort(np.append(grid, a0))

    err_total = 0.0
    span_hi = min(domain.upper, upper_cut) - domain.lower
    root_lo = _root_at(spec, domain.lower)
    if root_lo is not None and root_lo[1] != 1:
        root_lo = None  # substitution regularizes simple roots only
    root_hi = None if math.isinf(domain.upper) else _root_at(spec, domain.upper)
    if root_hi is not None and root_hi[1] != 1:
        root_hi = None
    # cumulative integral from grid[0]
    U = np.zeros_like(grid)
    for i in range(1, len(grid)):
        t0, t1 = grid[i - 1], grid[i]
        if root_lo is not None and t1 - domain.lower <= 0.51 * span_hi:
            g = _edge_integrand(spec, root_lo[0], +1)
            s0 = (t0 - root_lo[0]) ** (1.0 / (2 * spec.m))
            s1 = (t1 - root_lo[0]) ** (1.0 / (2 * spec.m))
            val, err = _quad(g, s0, s1, tol)
        elif (root_hi is not None
              and domain.upper - t0 <= 0.51 * (domain.upper - domain.lower)):
            # t = root - s^(2m): dt orientation already positive in s
            g = _edge_integrand(spec, root_hi[0], -1)
            s0 = (root_hi[0] - t1) ** (1.0 / (2 * spec.m))
            s1 = (root_hi[0] - t0) ** (1.0 / (2 * spec.m))
            val, err = _quad(g, s0, s1, tol)
        else:
            val, err = _quad(spec, t0, t1, tol)
        U[i] = U[i - 1] + val
        err_total += err

    # value of the cumulative integral at the anchor position
    def cumulative_at(alpha: float) -> float:
        idx = np.searchsorted(grid, alpha)
        j = int(np.clip(idx, 0, len(grid) - 1))
        for k in (j - 1, j, j + 1):
            if 0 <= k < len(grid) and abs(grid[k] - alpha) <= 1e-12 * max(1.0, abs(alpha)):
                return float(U[k])
        # anchor at a domain endpoint off the grid
        if alpha <= grid[0]:
            root = _root_at(spec, domain.lower)
            if root is not None and root[1] == 1:
                g = _edge_integrand(spec, root[0], +1)
                s1 = (grid[0] - root[0]) ** (1.0 / (2 * spec.m))
                val, _ = _quad(g, 0.0, s1, tol)
            else:
                val, _ = _quad(spec, alpha, grid[0], tol)
            return float(U[0] - val)
        if alpha >= grid[-1]:
            root = None if math.isinf(domain.upper) else _root_at(spec, domain.upper)
            if root is not None and root[1] == 1:
                g = _edge_integrand(spec, root[0], -1)
                s1 = (root[0] - grid[-1]) ** (1.0 / (2 * spec.m))
                val, _ = _quad(g, 0.0, s1, tol)
            else:
                val, _ = _quad(spec, grid[-1], alpha, tol)
            return float(U[-1] + val)
        raise ValueError(f"anchor {alpha} not resolvable on the grid")

    offset = cumulative_at(a0)
    u = u0 + sign * (U - offset)
    du = sign * np.array([spec(t) for t in grid])
    return ProfileSamples(alpha=grid, u=u, du=du, quad_error=err_total)
