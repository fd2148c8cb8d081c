"""Double-root plans: the factored denominator against mpmath references.

At c1 = critical_c1(lam) the admissibility function P - Q(t) of the mu > 0
families touches zero at t_d, and the solver evaluates the denominator
P^2m - Q^2m as (P - Q) times its cofactor, with P - Q taken from
double_root_factor.  These tests check that factor, that the factored
denominator is the same function as the plain one away from t_d, and that
the inner double-root branches are accurate up to the last grid point.
"""

import math

import numpy as np
import pytest

from lwsurf import NormParameter, SolveRequest, WeingartenRelation
from lwsurf import solver
from lwsurf.quadrature import EndpointKind, double_root_factor
from lwsurf.solver import critical_c1

mp = pytest.importorskip("mpmath")

LOG_LIMIT = 1.0  # double_root_factor(1) is (1+x)*log1p(x) - x


def mp_phi(p, x):
    x = mp.mpf(x)
    if p == LOG_LIMIT:
        return (1 + x) * mp.log1p(x) - x
    p = mp.mpf(p)
    return (1 + x) ** p - 1 - p * x


@pytest.mark.parametrize("p", [1 / 3, 0.5, 2.0, 3.0, LOG_LIMIT])
def test_double_root_factor_against_mpmath(p):
    phi = double_root_factor(p)
    # dense on both sides of the series switch at |x| = 1/8
    xs = np.concatenate([np.linspace(-0.9, 2.0, 291),
                         np.geomspace(1e-8, 0.3, 60),
                         -np.geomspace(1e-8, 0.3, 60),
                         [0.125, -0.125, np.nextafter(0.125, 0.0),
                          np.nextafter(-0.125, 0.0)]])
    with mp.workdps(40):
        worst = max(abs(phi(float(x)) - mp_phi(p, float(x)))
                    / abs(mp_phi(p, float(x))) for x in xs if x != 0.0)
    assert worst <= 1e-13, worst


# (lam, family) rows; each family is the mu = +1 plan at the critical c1
FAMILIES = [(-1.0, "6.1i-2"), (-0.5, "6.3iii-2"), (-2.0, "6.3v-3-2")]


def plain_denominator(lam: float, m: int, c1):
    """Unfactored P^2m - Q(t)^2m of the family, in the given arithmetic."""
    if lam == -1.0:
        log = mp.log if isinstance(c1, mp.mpf) else math.log
        return lambda t: 1 - (t * (c1 - log(t))) ** (2 * m)
    if lam > -1.0:
        nl = -lam
        return lambda t: ((lam + 1) ** (2 * m)
                          - (t ** nl * (c1 * (lam + 1) - t ** (lam + 1)))
                          ** (2 * m))
    w = -(lam + 1)
    return lambda t: w ** (2 * m) - (t * (c1 * w * t ** w + 1)) ** (2 * m)


def double_plan(lam: float, m: int):
    c1 = critical_c1(lam)
    req = SolveRequest(p=NormParameter(m),
                       relation=WeingartenRelation(lam, 1.0), c1=c1)
    return c1, solver._plan(req)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam,family", FAMILIES)
def test_factored_denominator_is_the_plain_one(lam, family, m):
    c1, plan = double_plan(lam, m)
    assert plan.pieces[0].tag.value == family + "-1"
    inner = plan.pieces[0].domain
    t_d = inner.upper
    assert inner.upper_kind is EndpointKind.DOUBLE_ROOT
    top = plan.pieces[1].domain.upper
    plain = plain_denominator(lam, m, c1)
    ts = [t for t in np.linspace(1e-3 * t_d, top, 400)[:-1]
          if abs(t - t_d) > 0.1 * t_d]
    worst = max(abs(plan.slope.terms(t)[1] / plain(t) - 1.0) for t in ts)
    assert worst <= 1e-12, worst


def mp_integrand(lam: float, m: int):
    """Exact integrand at the exact critical constant, and its t_d = -lam."""
    lam_mp = mp.mpf(lam)
    if lam == -1.0:
        c1 = mp.mpf(1)
        numer = lambda t: (t * (c1 - mp.log(t))) ** (2 * m - 1)
    elif lam > -1.0:
        nl = -lam_mp
        c1 = 1 / ((lam_mp + 1) * nl ** nl)
        numer = lambda t: (t ** nl * (c1 * (lam_mp + 1) - t ** (lam_mp + 1))) \
            ** (2 * m - 1)
    else:
        w = -(lam_mp + 1)
        c1 = -1 / (w * (w + 1) ** (w + 1))
        numer = lambda t: (t * (c1 * w * t ** w + 1)) ** (2 * m - 1)
    denom = plain_denominator(lam_mp, m, c1)
    e = mp.mpf(2 * m - 1) / (2 * m)
    return (lambda t: numer(t) / denom(t) ** e), -lam_mp


def mp_profile(lam: float, m: int, alphas) -> list:
    """u at ascending alphas: integral from the axis, split toward t_d."""
    with mp.workdps(40):
        F, t_d = mp_integrand(lam, m)
        targets = [mp.mpf(float(a)) for a in alphas]
        points = [mp.mpf(0)]
        k = 1
        while t_d * (1 - mp.mpf(2) ** -k) < targets[-1]:
            points.append(t_d * (1 - mp.mpf(2) ** -k))
            k += 1
        points = sorted(points + targets)
        total, out = mp.mpf(0), {}
        for a, b in zip(points[:-1], points[1:]):
            total += mp.quad(F, [a, b])
            out[b] = total
        return [out[a] for a in targets]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam,family", FAMILIES)
def test_inner_double_root_branch_against_mpmath(
        lam, family, m, instances_m2, instances_m3):
    branch = (instances_m2 if m == 2 else instances_m3)[family + "-1"]
    assert branch.request.c1 == critical_c1(lam)
    assert branch.anchor == (0.0, 0.0) and branch.request.sign == 1
    n = len(branch.alpha)
    idx = [n // 2, n - 40, n - 1]
    ref = mp_profile(lam, m, branch.alpha[idx])
    errs = [abs(float(branch.u[i] / r - 1)) for i, r in zip(idx, ref)]
    assert max(errs) <= 1e-9, errs
    assert branch.quad_error <= 1e-8, branch.quad_error
