"""Independent numeric verification of constructed profile branches.

Three checks of a branch, with different failure modes:

* ``residual_scan`` evaluates the curvature relation k1 + lam*k2 = mu
  pointwise from the sampled profile, switching to the inverse chart when
  the slope is large so the finite differences stay conditioned.
* ``first_integral_drift`` measures the constancy of the conserved
  quantity along the branch, which is exact in the closed forms.
* ``ode_oracle`` re-integrates the profile equation as an initial value
  problem and compares tables.  It steps scipy's DOP853 (Dormand-Prince
  8(5,3), with the bits of ``scipy.integrate.DOP853``'s coefficients) on
  two Python floats, with solve_ivp's step rules, dense output and
  events, and does not import scipy.

``residual_scan_table`` checks a bare table, such as a CSV that ``lwsurf
verify`` reads: the same conserved quantity on every row, from the
alpha and du columns, against the median over the rows.

Each check returns a versioned, JSON-serializable report rather than a
bare boolean so the CLI can surface the evidence.  The checks compute
once, on arrays, and raise only on malformed input: too few samples,
arrays not monotone or of unequal shape, or a table the oracle's
precondition rejects.  A value that is not finite at a compared point
fails the report with a NaN or inf ``max_residual``; a check with no
point to compare fails with ``n_points = 0`` and a ``details["reason"]``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .normgeom import (
    Chart,
    NormParameter,
    PrincipalCurvatures,
    ProfileJet,
    axis_jet_from_radius_jet,
    principal_curvatures,
    oriented_radius_chart_curvatures,
)
from .quadrature import (
    _SINGULAR_KINDS,
    EndpointKind,
    _brent,
    as_libm,
    log,
)
from .solver import ProfileBranch

__all__ = [
    "REPORT_VERSION",
    "VerificationReport",
    "residual_scan",
    "residual_scan_table",
    "first_integral_drift",
    "ode_oracle",
    "slope_invariant",
]

REPORT_VERSION = "1"

# beyond this slope the graph-over-radius finite differences are replaced
# by the inverse graph-over-axis jet
CHART_SWITCH_SLOPE = 10.0
# the |u'| range ode_oracle compares in
SLOPE_WINDOW = (1e-2, 100.0)
# residual_scan_table's tolerance: on CSV round trips of every taxonomy
# branch at m = 1..6 and of every readable sweep branch at seeds 401-410
# the largest residual is 2.7e-13
TABLE_TOL = 1e-11
ORACLE_RTOL = 1e-10  # the oracle's relative step tolerance
ORACLE_FI_PRECONDITION = 1e-10  # first-integral residual it starts from


@dataclass
class VerificationReport:
    kind: str
    case: str
    passed: bool
    tolerance: float
    n_points: int
    max_residual: float
    median_residual: float
    rms_residual: float = math.nan
    excluded_zones: list = field(default_factory=list)
    excluded_fraction: float = 0.0
    edge_growth: bool = False
    details: dict = field(default_factory=dict)
    version: str = REPORT_VERSION

    def as_dict(self) -> dict:
        """The report in plain Python types, ``version`` first."""
        return _plain({"version": self.version, **dataclasses.asdict(self)})

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


def _plain(x):
    """x with tuples as lists, numpy numbers as floats and numpy bools as
    bools, so that json can write it."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.bool_):
        return bool(x)
    return float(x) if isinstance(x, (np.floating, np.integer)) else x


# ---------------------------------------------------------------------------
# helpers


def _scan_frame(branch: ProfileBranch, epsilon: float = 1e-3) -> tuple:
    """``(lo, hi, mask, zones)``: the interval a branch is checked on.

    ``hi`` is the last sample where a cut ends the table.  A singular or
    cut end excludes ``epsilon * width`` next to it and any other end
    ``1e-9 * width``; ``mask`` selects the samples left, and ``zones``
    lists the excluded neighbourhoods of the singular and cut ends.
    """
    dom, a = branch.domain, branch.alpha
    lo, hi = dom.lower, min(dom.upper, float(a[-1]))
    width = hi - lo
    cut_lo = dom.lower_kind in _SINGULAR_KINDS
    cut_hi = dom.upper_kind in _SINGULAR_KINDS or not dom.bounded
    mask = ((a - lo > (epsilon if cut_lo else 1e-9) * width)
            & (hi - a > (epsilon if cut_hi else 1e-9) * width))
    zones = [(zone, f"{kind.value} endpoint") for cut, kind, zone in (
        (cut_lo, dom.lower_kind, (lo, lo + epsilon * width)),
        (cut_hi, dom.upper_kind, (hi - epsilon * width, hi))) if cut]
    return lo, hi, mask, zones


def _fd_jets_exact(branch: ProfileBranch, a: np.ndarray, lo: float,
                   hi: float) -> tuple:
    """The arrays (u', u'') at the points a inside [lo, hi]: the
    closed-form slope and a central 5-point stencil on it.

    The step shrinks with the distance to the nearest end because the
    higher derivatives of the slope grow algebraically at simple roots.
    All stencils are evaluated at once by the array slope; a value it
    leaves non-finite stays so, and fails the scan.
    """
    dist = np.minimum(a - lo, hi - a)
    h = np.maximum(1e-6, 1e-4 * np.minimum(np.maximum(1.0, np.abs(a)), dist))
    h = np.minimum(h, 0.25 * dist)
    with np.errstate(all="ignore"):
        return branch.uprime(a), branch.fd_second(a, h)


def _relation_residual(p: NormParameter, a, d1, d2, lam: float, mu: float):
    """|k1 + lam*k2 - mu| from the graph-over-radius jet (d1, d2) at
    radius a: floats, or float arrays with the floats' bits."""
    if math.isinf(lam):
        # constant-k2 relation: the residual is |k2 - mu| directly
        return abs(oriented_radius_chart_curvatures(p, a, d1, d2).k2 - mu)
    # inverse chart: alpha as a function of u stays flat where u' blows up
    flat = abs(d1) <= CHART_SWITCH_SLOPE
    if not isinstance(flat, np.ndarray):
        k = _chart_curvatures(p, a, d1, d2, flat)
        return abs(k.k1 + lam * k.k2 - mu)
    k1, k2 = np.empty_like(a), np.empty_like(a)
    for part, is_flat in ((flat, True), (~flat, False)):
        if part.any():
            k = _chart_curvatures(p, a[part], d1[part], d2[part], is_flat)
            k1[part], k2[part] = k.k1, k.k2
    return abs(k1 + lam * k2 - mu)


def _chart_curvatures(p: NormParameter, a, d1, d2,
                      flat) -> PrincipalCurvatures:
    """The oriented radius-chart curvatures where the slope is flat, the
    inverse graph-over-axis ones elsewhere."""
    if flat:
        return oriented_radius_chart_curvatures(p, a, d1, d2)
    return principal_curvatures(p, axis_jet_from_radius_jet(
        ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=d1, d2=d2,
                   radius=a)))


def _edge_growth(alphas: np.ndarray, residuals: np.ndarray) -> bool:
    """Honesty flag: residuals growing toward the excluded edges."""
    if len(residuals) < 20:
        return False
    n = len(residuals) // 10
    order = np.argsort(alphas)
    r = residuals[order]
    outer = max(float(np.mean(r[:n])), float(np.mean(r[-n:])))
    middle = float(np.mean(r[2 * n:-2 * n])) if len(r) > 5 * n else float(np.mean(r))
    return outer > 10.0 * max(middle, 1e-16)


def _report(kind: str, case: str, tol: float, residuals, alphas=None,
            **fields) -> VerificationReport:
    """The report whose verdict and statistics come from ``residuals``;
    no residual fails.  The residual scans also pass the ``alphas`` they
    scanned, for the rms residual and the edge-growth flag."""
    r = np.asarray(residuals, dtype=float)
    top = median = math.nan
    if r.size:
        top, median = float(np.max(r)), float(np.median(r))
        if alphas is not None:
            fields["rms_residual"] = float(np.sqrt(np.mean(r ** 2)))
            fields["edge_growth"] = _edge_growth(np.asarray(alphas), r)
    return VerificationReport(
        kind=kind, case=case, passed=top < tol, tolerance=float(tol),
        n_points=r.size, max_residual=top, median_residual=median, **fields)


# ---------------------------------------------------------------------------
# checks


def residual_scan(branch: ProfileBranch, epsilon: float = 1e-3,
                  tol: float = 1e-6) -> VerificationReport:
    """Pointwise residual of k1 + lam*k2 - mu over the sample table.

    ``epsilon`` is the excluded relative radius around singular endpoints.
    The closed-form slope feeds a finite-difference stencil for the
    second derivative; use residual_scan_table to check a bare table
    without the closed-form slope.
    """
    if len(branch.alpha) < 32:
        raise ValueError("residual scan needs at least 32 samples")
    p = branch.request.p
    lam, mu = branch.lam, branch.mu / branch.scale
    lo, hi, mask, zones = _scan_frame(branch, epsilon)
    points = branch.alpha[mask]
    d1, d2 = _fd_jets_exact(branch, points, lo, hi)
    keep = d1 != 0.0
    alphas = points[keep]
    with np.errstate(all="ignore"):
        residuals = _relation_residual(p, alphas, d1[keep], d2[keep], lam,
                                       mu)
    details = {"lam": lam, "mu": mu, "m": p.m, "epsilon": epsilon,
               "slope_source": "closed_form",
               "chart_switch_slope": CHART_SWITCH_SLOPE}
    if not points.size:
        details["reason"] = "exclusion zones removed every sample point"
    elif not residuals.size:
        # the slope underflows to 0 on a vanishingly narrow domain
        details["reason"] = "no scanned point has a nonzero slope"
    return _report("residual_scan", branch.case.value, tol, residuals, alphas,
                   excluded_zones=zones,
                   excluded_fraction=1.0 - len(residuals) / len(branch.alpha),
                   details=details)


def residual_scan_table(p: NormParameter, alpha: np.ndarray, u: np.ndarray,
                        du: np.ndarray, lam: float, mu: float,
                        tol: float = TABLE_TOL) -> VerificationReport:
    """First-integral check of a bare (alpha, u, du) table, e.g. a loaded
    CSV.

    With W the normal-angle function of the slope, k1 = -dW/dalpha and
    k2 = -W/alpha, so every row of a profile of k1 + lam*k2 = mu keeps
    the first integral t1 + t2 (_first_integral_terms) at one constant.
    The constant is the median over the rows, and the residual of a row
    is |t1 + t2 - constant| relative to the size of its terms, |t1| +
    |t2|, or to their median over the rows where that is larger: the
    constant is known to the rounding of a typical row, and a row next to
    the axis of a table whose constant is 0 has terms far below it.  A
    constant-k2 relation is checked as k1 + k2 = 2*mu, which its spheres
    satisfy.  Every row is checked but one on the axis, alpha = 0, where
    the terms are singular.  The check reads alpha and du only: u is
    validated for shape, not compared, so an offset u column passes.
    """
    alpha, u, du = (np.asarray(x, dtype=float) for x in (alpha, u, du))
    if alpha.ndim != 1 or alpha.shape != u.shape or alpha.shape != du.shape:
        raise ValueError("alpha, u, du must be 1-d arrays of equal length")
    if len(alpha) < 32:
        raise ValueError("residual scan needs at least 32 samples")
    steps = np.diff(alpha)
    if np.all(steps <= 0.0) and np.any(steps < 0.0):
        alpha, du = alpha[::-1], du[::-1]
    elif np.any(steps < 0.0):
        raise ValueError("alpha must be monotone; verify assembled "
                         "profiles piece by piece")
    if math.isinf(lam):
        # constant-k2 relation: k1 = k2 = mu, check k1 + k2 = 2*mu
        lam, mu = 1.0, 2.0 * mu
    axis = alpha == 0.0
    alphas = alpha[~axis]
    with np.errstate(all="ignore"):
        t1, t2 = _first_integral_terms(p, lam, mu, as_libm(alphas), du[~axis])
        value, size = t1 + t2, np.abs(t1) + np.abs(t2)
        constant = float(np.median(value))
        residuals = (np.abs(value - constant)
                     / np.maximum(size, np.median(size)))
    return _report(
        "residual_scan", "table", tol, residuals, alphas,
        excluded_zones=[((0.0, 0.0), "axis")] if axis.any() else [],
        excluded_fraction=float(np.mean(axis)),
        details={"lam": lam, "mu": mu, "m": p.m, "constant": constant,
                 "slope_source": "du_column",
                 "residual_form": "first_integral"})


def _W(p: NormParameter, d1):
    """Conserved slope factor |u'|^(1/q) * (1 + |u'|^(2m/q))^(-1/2m) of a
    float or, with libm's powers, of every float of an array."""
    m, q = p.m, p.q
    s = abs(as_libm(d1))
    return s ** (1.0 / q) * (1.0 + s ** (2 * m / q)) ** (-1.0 / (2 * m))


def _first_integral_terms(p: NormParameter, lam: float, mu: float, alpha,
                          du) -> tuple:
    """The terms (t1, t2) whose sum is constant along a profile of
    k1 + lam*k2 = mu, at the radii alpha and slopes du.

    t1 = alpha^lam * W and t2 = mu/(lam+1) * alpha^(lam+1) in general,
    W/alpha and mu*log(alpha) at lam = -1, and alpha^lam * W and 0 when
    mu = 0.  For constant k2 (lam = inf) they are W/alpha and 0.
    """
    w = _W(p, du)
    if math.isinf(lam):
        return w / alpha, 0.0
    if mu == 0.0:
        return alpha ** lam * w, 0.0
    if lam == -1.0:
        return w / alpha, mu * log(alpha)
    return alpha ** lam * w, mu / (lam + 1.0) * alpha ** (lam + 1.0)


def first_integral_drift(branch: ProfileBranch,
                         tol: float = 1e-9) -> VerificationReport:
    """Constancy of the conserved quantity along the branch.

    The quantity is the sum of _first_integral_terms, evaluated in
    normalized (|mu| = 1) coordinates over the scan frame and compared
    with the branch constant: c1, c2^lam in the homogeneous case, and 1
    for the unit sphere of constant k2, where it is W/alpha = 1/radius.
    """
    req = branch.request
    lam, mu = branch.lam, branch.mu
    expected = (1.0 if math.isinf(lam) else req.c2 ** lam if mu == 0.0
                else req.c1)
    mask = _scan_frame(branch)[2]
    with np.errstate(all="ignore"):
        t1, t2 = _first_integral_terms(
            req.p, lam, mu, as_libm(branch.alpha[mask] / branch.scale),
            branch.du[mask])
    return _report("first_integral", branch.case.value, tol,
                   np.abs(t1 + t2 - expected),
                   details={"expected": expected,
                            "form": req.relation.form.value})


def _ode_rhs(p: NormParameter, lam: float, mu: float, s: float):
    """u'' solved from the oriented curvature relation k1 + lam*k2 = mu.

    ``rhs(a, (u, u'))`` returns the float pair ``(u', u'')``.  The
    orientation ``s``, +1.0 or -1.0, is the sign of the start slope, held
    for the whole run since a monotone branch never changes it; the sign
    of each u' would flip u'' where a step's stages cross u' = 0 next to
    a smooth cap.  The odd-root powers of u' are ``signed_odd_root_pow`` written out, with
    its exponents computed once: this runs on every solver stage.
    """
    m, q = p.m, p.q
    e_a1 = (2 * m) / q
    e_b = -(2 * m - 2) / q
    e_k2 = 1 / q
    e_outer = -(2 * m + 1) / (2 * m)
    e_norm = -1.0 / (2 * m)

    def second(a, d1):
        r = abs(d1)
        A1 = r ** e_a1 + 1.0
        B = A1 ** e_outer * r ** e_b
        k2_raw = -(1.0 / a) * A1 ** e_norm * (s * r ** e_k2)
        return -q * (s * mu - lam * k2_raw) / B

    def rhs(a: float, y) -> tuple:
        d1 = y[1]
        try:
            return d1, second(a, d1)
        except (ZeroDivisionError, OverflowError):
            # Python floats raise where IEEE arithmetic gives 0 or inf, as
            # for 0.0 ** -x at u' = 0; numpy scalars give the IEEE value
            with np.errstate(all="ignore"):
                return d1, float(second(np.float64(a), np.float64(d1)))

    return rhs


# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
# as scipy's solve_ivp runs it, with scipy's coefficients and step rules
_EVENT_XTOL = 4 * sys.float_info.epsilon
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # -1/(error estimator order + 1)

# The tableau: the float values of scipy.integrate.DOP853's A, B, C, E3,
# E5, D, A_EXTRA and C_EXTRA, written by repr, so each has scipy's bits.
# Row s of _A and of _A_EXTRA keeps the coefficients of the stages before
# it, and _C drops the first stage's zero.
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (
        0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
        -0.017578125,
    ),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
        0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505,
        2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235,
        -8.87285693353063, 12.360567175794303, 0.6433927460157636,
    ),
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
_C = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
)
_D = (
    (
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
        -3.0689499459498917, 2.38466765651207, 2.117034582445028,
        -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
        -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ),
    (
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
        165.20045171727028, -374.5467547226902, -22.113666853125306,
        7.733432668472264, -30.674084731089398, -9.332130526430229,
        15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ),
    (
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
        -189.17813819516758, 527.8081592054236, -11.57390253995963,
        6.8812326946963, -1.0006050966910838, 0.7777137798053443,
        -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ),
    (
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
        -231.5293791760455, 357.6391179106141, 93.40532418362432,
        -37.45832313645163, 104.0996495089623, 29.8402934266605,
        -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ),
)
_A_EXTRA = (
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
        0.00820105229563469, 0.007567897660545699, -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
        0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
        -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
        7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
        -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
    ),
)
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _dop853_dense(rhs, t_old: float, y_old: tuple, y: tuple, h: float,
                  k: tuple):
    """The 7th-order interpolant of one step from t_old to t_old + h.

    ``k`` holds each component's 13 stages of the step; the three extra
    stages are appended to them.  Returns ``at(t) -> (u, u')``, scipy's
    Dop853DenseOutput in the same order of operations.
    """
    for a, c in zip(_A_EXTRA, _C_EXTRA):
        stage = rhs(t_old + c * h, tuple(yc + sum(map(mul, a, kc)) * h
                                         for yc, kc in zip(y_old, k)))
        for kc, f in zip(k, stage):
            kc.append(f)
    coeffs = []  # kc[0] and kc[12] are the slopes at the step's two ends
    for yc_old, yc, kc in zip(y_old, y, k):
        dy = yc - yc_old
        coeffs.append((dy, h * kc[0] - dy, 2 * dy - h * (kc[12] + kc[0]))
                      + tuple(h * sum(map(mul, d, kc)) for d in _D))

    def at(t: float) -> tuple:
        x = (t - t_old) / h
        x1 = 1 - x
        return tuple(((((((F6 * x + F5) * x1 + F4) * x + F3) * x1 + F2) * x
                       + F1) * x1 + F0) * x + yc_old
                     for (F0, F1, F2, F3, F4, F5, F6), yc_old
                     in zip(coeffs, y_old))

    return at


@dataclass
class _Trajectory:
    """Output of one ``_dop853`` run: samples, the event that ended it, work."""

    t: list = field(default_factory=list)
    u: list = field(default_factory=list)
    du: list = field(default_factory=list)
    event: int | None = None
    t_event: float = math.nan
    rhs_evals: int = 0
    steps: int = 0
    rejected_steps: int = 0


def _dop853(rhs, t0: float, y0: tuple, t_bound: float, t_eval, events,
            rtol: float, atol: float) -> _Trajectory:
    """Integrate y' = rhs(t, y) for y = (u, u') from t0 to t_bound.

    Runs scipy's DOP853 as ``solve_ivp`` does, on two Python floats: the
    initial step, the 5/3 blended error norm, the step controller and the
    7th-order dense output follow scipy's code.  ``t_eval`` lists the
    output points in the direction of integration.  ``events`` are
    ``(g, direction)`` pairs, all terminal: g(t, y) changing sign over a
    step in the given direction (0 for either) stops the run at the root
    of g on the dense output.
    """
    run = _Trajectory()
    direction = 1.0 if t_bound >= t0 else -1.0
    t, (u, v) = t0, y0
    fu, fv = rhs(t, (u, v))
    run.rhs_evals = 2

    # initial step (scipy's select_initial_step)
    interval = abs(t_bound - t0)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(u / su, v / sv), _rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    hd = h0 * direction
    f1u, f1v = rhs(t + hd, (u + hd * fu, v + hd * fv))
    d2 = _rms((f1u - fu) / su, (f1v - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100 * h0, h1, interval)

    g = [ev(t, (u, v)) for ev, _ in events]
    i_eval = 0
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    "oracle integration failed: required step size is "
                    "less than spacing between numbers")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            ku, kv = [fu], [fv]
            for a, c in zip(_A, _C):
                ku_s, kv_s = rhs(t + c * h, (u + sum(map(mul, a, ku)) * h,
                                             v + sum(map(mul, a, kv)) * h))
                ku.append(ku_s)
                kv.append(kv_s)
            u_new = u + h * sum(map(mul, _B, ku))
            v_new = v + h * sum(map(mul, _B, kv))
            fu_new, fv_new = rhs(t + h, (u_new, v_new))
            ku.append(fu_new)
            kv.append(fv_new)
            run.rhs_evals += 12
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5 = math.hypot(sum(map(mul, _E5, ku)) / su,
                            sum(map(mul, _E5, kv)) / sv) ** 2
            e3 = math.hypot(sum(map(mul, _E3, ku)) / su,
                            sum(map(mul, _E3, kv)) / sv) ** 2
            if e5 == 0.0 and e3 == 0.0:
                error = 0.0
            else:
                error = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
            if error < 1.0:
                if error == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
            run.rejected_steps += 1
        run.steps += 1
        t_old, u_old, v_old = t, u, v
        t, u, v, fu, fv = t_new, u_new, v_new, fu_new, fv_new
        finished = direction * (t - t_bound) >= 0
        g_new = [ev(t, (u, v)) for ev, _ in events]
        active = [k for k, (_, d) in enumerate(events)
                  if (d >= 0 and g[k] <= 0 <= g_new[k])
                  or (d <= 0 and g[k] >= 0 >= g_new[k])]
        g = g_new
        if active or (i_eval < len(t_eval)
                      and direction * (t_eval[i_eval] - t) <= 0):
            dense = _dop853_dense(rhs, t_old, (u_old, v_old), (u, v), h,
                                  (ku, kv))
            run.rhs_evals += 3
        if active:
            roots = [(_brent(lambda s, ev=events[k][0]: ev(s, dense(s)),
                             t_old, t, _EVENT_XTOL, _EVENT_XTOL), k)
                     for k in active]
            t, run.event = min(roots, key=lambda r: direction * r[0])
            run.t_event = t
            u, v = dense(t)
        while i_eval < len(t_eval) and direction * (t_eval[i_eval] - t) <= 0:
            s = t_eval[i_eval]
            us, vs = dense(s)
            run.t.append(s)
            run.u.append(us)
            run.du.append(vs)
            i_eval += 1
        if finished or run.event is not None:
            return run


def ode_oracle(branch: ProfileBranch, tol: float = 1e-7) -> VerificationReport:
    """Re-integrates the profile equation and compares with the table.

    Starts from a mid-branch anchor.  The median first-integral residual
    over the whole branch (first_integral_drift's) must already be below
    ORACLE_FI_PRECONDITION: the oracle refuses to launch from
    inconsistent data.  The deviation is measured as |delta alpha|:
    the integrated point is mapped back through the monotone table
    u -> alpha.  Only points inside SLOPE_WINDOW = (floor, cap) are
    compared, because the alpha chart degenerates at both ends (u' -> 0
    at caps, u' -> inf at roots).  Integration runs outward in both
    directions and stops where the window ends, recording the reason in
    ``details["truncations"]``: "slope_blowup" when |u'| reaches the cap,
    "slope_floor" when |u'| falls to the floor heading into a smooth cap
    or the axis, "flat_slope" when u' crosses zero there, and "axis" when
    the integration reaches its end next to an axis endpoint.  The
    details also count the integrator's work over both directions:
    right-hand side evaluations, accepted steps and rejected steps.  When
    no integrated point is comparable, the report fails with
    ``n_points = 0`` and says so in ``details["reason"]``.
    """
    p = branch.request.p
    lam, mu = branch.lam, branch.mu / branch.scale
    if math.isinf(lam):
        # a constant-k2 branch is a Birkhoff sphere, where k1 = k2 = mu;
        # integrate the equivalent symmetric relation k1 + k2 = 2*mu
        lam, mu = 1.0, 2.0 * mu
    # physical relation: k1 + lam*k2 = mu_phys with mu_phys = mu/scale
    fi = first_integral_drift(branch, tol=math.inf)
    anchor_idx = len(branch.alpha) // 2
    a0 = float(branch.alpha[anchor_idx])
    u0 = float(branch.u[anchor_idx])
    d10 = float(branch.du[anchor_idx])
    if fi.median_residual > ORACLE_FI_PRECONDITION:
        raise ValueError(
            f"median first-integral residual {fi.median_residual:.3e} over "
            f"the branch exceeds the oracle precondition "
            f"{ORACLE_FI_PRECONDITION:.1e}")

    rhs = _ode_rhs(p, lam, mu, 1.0 if d10 > 0.0 else -1.0)
    slope_floor, slope_cap = SLOPE_WINDOW
    # (g, direction) event pairs, all terminal, in the order of ``reasons``
    blowup = (lambda a, y: slope_cap - abs(y[1]), 0)
    floor = (lambda a, y: abs(y[1]) - slope_floor, -1)
    flat = (lambda a, y: y[1], 0)
    reasons = ("slope_blowup", "slope_floor", "flat_slope")
    lo, hi = _scan_frame(branch)[:2]
    width = hi - lo
    margin = 1e-9 * width
    upper, lower = branch.domain.upper_kind, branch.domain.lower_kind
    ends = ((+1, upper, hi if upper is EndpointKind.SMOOTH_CAP
             else hi - margin),
            (-1, lower, lo + 1e-6 * width if lower is EndpointKind.AXIS_ZERO
             else lo + margin))

    truncations = []
    work = {"rhs_evals": 0, "steps": 0, "rejected_steps": 0}
    ts, us, dus = [], [], []
    for direction, kind, end in ends:
        if abs(end - a0) < 2 * margin:
            continue
        events = [blowup]
        # u' falling to the floor or to zero ends the integration only
        # heading into a smooth cap or the axis, otherwise a flat anchor
        # start would stop immediately
        if kind in (EndpointKind.SMOOTH_CAP, EndpointKind.AXIS_ZERO):
            events += [floor, flat]
        # the table points ahead, in the direction of integration; rescaled
        # tables can repeat an alpha, which t_eval must not
        ahead = np.unique(branch.alpha[direction * (branch.alpha - a0) > 0])
        t_eval = ahead[::direction]
        t_eval = t_eval[np.abs(t_eval - a0) <= abs(end - a0)]
        run = _dop853(rhs, a0, (u0, d10), end, t_eval.tolist(), events,
                      rtol=ORACLE_RTOL, atol=1e-12)
        for key in work:
            work[key] += getattr(run, key)
        if run.event is not None:
            truncations.append({"direction": direction,
                                "reason": reasons[run.event],
                                "alpha": run.t_event})
        elif kind is EndpointKind.AXIS_ZERO and direction == -1:
            truncations.append({"direction": direction, "reason": "axis",
                                "alpha": float(end)})
        ts += run.t
        us += run.u
        dus += run.du

    # |delta alpha|: each integrated u inside the slope window and the
    # table's u range is mapped back through the monotone table u -> alpha
    u_tab, a_tab = branch.u, branch.alpha
    if u_tab[-1] < u_tab[0]:
        u_tab, a_tab = u_tab[::-1], a_tab[::-1]
    ts, us, slopes = np.array(ts), np.array(us), np.abs(np.array(dus))
    keep = ((slope_floor <= slopes) & (slopes <= slope_cap)
            & (u_tab[0] <= us) & (us <= u_tab[-1]))
    devs = np.abs(np.interp(us[keep], u_tab, a_tab) - ts[keep])
    details = {"anchor_alpha": a0, "rtol": ORACLE_RTOL,
               "truncations": truncations,
               "first_integral_at_anchor": fi.median_residual, **work}
    if not len(devs):
        # no integrated point has its slope inside SLOPE_WINDOW, e.g. a
        # flat arc or a vanishingly narrow domain
        details["reason"] = "oracle produced no comparable samples"
    return _report("ode_oracle", branch.case.value, tol, devs,
                   details=details)


def slope_invariant(branch: ProfileBranch) -> float:
    """Max |du - uprime(alpha)| over the table: internal consistency.

    NaN when a point's deviation is not finite: no maximum bounds the
    table then.
    """
    with np.errstate(all="ignore"):
        dev = np.abs(branch.du - branch.uprime(branch.alpha))
    return float(dev.max()) if np.isfinite(dev).all() else math.nan
