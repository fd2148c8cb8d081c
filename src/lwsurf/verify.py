"""Independent numeric verification of constructed profile branches.

Three checks of a branch, with different failure modes:

* ``residual_scan`` evaluates the curvature relation k1 + lam*k2 = mu
  pointwise from the sampled profile, in the graph-over-radius chart at
  every slope.
* ``first_integral_drift`` measures the constancy of the first integral
  along the branch against the branch's known constant.
* ``ode_oracle`` re-integrates the profile equation as an initial value
  problem and compares tables.  It steps scipy's DOP853 (Dormand-Prince
  8(5,3), with the bits of ``scipy.integrate.DOP853``'s coefficients) on
  two Python floats, with solve_ivp's step rules, dense output and
  events, and does not import scipy.  The stages are straight-line float
  code generated from the tableau on the oracle's first call, with the
  relation's u'' written inline in each, and u is carried but never read:
  the relation gives u'' from (alpha, u') alone.  A stage where Python
  floats raise (u' = 0, alpha = 0) is evaluated again by the scalar
  right-hand side, which gives the IEEE value.  The sums leave out the
  tableau's zero terms, which change nothing in a step that is accepted,
  but the zero that E3 and E5 put on the last stage: it fails a step
  whose end slope is not finite, as in scipy.

``residual_scan_table`` checks a bare table, such as a CSV that ``lwsurf
verify`` reads: the same first integral on every row, from the alpha and
du columns, against the median over the rows.  Both first-integral checks
are one residual, relative to the size of the integral's terms
(``_first_integral_check``); their default tolerances are 1e-13 for a
branch at full precision and TABLE_TOL for a CSV's 14 digits.

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
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .normgeom import (
    _EXPONENTS,
    _NORMAL_ANGLE,
    NormParameter,
    _exponents,
    normal_angle,
    oriented_radius_chart_curvatures,
)
from .quadrature import (
    _SINGULAR_KINDS,
    EndpointKind,
    _brent,
    as_libm,
    log,
    sorted_unique,
)
from .solver import ProfileBranch, WeingartenRelation, fd_step

__all__ = [
    "REPORT_VERSION",
    "VerificationReport",
    "residual_scan",
    "residual_scan_table",
    "first_integral_drift",
    "ode_oracle",
]

REPORT_VERSION = "1"

# the |u'| range ode_oracle compares in
SLOPE_WINDOW = (1e-2, 100.0)
# residual_scan_table's tolerance: on CSV round trips of every taxonomy
# branch at m = 1..6 and of every readable sweep branch at seeds 401-410
# the largest residual is 2.7e-13
TABLE_TOL = 1e-11
ORACLE_RTOL = 1e-10  # the oracle's relative step tolerance


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

    The steps are ``fd_step``'s on (lo, hi), with its default floor.
    All stencils are evaluated at once by the array slope; a value it
    leaves non-finite stays so, and fails the scan.
    """
    with np.errstate(all="ignore"):
        return branch.uprime(a), branch.fd_second(a, fd_step(a, lo, hi))


def _relation_residual(p: NormParameter, a, d1, d2, lam: float, mu: float):
    """|k1 + lam*k2 - mu| from the graph-over-radius jet (d1, d2) at
    radius a: floats, or float arrays with the floats' bits.

    Every slope uses the oriented radius chart: d2 is a stencil in alpha,
    so no finite difference depends on the chart, and the inverse
    graph-over-axis jet (1/d1, -d2/d1^3) gives the same curvatures to
    4.7e-15 relative over 200,000 random jets (m = 1..6, |d1| from 1e-3 to
    1e8, both signs).
    """
    k = oriented_radius_chart_curvatures(p, a, d1, d2)
    if math.isinf(lam):
        # constant-k2 relation: the residual is |k2 - mu| directly
        return abs(k.k2 - mu)
    return abs(k.k1 + lam * k.k2 - mu)


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


def _median(x) -> np.float64:
    """np.median of a non-empty 1-d float array, with its bits: partition
    at numpy's kth plus -1; a NaN at the end is the median, and otherwise
    the mean of the middle one or two elements.  np.median's NaN check
    imports numpy.ma on its first call on numpy 2.x, to ask whether the
    partition is masked; lwsurf passes plain arrays."""
    a = np.asarray(x)
    half, odd = divmod(a.size, 2)
    kth = [half] if odd else [half - 1, half]
    part = np.partition(a, kth + [-1])
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[half - 1 + odd:half + 1])


def _report(kind: str, case: str, tol: float, residuals, alphas=None,
            **fields) -> VerificationReport:
    """The report whose verdict and statistics come from ``residuals``;
    no residual fails.  The residual scans also pass the ``alphas`` they
    scanned, for the rms residual and the edge-growth flag."""
    r = np.asarray(residuals, dtype=float)
    top = median = math.nan
    if r.size:
        top, median = float(np.max(r)), float(_median(r))
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
    The closed-form slope feeds a finite-difference stencil in alpha for
    the second derivative, and the rows of every slope take their
    curvatures from the graph-over-radius chart (``_relation_residual``);
    use residual_scan_table to check a bare table without the closed-form
    slope.
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
               "slope_source": "closed_form"}
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
    CSV: _first_integral_check on every row against the median over the
    rows, since a table does not carry its constant.

    Every row is checked but one on the axis, alpha = 0, where the terms
    are singular, so any table with 2 rows off the axis can be checked:
    unlike residual_scan's finite differences, the median needs no
    window of neighbouring rows.  The check reads alpha and du only: u is
    validated for shape, not compared, so an offset u column passes.
    ``tol`` must be finite and >= 0, as a SolveRequest's, and (lam, mu)
    the constants of a WeingartenRelation, which raises on any other.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    WeingartenRelation(lam, mu)
    alpha, u, du = (np.asarray(x, dtype=float) for x in (alpha, u, du))
    if alpha.ndim != 1 or alpha.shape != u.shape or alpha.shape != du.shape:
        raise ValueError("alpha, u, du must be 1-d arrays of equal length")
    steps = np.diff(alpha)
    if np.all(steps <= 0.0) and np.any(steps < 0.0):
        alpha, du = alpha[::-1], du[::-1]
    elif np.any(steps < 0.0):
        raise ValueError("alpha must be monotone; verify assembled "
                         "profiles piece by piece")
    lam, mu = _finite_relation(lam, mu)
    axis = alpha == 0.0
    alphas = alpha[~axis]
    if alphas.size < 2:  # a row compared with itself passes anything
        raise ValueError("a table needs at least 2 rows off the axis")
    residuals, constant = _first_integral_check(p, lam, mu, alphas,
                                                du[~axis])
    return _report(
        "residual_scan", "table", tol, residuals, alphas,
        excluded_zones=[((0.0, 0.0), "axis")] if axis.any() else [],
        excluded_fraction=float(np.mean(axis)),
        details={"lam": lam, "mu": mu, "m": p.m, "constant": constant,
                 "slope_source": "du_column",
                 "residual_form": "first_integral"})


def _finite_relation(lam: float, mu: float) -> tuple:
    """(lam, mu) with lam finite: the constant-k2 relation k2 = mu (lam =
    inf) becomes k1 + k2 = 2*mu, which its spheres satisfy (k1 = k2 = mu)
    with first-integral constant 0."""
    return (1.0, 2.0 * mu) if math.isinf(lam) else (lam, mu)


def _first_integral_check(p: NormParameter, lam: float, mu: float,
                          alpha: np.ndarray, du: np.ndarray,
                          constant: float | None = None) -> tuple:
    """``(residuals, constant)`` of the first integral t1 + t2 at the radii
    alpha and slopes du of a profile of k1 + lam*k2 = mu, lam finite.

    With W = W(|u'|) from ``normal_angle``, k1 = -dW/dalpha and
    k2 = -W/alpha, so t1 = alpha^lam * W and t2 = mu/(lam+1) *
    alpha^(lam+1) keep one sum: W/alpha and mu*log(alpha) at lam = -1,
    and t2 = 0 when mu = 0.  The sum is compared with ``constant``, or
    with its median over the points if None.  A point's residual is
    |t1 + t2 - constant| relative to |t1| + |t2|, or to its median over
    the points where that is larger: the terms reach 7e9 and cancel at
    lam < -1, and next to the axis of a profile whose constant is 0 they
    fall far below the typical point's.
    """
    with np.errstate(all="ignore"):
        a, w = as_libm(alpha), normal_angle(p)[0](abs(as_libm(du)))
        if mu == 0.0:
            t1, t2 = a ** lam * w, 0.0
        elif lam == -1.0:
            t1, t2 = w / a, mu * log(a)
        else:
            t1, t2 = a ** lam * w, mu / (lam + 1.0) * a ** (lam + 1.0)
        value, size = t1 + t2, np.abs(t1) + np.abs(t2)
        if not value.size:  # no point has a median
            return value, constant
        if constant is None:
            constant = float(_median(value))
        return (np.abs(value - constant)
                / np.maximum(size, _median(size))), constant


def first_integral_drift(branch: ProfileBranch,
                         tol: float = 1e-13) -> VerificationReport:
    """Constancy of the first integral along the branch.

    _first_integral_check over the scan frame, in normalized (|mu| = 1)
    coordinates, against the known constant, so a table built on a wrong
    one fails: c1, c2^lam if mu = 0, and 0 for the unit sphere of
    constant k2.  The default tol sits above the rounding floor: every
    taxonomy branch at m = 1..6 reads at most 9.4e-16, and every sweep
    branch at seeds 401-410 and 431-433 at most 3.0e-15.
    """
    req = branch.request
    lam, mu = _finite_relation(branch.lam, branch.mu)
    expected = (0.0 if math.isinf(branch.lam) else req.c2 ** lam
                if mu == 0.0 else req.c1)
    mask = _scan_frame(branch)[2]
    residuals, _ = _first_integral_check(
        req.p, lam, mu, branch.alpha[mask] / branch.scale, branch.du[mask],
        expected)
    return _report("first_integral", branch.case.value, tol, residuals,
                   details={"expected": expected,
                            "form": req.relation.form.value})


# u'' at the radius {a} and the slope {v}, solved from the oriented
# curvature relation (``_ode_rhs``) with normgeom's lines for W and dW at
# s = |u'|; the last line sets {out}
_RELATION = "\n".join([
    "s = abs({v})", *_NORMAL_ANGLE,
    "{out} = -(sign * mu + lam * (1.0 / {a}) * (sign * w)) / dw"])


def _ode_rhs(p: NormParameter, lam: float, mu: float, s: float):
    """u'' solved from the oriented curvature relation k1 + lam*k2 = mu.

    ``f(a, u')`` returns u'' as a float.  The relation does not involve u,
    so the stepper carries u and never passes it.  The orientation ``s``,
    +1.0 or -1.0, is the sign of the start slope, held for the whole run
    since a monotone branch never changes it; the sign of each u' would
    flip u'' where a step's stages cross u' = 0 next to a smooth cap.
    With (W, dW) from ``normal_angle`` at |u'|, k1 = -dW*u'' and k2 =
    -(1/a)*(s*W), and s*(k1 + lam*k2) = mu gives u'' = -(s*mu +
    lam*(1/a)*(s*W))/dW, ``_RELATION``.  f, and the stages that
    ``_dop853`` runs for it with that relation inline (``f.stages``), are
    compiled from that one text, on the first call (``_stage_code``).
    Where Python floats raise, as 0.0 ** -x does at u' = 0 and 1.0 / 0.0
    at a = 0, f gives the IEEE value: it retries on numpy scalars.
    """
    return _stage_code()(lam, mu, s, **_exponents(p))


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


_LAST = len(_B)  # the step's last stage: its slope at the new point


def _sum_source(coefficients, k: str) -> str:
    """The source of ``0.0 + c0 * k0 + c1 * k1 + ...`` over the stages
    named k0, k1, ..., in the tableau's order, without the zero terms
    but those on stage ``_LAST``.

    Python adds left to right, so this is the sum ``builtins.sum`` gives
    on Python 3.11 (``0.0 + x`` equals ``0 + x`` for every float, -0.0
    included) and that its compensated form no longer gives from 3.12.
    The leading 0.0 turns a sum of -0.0 terms into +0.0, so no partial
    sum is -0.0, and adding a zero term ``0.0 * k``, +-0.0 for a finite
    stage, leaves every other sum as it is.  A zero term matters only on
    a stage that is not finite, where it is NaN.  In a step that is
    accepted, stages 0-11 are finite: one that is not makes the next
    stage's u' input infinite or NaN, u'' is NaN there, and so is every
    later stage and both error sums, which rejects the step.  Stage
    ``_LAST`` feeds no other stage, so the zero that E3 and E5 put on it
    stays: it makes a step whose end slope is not finite fail its error
    test, as in scipy.
    """
    return " + ".join(["0.0"] + [f"{c!r} * {k}{s}"
                                 for s, c in enumerate(coefficients)
                                 if c or s == _LAST])


def _stage_source() -> str:
    """The source of ``bind``, which binds one DOP853 step and its
    interpolant, written out from the tableau, to the relation.

    ``_RELATION`` gives the lines that set {out} to u'' at the radius {a}
    and the slope {v}.  Stage s of the pair (u, u') evaluates them at its
    u' input, named ``ku{s}`` because it is also the stage's slope of u;
    ``kv{s}`` is its value there.  The u inputs are never formed: u''
    does not read u.  Stages 0-12 are the step's, 13-15 the
    interpolant's extra ones.

    ``bind(lam, mu, sign, e_w, ...)``, which takes the exponents of
    normgeom's lines by name, returns ``_ode_rhs``'s scalar f, built from
    the same lines, with ``f.stages = (_step, _dense)``, whose stages have
    the relation inline.  A stage whose inline lines raise
    ZeroDivisionError or OverflowError on Python floats is evaluated
    again by f, which gives the IEEE value there; so each stage has f's
    bits.
    """
    def indent(lines) -> list:
        return ["    " + x if x else x for x in lines]

    def value(s: int, a: str) -> list:
        """The lines that set kv{s} to u'' at the radius a and ku{s}."""
        lines = _RELATION.format(out=f"kv{s}", a=f"({a})",
                                 v=f"ku{s}").split("\n")
        return ["try:", *indent(lines),
                "except (ZeroDivisionError, OverflowError):",
                f"    kv{s} = f({a}, ku{s})"]

    def stage(s: int, v: str, a: str, c) -> list:
        return [f"ku{s} = {v} + ({_sum_source(a, 'kv')}) * h",
                *value(s, f"t + {c!r} * h")]

    last = _LAST
    ku = ", ".join(f"ku{s}" for s in range(last + 1))
    kv = ", ".join(f"kv{s}" for s in range(last + 1))
    errors = ", ".join(_sum_source(e, k) for e in (_E5, _E3)
                       for k in ("ku", "kv"))
    step = ["ku0 = v"]
    for s, (a, c) in enumerate(zip(_A, _C), 1):
        step += stage(s, "v", a, c)
    step += [f"u_new = u + h * ({_sum_source(_B, 'ku')})",
             f"ku{last} = v + h * ({_sum_source(_B, 'kv')})",
             *value(last, "t + h"),
             f"return u_new, ku{last}, {errors}, ({ku}), ({kv})"]
    dense = [f"{ku} = ku", f"{kv} = kv"]
    for s, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), last + 1):
        dense += stage(s, "v_old", a, c)
    for y, k in (("u", "ku"), ("v", "kv")):
        dense += [f"c{y}0 = {y} - {y}_old",
                  f"c{y}1 = h * {k}0 - c{y}0",
                  f"c{y}2 = 2 * c{y}0 - h * ({k}{last} + {k}0)"]
        dense += [f"c{y}{j} = h * ({_sum_source(d, k)})"
                  for j, d in enumerate(_D, 3)]
    horner = ("((((((c{0}6 * x + c{0}5) * x1 + c{0}4) * x + c{0}3) * x1"
              " + c{0}2) * x + c{0}1) * x1 + c{0}0) * x + {0}_old")
    dense += ["",
              "def at(t_out):",
              "    x = (t_out - t) / h",
              "    x1 = 1 - x",
              f"    return ({horner.format('u')},",
              f"            {horner.format('v')})",
              "",
              "return at"]
    lines = _RELATION.format(out="u2", a="a", v="v").split("\n")
    head = [f"def bind(lam, mu, sign, {', '.join(_EXPONENTS)}):",
            *indent(["def f(a, v):",
                     "    try:",
                     *indent(indent(lines)),
                     "        return u2",
                     "    except (ZeroDivisionError, OverflowError):",
                     "        with np.errstate(all='ignore'):",
                     "            return float(f(np.float64(a), "
                     "np.float64(v)))",
                     ""])]
    body = ["def _step(t, h, u, v, kv0):", *indent(step), "",
            "def _dense(t, h, u_old, v_old, u, v, ku, kv):", *indent(dense),
            "", "f.stages = _step, _dense", "return f"]
    return "\n".join(head + indent(body)) + "\n"


@functools.cache
def _stage_code():
    """``bind`` compiled from ``_stage_source()``, once, when the oracle
    first binds its relation.  Importing lwsurf does not compile it.

    ``_step(t, h, u, v, f(t, v))`` takes one DOP853 step and returns
    ``(u_new, v_new, e5_u, e5_v, e3_u, e3_v, ku, kv)``: the 8th-order
    solution, the E5 and E3 error sums of each component, and the 13
    stage slopes of each; ``kv[12]`` is f at the new point.
    ``_dense(t, h, u_old, v_old, u, v, ku, kv)`` runs the three extra
    stages and returns ``at(t) -> (u, u')``, the step's 7th-order
    interpolant.  Both follow scipy's formulas, with every sum added left
    to right (``_sum_source``).
    """
    namespace = {"np": np}
    exec(compile(_stage_source(), "<dop853 stages>", "exec"), namespace)
    return namespace["bind"]


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


def _dop853(f, t0: float, y0: tuple, t_bound: float, t_eval, events,
            rtol: float, atol: float) -> _Trajectory:
    """Integrate u'' = f(t, u') for y = (u, u') from t0 to t_bound.

    Runs scipy's DOP853 as ``solve_ivp`` does on y' = (u', f(t, u')), on
    two Python floats: the initial step, the 5/3 blended error norm, the
    step controller and the 7th-order dense output follow scipy's code.
    f is ``_ode_rhs``'s, and brings its stages as straight-line code with
    the relation inline, ``f.stages`` (``_stage_code``).  u is carried and
    never passed to f.  The sums leave out the zero terms on stages 0-11,
    which keeps the bits of the full sums, since f gives NaN at a u' that
    is not finite (``_sum_source``).  ``rhs_evals`` counts the
    evaluations of f, as scipy's ``nfev`` counts those of y'.  ``t_eval``
    lists the output points in the direction of integration.  ``events``
    are ``(g, direction)`` pairs, all terminal: g(t, y) changing sign over
    a step in the given direction (0 for either) stops the run at the
    root of g on the dense output.  The loops keep their state in local
    variables.
    """
    step, dense_output = f.stages
    direction = 1.0 if t_bound >= t0 else -1.0
    t, (u, v) = t0, y0
    fv = f(t, v)

    # initial step (scipy's select_initial_step); the slope of u is v
    interval = abs(t_bound - t0)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(u / su, v / sv), _rms(v / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    hd = h0 * direction
    v1 = v + hd * fv
    f1v = f(t + hd, v1)
    d2 = _rms((v1 - v) / su, (f1v - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100 * h0, h1, interval)

    run = _Trajectory()
    out_t, out_u, out_du = run.t, run.u, run.du
    hypot, sqrt = math.hypot, math.sqrt
    far = direction * math.inf
    steps = rejected_steps = dense_steps = i_eval = 0
    n_eval = len(t_eval)
    g = [ev(t, (u, v)) for ev, _ in events]
    while True:
        min_step = 10 * abs(math.nextafter(t, far) - t)
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
            u_new, v_new, e5u, e5v, e3u, e3v, ku, kv = step(t, h, u, v, fv)
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5 = hypot(e5u / su, e5v / sv) ** 2
            e3 = hypot(e3u / su, e3v / sv) ** 2
            if e5 == 0.0 and e3 == 0.0:
                error = 0.0
            else:
                error = h_abs * e5 / sqrt((e5 + 0.01 * e3) * 2)
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
            rejected_steps += 1
        steps += 1
        t_old, u_old, v_old = t, u, v
        t, u, v, fv = t_new, u_new, v_new, kv[-1]
        finished = direction * (t - t_bound) >= 0
        active = []
        y = (u, v)
        for k, (ev, d) in enumerate(events):
            g_old, g[k] = g[k], ev(t, y)
            if ((d >= 0 and g_old <= 0 <= g[k])
                    or (d <= 0 and g_old >= 0 >= g[k])):
                active.append(k)
        if active or (i_eval < n_eval
                      and direction * (t_eval[i_eval] - t) <= 0):
            dense = dense_output(t_old, h, u_old, v_old, u, v, ku, kv)
            dense_steps += 1
        if active:
            roots = [(_brent(lambda s, ev=events[k][0]: ev(s, dense(s)),
                             t_old, t, _EVENT_XTOL, _EVENT_XTOL), k)
                     for k in active]
            t, run.event = min(roots, key=lambda r: direction * r[0])
            run.t_event = t
            u, v = dense(t)
        while i_eval < n_eval and direction * (t_eval[i_eval] - t) <= 0:
            s = t_eval[i_eval]
            us, vs = dense(s)
            out_t.append(s)
            out_u.append(us)
            out_du.append(vs)
            i_eval += 1
        if finished or run.event is not None:
            run.steps, run.rejected_steps = steps, rejected_steps
            run.rhs_evals = (2 + 12 * (steps + rejected_steps)
                             + 3 * dense_steps)
            return run


def ode_oracle(branch: ProfileBranch, tol: float = 1e-7) -> VerificationReport:
    """Re-integrates the profile equation and compares with the table.

    Starts from the middle table row.  The median first-integral residual
    over the whole branch (first_integral_drift's) must already be below
    first_integral_drift's default tolerance: the oracle refuses to launch
    from inconsistent data.  The deviation is measured as |delta alpha|:
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
    # physical relation: k1 + lam*k2 = mu_phys with mu_phys = mu/scale
    lam, mu = _finite_relation(branch.lam, branch.mu / branch.scale)
    fi = first_integral_drift(branch)
    slope_floor, slope_cap = SLOPE_WINDOW
    anchor_idx = len(branch.alpha) // 2
    a0 = float(branch.alpha[anchor_idx])
    u0 = float(branch.u[anchor_idx])
    d10 = float(branch.du[anchor_idx])
    if fi.median_residual > fi.tolerance:
        raise ValueError(
            f"median first-integral residual {fi.median_residual:.3e} over "
            f"the branch exceeds the oracle precondition {fi.tolerance:.1e}")

    f = _ode_rhs(p, lam, mu, 1.0 if d10 > 0.0 else -1.0)
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
        ahead = sorted_unique(
            branch.alpha[direction * (branch.alpha - a0) > 0])
        t_eval = ahead[::direction]
        t_eval = t_eval[np.abs(t_eval - a0) <= abs(end - a0)]
        run = _dop853(f, a0, (u0, d10), end, t_eval.tolist(), events,
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
