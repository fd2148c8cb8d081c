"""Independent numeric verification of constructed profile branches.

Three checks with different failure modes:

* ``residual_scan`` evaluates the curvature relation k1 + lam*k2 = mu
  pointwise from the sampled profile, switching to the inverse chart when
  the slope is large so the finite differences stay conditioned.
* ``first_integral_drift`` measures the constancy of the conserved
  quantity along the branch, which is exact in the closed forms.
* ``ode_oracle`` re-integrates the profile equation as an initial value
  problem with an off-the-shelf high-order solver and compares tables.

Each check returns a versioned, JSON-serializable report rather than a
bare boolean so the CLI can surface the evidence.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .normgeom import (
    Chart,
    NormParameter,
    ProfileJet,
    axis_jet_from_radius_jet,
    principal_curvatures,
    oriented_radius_chart_curvatures,
    signed_odd_root_pow,
)
from .quadrature import EndpointKind
from .solver import ProfileBranch, RelationForm

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

_SINGULAR_KINDS = (EndpointKind.SIMPLE_ROOT, EndpointKind.DOUBLE_ROOT,
                   EndpointKind.AXIS_ZERO)


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
        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            if isinstance(x, (np.floating, np.integer)):
                return float(x)
            if isinstance(x, np.bool_):
                return bool(x)
            return x

        return {
            "version": self.version,
            "kind": self.kind,
            "case": self.case,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "n_points": int(self.n_points),
            "max_residual": float(self.max_residual),
            "median_residual": float(self.median_residual),
            "rms_residual": float(self.rms_residual),
            "excluded_zones": clean(self.excluded_zones),
            "excluded_fraction": float(self.excluded_fraction),
            "edge_growth": bool(self.edge_growth),
            "details": clean(self.details),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


# ---------------------------------------------------------------------------
# helpers


def _physical_mu(branch: ProfileBranch) -> float:
    return branch.mu / branch.scale


def _domain_bounds(branch: ProfileBranch) -> tuple:
    lo = branch.domain.lower
    hi = min(branch.domain.upper, float(branch.alpha[-1]))
    return lo, hi


def _scan_mask(branch: ProfileBranch, exclusion: float) -> np.ndarray:
    """Interior sample mask, excluding zones near singular endpoints."""
    lo, hi = _domain_bounds(branch)
    width = hi - lo
    a = branch.alpha
    mask = np.ones(a.shape, dtype=bool)
    if branch.domain.lower_kind in _SINGULAR_KINDS:
        mask &= a - lo > exclusion * width
    else:
        mask &= a - lo > 1e-9 * width
    if branch.domain.upper_kind in _SINGULAR_KINDS or not branch.domain.bounded:
        mask &= hi - a > exclusion * width
    else:
        mask &= hi - a > 1e-9 * width
    return mask


def _fd_jet_exact(branch: ProfileBranch, a: float) -> tuple:
    """(u', u'') from the closed-form slope via a central 5-point stencil.

    The step shrinks with the distance to the nearest endpoint because the
    higher derivatives of the slope grow algebraically at simple roots.
    """
    lo, hi = _domain_bounds(branch)
    dist = min(a - lo, hi - a)
    h = max(1e-6, 1e-4 * min(max(1.0, abs(a)), dist))
    h = min(h, 0.25 * dist)
    return branch.uprime(a), branch.fd_second(a, h)


def _relation_residual(p: NormParameter, a: float, d1: float, d2: float,
                       lam: float, mu: float) -> float:
    if math.isinf(lam):
        # constant-k2 relation: the residual is |k2 - mu| directly
        k = oriented_radius_chart_curvatures(p, a, d1, d2)
        return abs(k.k2 - mu)
    if abs(d1) <= CHART_SWITCH_SLOPE:
        k = oriented_radius_chart_curvatures(p, a, d1, d2)
    else:
        # inverse chart: alpha as a function of u stays flat where u' blows up
        k = principal_curvatures(p, axis_jet_from_radius_jet(
            ProfileJet(Chart.GRAPH_OVER_RADIUS, value=0.0, d1=d1, d2=d2,
                       radius=a)))
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


# ---------------------------------------------------------------------------
# checks


def _exclusion_zones(branch: ProfileBranch, epsilon: float) -> list:
    lo, hi = _domain_bounds(branch)
    width = hi - lo
    zones = []
    if branch.domain.lower_kind in _SINGULAR_KINDS:
        zones.append(((lo, lo + epsilon * width),
                      f"{branch.domain.lower_kind.value} endpoint"))
    if branch.domain.upper_kind in _SINGULAR_KINDS or not branch.domain.bounded:
        zones.append(((hi - epsilon * width, hi),
                      f"{branch.domain.upper_kind.value} endpoint"))
    return zones


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
    lam, mu = branch.lam, _physical_mu(branch)
    mask = _scan_mask(branch, epsilon)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("exclusion zones removed every sample point")

    alphas, residuals = [], []
    for i in idx:
        a = float(branch.alpha[i])
        d1, d2 = _fd_jet_exact(branch, a)
        if d1 == 0.0:
            continue
        residuals.append(_relation_residual(p, a, d1, d2, lam, mu))
        alphas.append(a)
    alphas = np.array(alphas)
    residuals = np.array(residuals)
    max_res = float(np.max(residuals))
    report = VerificationReport(
        kind="residual_scan", case=branch.case.value,
        passed=max_res < tol, tolerance=tol, n_points=len(residuals),
        max_residual=max_res, median_residual=float(np.median(residuals)),
        rms_residual=float(np.sqrt(np.mean(residuals ** 2))),
        excluded_zones=_exclusion_zones(branch, epsilon),
        excluded_fraction=1.0 - len(residuals) / len(branch.alpha),
        edge_growth=_edge_growth(alphas, residuals),
        details={"lam": lam, "mu": mu, "m": p.m, "epsilon": epsilon,
                 "slope_source": "closed_form",
                 "chart_switch_slope": CHART_SWITCH_SLOPE})
    return report


def residual_scan_table(p: NormParameter, alpha: np.ndarray, u: np.ndarray,
                        du: np.ndarray, lam: float, mu: float,
                        epsilon: float = 1e-3, tol: float = 1e-6,
                        slope_floor: float = 1e-2,
                        slope_cap: float = 100.0) -> VerificationReport:
    """Residual scan over a bare (alpha, u, du) table, e.g. a loaded CSV.

    The relation is checked through its divergence form: with W the
    normal-angle function of the slope, k1 = -dW/dalpha and
    k2 = -W/alpha, so the residual is |W' + lam*W/alpha + mu|.  This
    avoids differentiating du itself, whose second derivative is
    ill-conditioned where the slope vanishes.  W' is estimated as the
    closest of four local polynomial fits (degree 4 and 6, in alpha and
    in log alpha); the log coordinate resolves the fractional powers of
    alpha that graded grids produce near the axis.  Points with |du|
    outside [slope_floor, slope_cap] are excluded because the radius
    chart degenerates at caps and roots.
    """
    alpha = np.asarray(alpha, dtype=float)
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    if alpha.ndim != 1 or alpha.shape != u.shape or alpha.shape != du.shape:
        raise ValueError("alpha, u, du must be 1-d arrays of equal length")
    if len(alpha) < 32:
        raise ValueError("residual scan needs at least 32 samples")
    steps = np.diff(alpha)
    if np.all(steps < 0.0) or (np.all(steps <= 0.0) and np.any(steps < 0.0)):
        alpha, u, du = alpha[::-1], u[::-1], du[::-1]
        steps = np.diff(alpha)
    if np.any(steps < 0.0):
        raise ValueError("alpha must be monotone; verify assembled "
                         "profiles piece by piece")
    if np.any(steps == 0.0):
        # a rounded file can collapse near-identical grid points to ties
        keep = np.concatenate(([True], steps > 0.0))
        alpha, u, du = alpha[keep], u[keep], du[keep]
    if len(alpha) < 32:
        raise ValueError("residual scan needs at least 32 samples")
    if math.isinf(lam):
        # constant-k2 relation: k1 = k2 = mu, check k1 + k2 = 2*mu
        lam, mu = 1.0, 2.0 * mu
    lo, hi = float(alpha[0]), float(alpha[-1])
    width = hi - lo
    mask = ((alpha - lo > epsilon * width) & (hi - alpha > epsilon * width)
            & (np.abs(du) > slope_floor) & (np.abs(du) < slope_cap))
    idx = np.flatnonzero(mask)

    w_col = np.array([_W(p, float(d)) for d in du])
    npts, half = 7, 3
    polyfit = np.polynomial.polynomial.polyfit

    alphas, residuals = [], []
    for i in idx:
        a = float(alpha[i])
        j0 = max(0, min(int(i) - half, len(alpha) - npts))
        aw = alpha[j0:j0 + npts]
        ww = w_col[j0:j0 + npts]
        estimates = []
        with warnings.catch_warnings():
            # degree-6 fits on strongly graded windows are rank-deficient
            # in the trailing coefficients; the linear one stays usable
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            x = aw - a
            scale = np.max(np.abs(x))
            for deg in (4, 6):
                coef = polyfit(x / scale, ww, deg)
                estimates.append(float(coef[1] / scale))
            if aw[0] > 0.0:
                xl = np.log(aw / a)
                scale = np.max(np.abs(xl))
                for deg in (4, 6):
                    coef = polyfit(xl / scale, ww, deg)
                    estimates.append(float(coef[1] / scale) / a)
        target = lam * float(w_col[i]) / a + mu
        residuals.append(min(abs(wp + target) for wp in estimates))
        alphas.append(a)
    if not residuals:
        raise ValueError("exclusion zones removed every sample point")
    alphas = np.array(alphas)
    residuals = np.array(residuals)
    max_res = float(np.max(residuals))
    return VerificationReport(
        kind="residual_scan", case="table",
        passed=max_res < tol, tolerance=tol, n_points=len(residuals),
        max_residual=max_res, median_residual=float(np.median(residuals)),
        rms_residual=float(np.sqrt(np.mean(residuals ** 2))),
        excluded_zones=[((lo, lo + epsilon * width), "table edge"),
                        ((hi - epsilon * width, hi), "table edge")],
        excluded_fraction=1.0 - len(residuals) / len(alpha),
        edge_growth=_edge_growth(alphas, residuals),
        details={"lam": lam, "mu": mu, "m": p.m, "epsilon": epsilon,
                 "slope_source": "du_column",
                 "residual_form": "divergence",
                 "slope_window": [slope_floor, slope_cap],
                 "chart_switch_slope": CHART_SWITCH_SLOPE})


def _W(p: NormParameter, d1: float) -> float:
    """Conserved slope factor |u'|^(1/q) * (1 + |u'|^(2m/q))^(-1/2m)."""
    m, q = p.m, p.q
    s = abs(d1)
    return s ** (1.0 / q) * (1.0 + s ** (2 * m / q)) ** (-1.0 / (2 * m))


def first_integral_drift(branch: ProfileBranch,
                         tol: float = 1e-9) -> VerificationReport:
    """Constancy of the conserved quantity along the branch.

    The form depends on the relation: alpha^lam * W + (mu/(lam+1)) *
    alpha^(lam+1) in general, W/alpha + mu*log(alpha) for lam = -1, and
    alpha^lam * W alone in the homogeneous case.  Evaluated in normalized
    (|mu| = 1) coordinates and compared with the branch constant.
    """
    p = branch.request.p
    form = branch.request.relation.form
    lam, mu = branch.lam, branch.mu
    mask = _scan_mask(branch, 1e-3)
    a = branch.alpha[mask] / branch.scale
    d1 = branch.du[mask]

    if form is RelationForm.HOMOGENEOUS:
        vals = np.array([av ** lam * _W(p, dv) for av, dv in zip(a, d1)])
        expected = branch.request.c2 ** lam
    elif form is RelationForm.INHOM_LAMBDA_MINUS1:
        vals = np.array([_W(p, dv) / av + mu * math.log(av)
                         for av, dv in zip(a, d1)])
        expected = branch.request.c1
    elif form in (RelationForm.INHOM_GENERAL, RelationForm.K1_CONST):
        vals = np.array([av ** lam * _W(p, dv)
                         + mu / (lam + 1.0) * av ** (lam + 1.0)
                         for av, dv in zip(a, d1)])
        expected = branch.request.c1
    elif form is RelationForm.K2_CONST:
        vals = np.array([_W(p, dv) / av for av, dv in zip(a, d1)])
        expected = 1.0  # unit sphere: W/alpha = 1/radius
    else:
        raise ValueError(f"no first integral form for {form}")

    drift = np.abs(vals - expected)
    max_drift = float(np.max(drift))
    return VerificationReport(
        kind="first_integral", case=branch.case.value,
        passed=max_drift < tol, tolerance=tol, n_points=len(vals),
        max_residual=max_drift, median_residual=float(np.median(drift)),
        details={"expected": expected, "form": form.value})


def _ode_rhs(p: NormParameter, lam: float, mu: float):
    """u'' solved from the oriented curvature relation k1 + lam*k2 = mu."""
    m, q = p.m, p.q

    def rhs(a: float, y: np.ndarray) -> list:
        d1 = y[1]
        A1 = signed_odd_root_pow(d1, 2 * m, q) + 1.0
        B = (A1 ** (-(2 * m + 1) / (2 * m))
             * signed_odd_root_pow(d1, -(2 * m - 2), q))
        k2_raw = (-(1.0 / a) * A1 ** (-1.0 / (2 * m))
                  * signed_odd_root_pow(d1, 1, q))
        s = 1.0 if d1 > 0.0 else -1.0
        d2 = -q * (s * mu - lam * k2_raw) / B
        return [d1, d2]

    return rhs


def ode_oracle(branch: ProfileBranch, tol: float = 1e-7,
               rtol: float = 1e-10, slope_cap: float = 100.0,
               slope_floor: float = 1e-2,
               fi_precondition: float = 1e-10) -> VerificationReport:
    """Re-integrates the profile equation and compares with the table.

    Starts from a mid-branch anchor whose first-integral residual must
    already be below ``fi_precondition`` (the oracle refuses to launch
    from inconsistent data).  Integration runs outward in both directions
    and truncates with a recorded reason when the slope blows up, the
    slope crosses zero near a cap, or the axis is approached.  The
    deviation is measured as |delta alpha|: the integrated point is mapped
    back through the monotone table u -> alpha.  Points outside the slope
    window [slope_floor, slope_cap] are excluded because the alpha chart
    degenerates at both ends (u' -> 0 at caps, u' -> inf at roots).
    """
    p = branch.request.p
    lam, mu = branch.lam, _physical_mu(branch)
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
    if fi.median_residual > fi_precondition:
        raise ValueError(
            f"first-integral residual {fi.median_residual:.3e} at the anchor "
            f"exceeds the oracle precondition {fi_precondition:.1e}")

    rhs = _ode_rhs(p, lam, mu)

    def blowup(a, y):
        return slope_cap - abs(y[1])

    blowup.terminal = True

    def flat(a, y):
        return y[1]

    flat.terminal = True
    lo, hi = _domain_bounds(branch)
    width = hi - lo
    margin = 1e-9 * width

    # monotone inversion u -> alpha for the delta-alpha metric
    u_tab = branch.u
    a_tab = branch.alpha
    if u_tab[-1] < u_tab[0]:
        u_tab, a_tab = u_tab[::-1], a_tab[::-1]

    def alpha_of_u(uval: float) -> float | None:
        if not (u_tab[0] <= uval <= u_tab[-1]):
            return None
        return float(np.interp(uval, u_tab, a_tab))

    truncations = []
    devs = []
    n_compared = 0
    for direction in (+1, -1):
        if direction == +1:
            end = hi - margin
            if branch.domain.upper_kind is EndpointKind.SMOOTH_CAP:
                end = hi
            sel = branch.alpha > a0
        else:
            end = lo + margin
            if branch.domain.lower_kind is EndpointKind.AXIS_ZERO:
                end = lo + max(1e-8, 1e-6 * width)
            sel = branch.alpha < a0
        if abs(end - a0) < 2 * margin:
            continue
        events = [blowup]
        # only treat u' = 0 as terminal when heading into a smooth cap,
        # otherwise a flat anchor start would stop immediately
        kind = (branch.domain.upper_kind if direction == +1
                else branch.domain.lower_kind)
        if kind in (EndpointKind.SMOOTH_CAP, EndpointKind.AXIS_ZERO):
            events.append(flat)
        t_eval = np.sort(branch.alpha[sel])
        if direction == -1:
            t_eval = t_eval[::-1]
        t_eval = t_eval[np.abs(t_eval - a0) <= abs(end - a0)]
        sol = solve_ivp(rhs, (a0, end), [u0, d10], method="DOP853",
                        rtol=rtol, atol=1e-12, events=events,
                        t_eval=t_eval if len(t_eval) else None,
                        dense_output=False)
        if not sol.success and sol.status != 1:
            raise RuntimeError(f"oracle integration failed: {sol.message}")
        if sol.status == 1:
            reason = "slope_blowup" if len(sol.t_events[0]) else "flat_slope"
            truncations.append({"direction": direction, "reason": reason,
                                "alpha": float(sol.t[-1]) if len(sol.t)
                                else a0})
        elif kind is EndpointKind.AXIS_ZERO and direction == -1:
            truncations.append({"direction": direction, "reason": "axis",
                                "alpha": float(end)})
        for t, uval, dval in zip(sol.t, sol.y[0], sol.y[1]):
            if not slope_floor <= abs(dval) <= slope_cap:
                continue
            a_back = alpha_of_u(uval)
            if a_back is None:
                continue
            devs.append(abs(a_back - t))
            n_compared += 1

    if not devs:
        raise RuntimeError("oracle produced no comparable samples")
    devs = np.array(devs)
    max_dev = float(np.max(devs))
    return VerificationReport(
        kind="ode_oracle", case=branch.case.value,
        passed=max_dev < tol, tolerance=tol, n_points=n_compared,
        max_residual=max_dev, median_residual=float(np.median(devs)),
        details={"anchor_alpha": a0, "rtol": rtol,
                 "truncations": truncations,
                 "first_integral_at_anchor": fi.median_residual})


def slope_invariant(branch: ProfileBranch) -> float:
    """Max |du - uprime(alpha)| over the table: internal consistency."""
    vals = [abs(float(d) - branch.uprime(float(a)))
            for a, d in zip(branch.alpha, branch.du)]
    return max(vals)
