"""Verification layer: residual scans, conserved quantity, ODE oracle."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwsurf import (
    NormParameter,
    SolveRequest,
    VerificationReport,
    WeingartenRelation,
    first_integral_drift,
    ode_oracle,
    residual_scan,
    residual_scan_table,
    solve,
    solve_constant_k1,
    solve_constant_k2,
    solve_homogeneous,
    solve_inhom_general,
)
from conftest import crit_mid, instances
from lwsurf import verify
from lwsurf.cli import read_profile_csv, write_profile_csv


P2 = NormParameter(2)


@pytest.fixture(scope="module")
def sphere():
    return solve_constant_k2(P2, samples=128)


@pytest.fixture(scope="module")
def generic():
    return solve_inhom_general(P2, 0.5, 1.0, 0.8, samples=128)[0]


def csv_round_trip(branch, tmp_path) -> tuple:
    """(alpha, u, du) of the branch as lwsurf generate writes and lwsurf
    verify reads them: 14 significant digits."""
    path = str(tmp_path / "profile.csv")
    write_profile_csv(path, branch.alpha, branch.u, branch.du)
    return read_profile_csv(path)


class TestResidualScan:
    def test_sphere_passes(self, sphere):
        rep = residual_scan(sphere)
        assert rep.passed
        assert rep.max_residual < 1e-6
        assert not rep.edge_growth

    def test_generic_passes_both_routes(self, generic):
        exact = residual_scan(generic)
        table = residual_scan_table(
            P2, generic.alpha, generic.u, generic.du,
            generic.lam, generic.mu / generic.scale)
        assert exact.passed
        assert table.passed

    def test_statistics_are_ordered(self, generic):
        rep = residual_scan(generic)
        assert rep.median_residual <= rep.rms_residual <= rep.max_residual

    def test_exclusion_zones_reported(self, sphere):
        rep = residual_scan(sphere, epsilon=1e-2)
        # the upper endpoint is a simple root; the lower is the axis;
        # the graded grid concentrates points near both, so the excluded
        # fraction is large relative to epsilon
        assert len(rep.excluded_zones) == 2
        assert 0.0 < rep.excluded_fraction < 1.0

    def test_tolerance_controls_verdict(self, generic):
        rep = residual_scan(generic, tol=1e-18)
        assert not rep.passed

    def test_too_few_samples_rejected(self):
        b = solve_constant_k2(P2, samples=16)
        with pytest.raises(ValueError):
            residual_scan(b)

    def test_no_nonzero_slope_gives_failed_report(self):
        """A sweep draw (seed 405) whose 6.3iii-1 domain ends at 2.9e-46:
        the slope underflows to 0 at every scanned point, and the scan
        reports a failure instead of raising."""
        req = SolveRequest(
            p=NormParameter(5),
            relation=WeingartenRelation(-0.9676349260580417,
                                        2.263783851459214),
            c1=1.065926470183868)
        (b,) = solve(req)
        assert b.case.value == "6.3iii-1" and b.domain.upper < 1e-45
        rep = residual_scan(b)
        assert not rep.passed
        assert rep.n_points == 0 and rep.excluded_fraction == 1.0
        assert rep.details["reason"] == "no scanned point has a nonzero slope"
        assert math.isnan(rep.max_residual)
        assert json.loads(rep.to_json())["passed"] is False

    def test_no_point_left_gives_failed_report(self, generic):
        rep = residual_scan(generic, epsilon=1.0)
        assert not rep.passed
        assert rep.n_points == 0 and rep.excluded_fraction == 1.0
        assert rep.details["reason"] == (
            "exclusion zones removed every sample point")
        assert math.isnan(rep.max_residual)

    def test_wrong_relation_fails(self, generic):
        # scanning the table against a different relation must fail
        # loudly: the first integral's relative residual reaches 0.89
        rep = residual_scan_table(
            P2, generic.alpha, generic.u, generic.du, lam=0.5, mu=-1.0)
        assert not rep.passed
        assert rep.max_residual > 0.5

    def test_narrow_domain_step_follows_the_distance(self):
        """A 6.3i band of width 0.059 whose scanned rows lie down to
        6.2e-5 from its simple root.  A fixed step of 1e-6 is 1/60 of that
        distance, and the stencil's h^4 error failed the scan there at
        1.3e-5.  With the step shrinking with the distance the scan
        passes with a hundredfold margin, and against a relation whose mu
        is off by 1e-5 of itself it still fails."""
        req = SolveRequest(
            p=P2, relation=WeingartenRelation(1.82372283242643,
                                              4.374456136843154),
            c1=0.02295669838045722)
        branch, = solve(req)
        assert branch.case.value == "6.3i"
        rep = residual_scan(branch)
        assert rep.passed and rep.max_residual < 1e-7, rep.max_residual
        off = dataclasses.replace(branch, request=dataclasses.replace(
            req, relation=WeingartenRelation(
                branch.lam, branch.mu * (1.0 + 1e-5))))
        rep = residual_scan(off)
        assert not rep.passed and rep.max_residual > 1e-5


class TestResidualScanTable:
    def test_round_trip_matches_direct_scan(self, generic):
        rep = residual_scan_table(
            P2, generic.alpha, generic.u, generic.du,
            generic.lam, generic.mu / generic.scale)
        assert rep.passed, rep.max_residual
        assert rep.case == "table"
        assert rep.details["slope_source"] == "du_column"

    def test_decreasing_alpha_is_reversed(self, generic):
        args = (generic.lam, generic.mu / generic.scale)
        forward = residual_scan_table(P2, generic.alpha, generic.u,
                                      generic.du, *args)
        backward = residual_scan_table(P2, generic.alpha[::-1],
                                       generic.u[::-1], generic.du[::-1],
                                       *args)
        assert backward.as_dict() == forward.as_dict()

    def test_non_monotone_alpha_rejected(self, generic):
        order = np.arange(len(generic.alpha))
        order[[40, 41]] = order[[41, 40]]
        with pytest.raises(ValueError, match="alpha must be monotone"):
            residual_scan_table(P2, generic.alpha[order], generic.u[order],
                                generic.du[order], generic.lam,
                                generic.mu / generic.scale)

    @pytest.mark.parametrize("which", ["generic", "m1_sphere"])
    def test_every_row_of_a_csv_is_checked(self, which, generic, tmp_path):
        """Also on the m = 1 sphere, whose constant is 0: next to the axis
        its terms are 1e-12, and against them alone the median's rounding
        read 4e-10."""
        b = generic if which == "generic" else solve_constant_k2(
            NormParameter(1))
        alpha, u, du = csv_round_trip(b, tmp_path)
        rep = residual_scan_table(b.request.p, alpha, u, du, b.lam,
                                  b.mu / b.scale)
        assert rep.passed, rep.max_residual
        assert rep.n_points == len(alpha)
        assert rep.excluded_fraction == 0.0 and rep.excluded_zones == []

    def test_a_row_on_the_axis_is_excluded(self):
        """A sweep draw (seed 409) whose 6.3iv-3 table starts at a smooth
        cap on alpha = 0, where the first integral's terms are 0 * inf: that
        row is left out and reported, every other row is checked."""
        req = SolveRequest(
            p=NormParameter(6),
            relation=WeingartenRelation(-0.9971090282468014,
                                        -1.745293185482544),
            c1=-2.0513967321393913)
        (b,) = solve(req)
        assert b.case.value == "6.3iv-3" and b.alpha[0] == 0.0
        rep = residual_scan_table(req.p, b.alpha, b.u, b.du, b.lam,
                                  b.mu / b.scale)
        assert rep.passed, rep.max_residual
        assert rep.n_points == len(b.alpha) - 1
        assert rep.excluded_zones == [((0.0, 0.0), "axis")]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            residual_scan_table(P2, np.zeros(40), np.zeros(40),
                                np.zeros(39), 1.0, 0.0)
        with pytest.raises(ValueError, match="2 rows off the axis"):
            residual_scan_table(P2, np.zeros(8), np.zeros(8), np.zeros(8),
                                1.0, 0.0)
        with pytest.raises(ValueError, match="2 rows off the axis"):
            residual_scan_table(P2, np.array([0.0, 1.0]), np.zeros(2),
                                np.zeros(2), 1.0, 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, -math.inf])
    def test_tol_must_be_finite_and_nonnegative(self, generic, tol):
        # as a SolveRequest's tol: inf would pass every table, and nan or
        # a negative tol would fail every one
        with pytest.raises(ValueError,
                           match=f"tol must be finite and >= 0, got {tol}"):
            residual_scan_table(P2, generic.alpha, generic.u, generic.du,
                                generic.lam, generic.mu / generic.scale,
                                tol=tol)

    @pytest.mark.parametrize("lam, mu", [(math.nan, -2.0), (math.inf, 0.0),
                                         (-math.inf, -1.0), (1.0, math.inf),
                                         (1.0, math.nan)])
    def test_relation_must_be_a_weingarten_relation(self, generic, lam, mu):
        # nan made a NaN report, and (inf, 0) was checked as k1 + k2 = 0
        with pytest.raises(ValueError, match="must be finite"):
            residual_scan_table(P2, generic.alpha, generic.u, generic.du,
                                lam, mu)

    @pytest.mark.parametrize("n", [2, 3, 15])
    def test_a_short_table_is_checked(self, n):
        """A table of any length from 2 rows is checked against its median,
        and one slope off by 1e-6 still fails (at 8e-8 in 2 rows, and at
        7.7e-10 or more in 15, where rows near the root barely move W)."""
        req = SolveRequest(p=P2, relation=WeingartenRelation(-1.0, 1.0),
                           c1=1.5, samples=16)
        b = solve(req)[0]  # the piece lwsurf generate writes
        assert len(b.alpha) == 15
        alpha, u, du = b.alpha[:n], b.u[:n], b.du[:n]
        rep = residual_scan_table(P2, alpha, u, du, -1.0, 1.0)
        assert rep.passed and rep.n_points == n, rep.max_residual
        for i in range(n):
            bad = du.copy()
            bad[i] *= 1 + 1e-6
            rep = residual_scan_table(P2, alpha, u, bad, -1.0, 1.0)
            assert not rep.passed, (i, rep.max_residual)

    @pytest.mark.parametrize("m", [2, 3])
    def test_one_corrupted_slope_fails(self, m, tmp_path):
        """du[i] *= 1 + 1e-7 at one interior row fails the check, at the
        caps' flat slopes as well as the steep ones.  (Where |du| is in the
        hundreds W barely moves with du: at m = 3 the 6.1i-3-1 row with
        |du| = 649 passes.)"""
        for tag in ("5i-1", "6.1i-3-1", "6.3i"):
            b = instances(m)[tag]
            alpha, u, du = csv_round_trip(b, tmp_path)
            args = (NormParameter(m), alpha, u)
            relation = (b.lam, b.mu / b.scale)
            assert residual_scan_table(*args, du, *relation).passed, tag
            n = len(alpha)
            for i in range(n // 8, n - n // 8, n // 8):
                bad = du.copy()
                bad[i] *= 1 + 1e-7
                assert not residual_scan_table(*args, bad, *relation).passed, \
                    (tag, i, du[i])


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# the values that steer np.median: signed zeros, infinities and NaN
SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]


class TestMedian:
    """verify._median has the bits of np.median on 1-d float arrays, the
    NaN it returns included."""

    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_size_with_repeats_and_special_values(self, n):
        rng = np.random.default_rng(n)
        for trial in range(20):
            x = rng.normal(0.0, 1.0, n)
            if trial % 2:  # repeats
                x = rng.choice(x[: max(1, n // 3)], n)
            if trial % 4 >= 2:
                x[rng.random(n) < 0.3] = rng.choice(SPECIAL[:-1])
            if trial % 8 >= 4:
                x[rng.integers(n)] = math.nan
            with np.errstate(all="ignore"):
                assert same_bits(verify._median(x), np.median(x)), x

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)),
                    min_size=1, max_size=64))
    def test_any_floats(self, values):
        x = np.array(values, dtype=float)
        with np.errstate(all="ignore"):
            assert same_bits(verify._median(x), np.median(x))

    def test_the_input_is_not_reordered(self):
        x = np.array([3.0, 1.0, 2.0, math.nan])
        verify._median(x)
        assert x.tobytes() == np.array([3.0, 1.0, 2.0, math.nan]).tobytes()


class TestEdgeGrowthFlag:
    def test_flat_residuals_not_flagged(self):
        from lwsurf.verify import _edge_growth
        a = np.linspace(0.0, 1.0, 100)
        assert not _edge_growth(a, np.full(100, 1e-9))

    def test_growing_residuals_flagged(self):
        from lwsurf.verify import _edge_growth
        a = np.linspace(0.0, 1.0, 100)
        r = np.full(100, 1e-10)
        r[:10] = 1e-6
        assert _edge_growth(a, r)


class TestFirstIntegral:
    def test_sphere_form(self, sphere):
        # constant k2 = -1 is checked as k1 + k2 = -2, with constant 0
        rep = first_integral_drift(sphere)
        assert rep.passed
        assert rep.max_residual < 1e-8
        assert rep.details["expected"] == 0.0

    def test_homogeneous_form(self):
        b = solve_homogeneous(P2, 1.0, 1.5, samples=128)
        rep = first_integral_drift(b)
        assert rep.passed
        assert rep.details["expected"] == pytest.approx(1.5)

    def test_general_form(self, generic):
        rep = first_integral_drift(generic)
        assert rep.passed
        assert rep.max_residual < 1e-8

    @pytest.mark.parametrize("m, lam, mu, c1, tag", [
        (2, -3.772638459109661, 4.831494852110271, 3.8643697329420483,
         "6.3v-2"),
        (3, -3.838135505617009, 2.9584068937156593, -3.1848844964453473,
         "6.3v-3-1")])
    def test_cancelling_terms_at_lam_below_minus_one(self, m, lam, mu, c1,
                                                     tag):
        # sweep draws: the two terms reach 2e8 and 1e9 and cancel, so their
        # rounding alone is above an absolute 1e-9
        b, = [b for b in solve(SolveRequest(
            p=NormParameter(m), relation=WeingartenRelation(lam, mu),
            c1=c1)) if b.case.value == tag]
        rep = first_integral_drift(b)
        assert rep.passed, rep.max_residual
        # and the oracle's precondition, the same median, lets it start
        anchor = ode_oracle(b).details["first_integral_at_anchor"]
        assert anchor == rep.median_residual

    def test_shifted_constant_fails(self, instances_m2):
        # the residual is taken against the known constant c1, not the
        # median, so a table of one constant fails against its neighbour
        checked = 0
        for tag, b in instances_m2.items():
            req = b.request
            if math.isinf(b.lam) or b.mu == 0.0:
                continue
            assert first_integral_drift(b).passed, tag
            shifted = dataclasses.replace(
                b, request=dataclasses.replace(req, c1=req.c1 + 1e-9))
            assert not first_integral_drift(shifted).passed, tag
            checked += 1
        assert checked > 20

    def test_empty_scan_frame_fails_without_warnings(self):
        # two samples, both next to a singular end: no point to compare
        b = solve_inhom_general(P2, -2.0, 1.0, 0.3, samples=2)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = first_integral_drift(b)
        assert not rep.passed and rep.n_points == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_corrupted_slope_fails(self, m):
        # du *= 1 + 1e-9 at one seeded row of the scan frame; rows with
        # |du| > 10 are left out, where W(du) saturates
        rng = np.random.default_rng(26)
        for tag, b in instances(m).items():
            rows, = np.nonzero(verify._scan_frame(b)[2]
                               & (np.abs(b.du) <= 10.0))
            du = b.du.copy()
            du[rng.choice(rows)] *= 1.0 + 1e-9
            bad = dataclasses.replace(b, du=du)
            assert not first_integral_drift(bad).passed, tag


class TestOdeOracle:
    def test_tableau_has_scipys_bits(self):
        from scipy.integrate import DOP853 as M

        def row(x):
            return [float(v).hex() for v in x]

        def rows(x):
            return [[v.hex() for v in r] for r in x]

        n = M.n_stages
        assert rows(verify._A) == [row(M.A[s, :s]) for s in range(1, n)]
        assert rows(verify._D) == [row(d) for d in M.D]
        assert rows(verify._A_EXTRA) == [
            row(a[:n + 1 + k]) for k, a in enumerate(M.A_EXTRA)]
        for ours, theirs in ((verify._B, M.B), (verify._C, M.C[1:n]),
                             (verify._E3, M.E3), (verify._E5, M.E5),
                             (verify._C_EXTRA, M.C_EXTRA)):
            assert [v.hex() for v in ours] == row(theirs)

    def test_sphere(self, sphere):
        rep = ode_oracle(sphere)
        assert rep.passed
        assert rep.max_residual < 1e-6

    def test_generic(self, generic):
        rep = ode_oracle(generic)
        assert rep.passed
        assert rep.n_points > 10

    def test_truncation_recorded_at_simple_root(self, sphere):
        # integrating toward the equator the slope passes the cap and the
        # oracle must record why it stopped rather than fail
        rep = ode_oracle(sphere)
        reasons = {t["reason"] for t in rep.details["truncations"]}
        assert "slope_blowup" in reasons or "axis" in reasons

    def test_precondition_rejects_corrupted_table(self, generic):
        bad = dataclasses.replace(generic, du=generic.du * (1.0 + 1e-4))
        with pytest.raises(ValueError, match="precondition"):
            ode_oracle(bad)

    @pytest.mark.parametrize("tag", ["6.3i", "6.1i-1"])
    def test_stops_at_slope_floor(self, instances_m2, tag):
        # heading into a smooth cap or the axis the integration ends where
        # |u'| leaves the comparison window, not where u' crosses zero
        branch = instances_m2[tag]
        rep = ode_oracle(branch)
        floors = [t for t in rep.details["truncations"]
                  if t["reason"] == "slope_floor"]
        assert floors
        order = np.argsort(branch.alpha)
        for t in floors:
            du = np.interp(t["alpha"], branch.alpha[order],
                           np.abs(branch.du[order]))
            assert du == pytest.approx(1e-2, rel=1e-3)

    @pytest.mark.parametrize("mu, c1, tag", [(1.0, 2.0, "4iii-1"),
                                             (-1.0, -2.0, "4iii-2")])
    def test_starts_at_the_middle_row(self, mu, c1, tag):
        # the m = 6 arcs sample like every other table, so their middle row
        # is not crowded toward the root, where |u'| is above the cap
        branch = solve_constant_k1(NormParameter(6), mu, c1)
        assert branch.case.value == tag
        mid = len(branch.alpha) // 2
        assert abs(branch.du[mid]) <= verify.SLOPE_WINDOW[1]
        rep = ode_oracle(branch)
        assert rep.passed
        assert rep.details["anchor_alpha"] == branch.alpha[mid]
        assert rep.n_points > 100

    def test_repeated_alpha_in_rescaled_table(self):
        # the |mu| rescaling rounds two pairs of grid points to one alpha
        b = solve(SolveRequest(
            p=NormParameter(6), c1=-3.081271370571117,
            relation=WeingartenRelation(1.1828585412877528,
                                        -1.4725058400636137)))[0]
        assert len(np.unique(b.alpha)) < len(b.alpha)
        rep = ode_oracle(b)
        assert rep.passed
        assert rep.n_points > 10

    def test_axis_end_inside_tiny_domain(self):
        # the domain is 5.8e-10 wide: the axis end of the integration must
        # scale with it; the oracle then says it has nothing to compare
        # instead of failing inside scipy
        b = solve(SolveRequest(
            p=NormParameter(6), c1=1.9107808635661785,
            relation=WeingartenRelation(-0.9117989047655644,
                                        2.960521662685622)))[0]
        assert b.domain.upper - b.domain.lower < 1e-9
        rep = ode_oracle(b)
        assert not rep.passed and rep.n_points == 0
        assert rep.details["reason"] == "oracle produced no comparable samples"

    def test_flat_arc_fails_without_comparable_samples(self):
        # |u'| <= 0.5^7 on the whole arc, below the slope window's floor:
        # the oracle reports that it compared nothing instead of raising
        b = solve_constant_k1(NormParameter(4), 1.0, 0.5)
        assert np.max(np.abs(b.du)) < 1e-2
        rep = ode_oracle(b)
        assert not rep.passed and rep.n_points == 0
        assert math.isnan(rep.max_residual)
        assert rep.details["reason"] == "oracle produced no comparable samples"
        assert residual_scan(b).passed and first_integral_drift(b).passed

    @pytest.mark.parametrize("lam, c1, tag", [
        (-1.0, 1.0, "6.1i-2-2"),
        (-0.5, crit_mid(-0.5), "6.3iii-2-2"),
        (-0.5, 3.2, "6.3iii-3-2"),
    ])
    def test_orientation_holds_across_the_cap(self, lam, c1, tag):
        # at m = 1 the run toward the smooth cap ends in a step whose
        # stages cross u' = 0; taking the orientation from each u' flipped
        # u'' there, and the dense output was off by up to 1e-3 in alpha
        (b,) = [b for b in solve(SolveRequest(
            p=NormParameter(1), relation=WeingartenRelation(lam, 1.0),
            c1=c1)) if b.case.value == tag]
        rep = ode_oracle(b)
        assert rep.passed and rep.max_residual < 1e-9, tag
        assert "slope_floor" in [t["reason"]
                                 for t in rep.details["truncations"]]


@pytest.mark.parametrize("m", [2, 3])
def test_decreasing_profiles_pass_every_verifier(m):
    """sign = -1 branches fall along alpha, so the oracle maps its samples
    back through the reversed table u -> alpha."""
    branches = []
    for lam, mu, c1 in ((-1.0, 1.0, 1.5), (-1.0, -1.0, -0.5), (0.5, 1.0, 0.8),
                        (-0.5, -1.0, 2.0), (-2.0, 1.0, 0.3),
                        (-2.0, -1.0, 0.4), (1.0, -1.0, 0.3)):
        branches += solve(SolveRequest(
            p=NormParameter(m), relation=WeingartenRelation(lam, mu),
            c1=c1, sign=-1))
    assert len(branches) == 8
    for b in branches:
        tag = b.case.value
        assert b.u[-1] < b.u[0], tag
        assert residual_scan(b).passed, tag
        assert first_integral_drift(b).passed, tag
        rep = ode_oracle(b)
        assert rep.passed and rep.n_points > 10, tag


class TestSlopeInvariant:
    def test_solver_tables_consistent(self, sphere, generic):
        for b in (sphere, generic):
            assert np.abs(b.du - b.uprime(b.alpha)).max() < 1e-12


class TestReportSerialization:
    def test_as_dict_round_trips_through_json(self, generic):
        rep = residual_scan(generic)
        payload = json.loads(rep.to_json())
        assert payload == rep.as_dict()
        assert payload["kind"] == "residual_scan"
        assert isinstance(payload["passed"], bool)
        assert isinstance(payload["max_residual"], float)

    def test_numpy_scalars_cleaned(self):
        rep = VerificationReport(
            kind="t", case="t", passed=bool(np.bool_(True)), tolerance=1e-6,
            n_points=3, max_residual=float(np.float64(1.0)),
            median_residual=0.5,
            details={"x": np.float64(2.0), "y": [np.int64(3)]})
        out = rep.as_dict()
        json.dumps(out)
        assert out["details"] == {"x": 2.0, "y": [3]}


@pytest.mark.parametrize("m", [4, 5, 6])
def test_spheres_at_large_m_pass_every_verifier(m):
    """At m >= 4 the sphere grid's points next to the root round onto it,
    where the slope is infinite; the grid ends on the float below it."""
    p = NormParameter(m)
    branches = [solve_constant_k2(p)]
    for lam, mu in ((0.5, -1.0), (-0.5, -1.0), (-2.0, 1.0)):
        branches += solve_inhom_general(p, lam, mu, 0.0)
    assert [b.case.value for b in branches] == ["4ii", "6.3ii-1", "6.3iv-1",
                                                "6.3v-1"]
    for b in branches:
        tag = b.case.value
        assert b.alpha[-1] < b.domain.upper, tag
        assert np.isfinite(b.du).all() and np.isfinite(b.u).all(), tag
        assert residual_scan(b).passed, tag
        assert first_integral_drift(b).passed, tag
        assert ode_oracle(b).passed, tag
