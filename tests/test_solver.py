"""Case taxonomy and branch construction tests."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from lwsurf import (
    CaseTag,
    IllConditionedWarning,
    NormParameter,
    NoSurfaceError,
    SolveRequest,
    WeingartenRelation,
    classify,
    solve,
    solve_constant_k1,
    solve_constant_k2,
    solve_homogeneous,
    solve_inhom_general,
    solve_inhom_lambda_minus1,
)
from lwsurf.quadrature import EndpointKind
from lwsurf.solver import critical_c1
from lwsurf.verify import residual_scan, slope_invariant

from conftest import crit_mid, thr_low, instances, ALL_TAGS_WITH_TABLE


P2 = NormParameter(2)


def req_for(p, lam, mu, c1=0.0, c2=1.0):
    return SolveRequest(p=p, relation=WeingartenRelation.linear(lam, mu),
                        c1=c1, c2=c2)


class TestRelationDispatch:
    def test_forms(self):
        from lwsurf import RelationForm
        assert WeingartenRelation.linear(0.0, 0.0).form is RelationForm.K1_ZERO
        assert WeingartenRelation.linear(0.0, 1.0).form is RelationForm.K1_CONST
        assert WeingartenRelation.linear(2.0, 0.0).form is RelationForm.HOMOGENEOUS
        assert (WeingartenRelation.linear(-1.0, 2.0).form
                is RelationForm.INHOM_LAMBDA_MINUS1)
        assert (WeingartenRelation.linear(0.7, -1.0).form
                is RelationForm.INHOM_GENERAL)

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            WeingartenRelation.homogeneous(0.0)
        with pytest.raises(ValueError):
            WeingartenRelation.k1_const(0.0)


class TestClassification:
    def test_all_tags_reachable(self):
        got = set(instances(2))
        assert got == set(ALL_TAGS_WITH_TABLE)

    def test_classify_matches_solve(self):
        req = req_for(P2, -0.5, 1.0, c1=3.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            tag, domains = classify(req)
            branches = solve(req)
        assert len(domains) == len(branches) == 2
        assert [b.case.value for b in branches] == [d.label for d in domains]

    def test_sphere_domain(self):
        b = solve_constant_k2(P2)
        assert b.case is CaseTag.SPHERE_TRANSLATE
        assert (b.domain.lower, b.domain.upper) == (0.0, 1.0)
        assert b.domain.lower_kind is EndpointKind.AXIS_ZERO
        assert b.domain.upper_kind is EndpointKind.SIMPLE_ROOT

    def test_k1_const_domains(self):
        bp = solve_constant_k1(P2, 1.0, 2.0)
        assert bp.case is CaseTag.K1_CONST_PLUS
        assert (bp.domain.lower, bp.domain.upper) == (1.0, 2.0)
        bm = solve_constant_k1(P2, -1.0, -2.0)
        assert bm.case is CaseTag.K1_CONST_MINUS
        assert (bm.domain.lower, bm.domain.upper) == (2.0, 3.0)

    def test_k1_const_empty(self):
        with pytest.raises(NoSurfaceError):
            solve_constant_k1(P2, -1.0, 2.0)

    def test_homogeneous_domains(self):
        fast = solve_homogeneous(P2, 1.0, 1.0)
        assert fast.case is CaseTag.HOM_POS_FAST
        assert fast.domain.lower == 1.0 and math.isinf(fast.domain.upper)
        neg = solve_homogeneous(P2, -0.5, 2.0)
        assert neg.case is CaseTag.HOM_NEG
        assert (neg.domain.lower, neg.domain.upper) == (0.0, 2.0)

    def test_lm1_endpoints_against_direct_rootfinding(self):
        c1 = 1.5
        branches = solve_inhom_lambda_minus1(P2, 1.0, c1)
        f = lambda t: 1.0 - t * (c1 - math.log(t))
        a1 = brentq(f, 0.3, 1.2, xtol=1e-14)
        a2 = brentq(f, 2.0, math.exp(c1) - 1e-9, xtol=1e-14)
        assert branches[0].domain.upper == pytest.approx(a1, abs=1e-10)
        assert branches[1].domain.lower == pytest.approx(a2, abs=1e-10)
        assert branches[1].domain.upper == pytest.approx(math.exp(c1))

    def test_lm1_double_root_at_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            branches = solve_inhom_lambda_minus1(P2, 1.0, 1.0)
        assert [b.case for b in branches] == [CaseTag.LM1_DOUBLE_INNER,
                                              CaseTag.LM1_DOUBLE_OUTER]
        assert branches[0].domain.upper == pytest.approx(1.0)
        assert branches[0].domain.upper_kind is EndpointKind.DOUBLE_ROOT
        assert not math.isfinite(branches[0].span)

    def test_gen_low_double_root_location(self):
        # lam = -2: the double root sits at 1/(-c1*w*(w+1)) with w = 1
        lam = -2.0
        c1 = thr_low(lam)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            branches = solve_inhom_general(P2, lam, 1.0, c1)
        expected = (-c1 * 1.0 * 2.0) ** (-1.0)
        assert branches[0].domain.upper == pytest.approx(expected, abs=1e-12)
        assert branches[0].domain.upper_kind is EndpointKind.DOUBLE_ROOT

    def test_no_surface_messages_name_inequality(self):
        with pytest.raises(NoSurfaceError, match="c1 <= 0"):
            solve_inhom_general(P2, 0.5, 1.0, -0.3)
        with pytest.raises(NoSurfaceError, match="admissible band is empty"):
            solve_inhom_general(P2, 0.5, -1.0, 5.0)
        with pytest.raises(NoSurfaceError, match="c1\\* <= 0"):
            solve_inhom_general(P2, -2.0, -1.0, -0.5)

    @pytest.mark.parametrize("lam", [-0.9, -0.5, -0.25, -1.5, -2.0, -3.7])
    def test_critical_c1_matches_independent_formulas(self, lam):
        expected = crit_mid(lam) if lam > -1.0 else thr_low(lam)
        assert critical_c1(lam) == pytest.approx(expected, rel=1e-14)

    def test_critical_c1_lambda_minus_one_and_no_double_root(self):
        assert critical_c1(-1.0) == 1.0
        with pytest.raises(NoSurfaceError, match="double root"):
            critical_c1(0.5)

    def test_boundary_warning(self):
        with pytest.warns(IllConditionedWarning):
            classify(req_for(P2, -0.5, 1.0, c1=crit_mid(-0.5) * (1.0 + 1e-6)))


class TestBranchTables:
    def test_monotone_u(self, instances_m2):
        for tag, b in instances_m2.items():
            du = np.diff(b.u)
            sgn = b.request.sign
            # near a flat axis cap successive u values can tie at machine
            # precision, so require nondecreasing plus overall growth
            assert np.all(sgn * du >= 0.0), tag
            assert sgn * (b.u[-1] - b.u[0]) > 0.0, tag

    def test_slope_invariant(self, instances_m2):
        for tag, b in instances_m2.items():
            assert slope_invariant(b) < 1e-12, tag

    def test_alpha_inside_domain(self, instances_m2):
        for tag, b in instances_m2.items():
            assert b.alpha[0] >= b.domain.lower - 1e-12, tag
            assert b.alpha[-1] <= b.domain.upper + 1e-12, tag

    def test_anchor_on_curve(self, instances_m2):
        for tag, b in instances_m2.items():
            a0, u0 = b.anchor
            i = int(np.argmin(np.abs(b.alpha - a0)))
            if abs(b.alpha[i] - a0) < 1e-12 * max(1.0, abs(a0)):
                assert abs(b.u[i] - u0) < 1e-9, tag

    def test_sign_reflection(self):
        req = req_for(P2, 0.5, 1.0, c1=0.8)
        up = solve(req)[0]
        dn = solve(SolveRequest(p=P2, relation=req.relation, c1=0.8,
                                sign=-1))[0]
        assert np.allclose(up.u - up.anchor[1], -(dn.u - dn.anchor[1]),
                           atol=1e-12)

    def test_mu_rescaling(self):
        # |mu| != 1 is solved in normalized form and rescaled; the
        # physical relation must still hold on the samples
        b = solve_inhom_general(P2, 0.5, 2.0, 0.8)[0]
        assert b.scale == pytest.approx(0.5)
        rep = residual_scan(b)
        assert rep.passed, rep.max_residual

    def test_shift_moves_axis_constant(self):
        b0 = solve_constant_k2(P2, c=0.0)
        b1 = solve_constant_k2(P2, c=0.7)
        assert np.allclose(b1.u - b0.u, 0.7, atol=1e-12)
