"""Gluing recipes, junction smoothness, and axis verdicts."""

import math
import warnings

import numpy as np
import pytest

from lwsurf import (
    CaseTag,
    EndpointKind,
    GluingMismatch,
    NormParameter,
    NotPeriodic,
    Recipe,
    Smoothness,
    Topology,
    axis_smoothness,
    cylinder,
    extend_periodic,
    glue,
    reflect_branch,
    solve_constant_k1,
    solve_constant_k2,
    solve_inhom_lambda_minus1,
)
from lwsurf.assembler import RECIPE_TABLE
from lwsurf.cli import DEFAULTS, build_assembly
from lwsurf.solver import critical_c1


P2 = NormParameter(2)

# representative constants for each recipe (overrides on the CLI defaults)
RECIPE_PARAMS = {
    "cap": dict(lam=-1.0, mu=-1.0, c1=0.5),
    "torus-4iii": dict(c1=2.0),
    "C1-1": dict(c1=0.5),
    "C1-2": dict(c1=0.5),
    "C2": dict(),
    "C3": dict(c1=1.5),
    "C4": dict(lam=0.5, c1=0.8),
    "C5": dict(lam=-0.5, c1=2.0),
    "C6": dict(lam=-0.5),
    "C7": dict(lam=-0.5, c1=3.2),
    "C8": dict(lam=-2.0, c1=-0.4),
    "C9": dict(lam=-2.0),
    "C10": dict(lam=-2.0, c1=-0.1),
}

EXPECTED_TOPOLOGY = {
    "cap": Topology.OPEN_ANNULUS,
    "torus-4iii": Topology.TORUS,
    "C1-1": Topology.SPHERE_LIKE,
    "C1-2": Topology.SPHERE_LIKE,
    "C2": Topology.OPEN_ANNULUS,
    "C3": Topology.OPEN_ANNULUS,
    "C4": Topology.OPEN_ANNULUS,
    "C5": Topology.SPHERE_LIKE,
    "C6": Topology.OPEN_ANNULUS,
    "C7": Topology.OPEN_ANNULUS,
    "C8": Topology.SPHERE_LIKE,
    "C9": Topology.OPEN_ANNULUS,
    "C10": Topology.OPEN_ANNULUS,
}

EXTENDABLE = {"C3", "C4", "C7", "C10"}

_SURFACES = {}


def surface_for(name: str):
    if name not in _SURFACES:
        settings = dict(DEFAULTS)
        settings.update(RECIPE_PARAMS[name])
        settings["samples"] = 192
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _SURFACES[name] = build_assembly(settings, name)
    return _SURFACES[name]


class TestRecipes:
    def test_params_cover_every_recipe(self):
        assert set(RECIPE_PARAMS) == {r.value for r in Recipe}

    @pytest.mark.parametrize("name, lam", [("C2", 1.0), ("C6", -0.5),
                                           ("C9", -2.0)])
    def test_double_root_recipes_pin_c1(self, name, lam):
        # --c1 is ignored: the outer piece exists only at the double root,
        # and the 6.1 recipe C2 also ignores --lambda (lam = -1)
        settings = dict(DEFAULTS, lam=lam, c1=0.123, samples=96)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            surf = build_assembly(settings, name)
        lam_used = -1.0 if name == "C2" else lam
        c1s = {a.branch.request.c1 for a in surf.arcs}
        assert c1s == {critical_c1(lam_used), -critical_c1(lam_used)}
        assert surf.lam == lam_used

    @pytest.mark.parametrize("recipe", list(RECIPE_TABLE),
                             ids=lambda r: r.value)
    def test_row_fixes_cases_lam_and_c1(self, recipe):
        # the flags ask for lam = 3 and c1 = 0.123 wherever the row fixes
        # them, and for mu = 5, which no two-case recipe reads
        row = RECIPE_TABLE[recipe]
        settings = dict(DEFAULTS, **RECIPE_PARAMS[recipe.value], mu=5.0,
                        samples=96)
        if row.lam is not None:
            settings["lam"] = 3.0
        if row.critical_c1:
            settings["c1"] = 0.123
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            surf = build_assembly(settings, recipe.value)
        lam = settings["lam"] if row.lam is None else row.lam
        c1 = critical_c1(lam) if row.critical_c1 else settings["c1"]
        cases = (row.first, row.second)
        assert [(a.branch.case, a.branch.request.sign, a.direction)
                for a in surf.arcs] == [(cases[i], sign, d)
                                        for i, sign, d in row.arcs]
        assert surf.lam == lam
        for arc in surf.arcs:
            b = arc.branch
            mu = 1.0 if b.case is row.first else -1.0
            assert (b.lam, b.mu, b.request.c1) == (lam, mu, mu * c1)

    def test_torus_ignores_the_relation_flags(self):
        # the 4iii arcs have lam = 0 and mu = +/-1
        settings = dict(DEFAULTS, lam=3.0, mu=5.0, c1=2.0, samples=96)
        surf = build_assembly(settings, "torus-4iii")
        assert (surf.lam, surf.mu) == (0.0, 1.0)
        assert {a.branch.mu for a in surf.arcs} == {1.0, -1.0}

    @pytest.mark.parametrize("name", sorted(RECIPE_PARAMS))
    def test_topology(self, name):
        assert surface_for(name).topology is EXPECTED_TOPOLOGY[name]

    @pytest.mark.parametrize("name", sorted(RECIPE_PARAMS))
    def test_junctions_smooth(self, name):
        for j in surface_for(name).junctions:
            assert j.u_gap < 1e-8, (name, j.kind)
            assert j.du_gap < 1e-6, (name, j.kind)
            assert j.smoothness is not Smoothness.SINGULAR, name

    @pytest.mark.parametrize("name", sorted(RECIPE_PARAMS))
    def test_profile_polyline_is_connected(self, name):
        surf = surface_for(name)
        if not surf.arcs:
            return
        for left, right in zip(surf.arcs, surf.arcs[1:]):
            ea, eu = left.end
            sa, su = right.start
            if math.isinf(eu) or math.isinf(su):
                continue
            assert abs(ea - sa) < 1e-8, name
            assert abs(eu - su) < 1e-8, name

    @pytest.mark.parametrize("name", sorted(RECIPE_PARAMS))
    def test_junctions_sit_where_the_arcs_meet(self, name):
        # each junction is graded at the end the left arc stops at and the
        # right arc starts from; the torus closes from its last arc to its
        # first; a simple-root end is a cap, every other end a smooth join
        surf = surface_for(name)
        closing = surf.arcs[:1] if surf.topology is Topology.TORUS else []
        rights = surf.arcs[1:] + closing
        assert len(surf.junctions) == len(rights)
        for j, left, right in zip(surf.junctions, surf.arcs, rights):
            a_end, kind, _ = left.end_record(first=False)
            a_start, right_kind, _ = right.end_record(first=True)
            assert j.alpha_star == a_end == a_start, name
            assert right_kind is kind, name
            assert (j.kind == "cap") == (kind is EndpointKind.SIMPLE_ROOT)

    def test_c1_1_has_curvature_jump_joins(self):
        # pairing like-signed branches keeps the tangent but jumps k1
        kinds = [(j.kind, j.smoothness) for j in surface_for("C1-1").junctions]
        assert (("smooth_join", Smoothness.C2_WITH_CURVATURE_JUMP) in kinds)
        # the mirror pairing of the same branches is curvature-continuous
        for j in surface_for("C1-2").junctions:
            assert j.smoothness is Smoothness.C2

    def test_torus_closes(self):
        surf = surface_for("torus-4iii")
        assert surf.closure_gap is not None and surf.closure_gap < 1e-9
        assert len(surf.junctions) == 4

    def test_sphere_like_axis_points(self):
        surf = surface_for("C8")
        assert len(surf.axis_points) == 2
        for pt in surf.axis_points:
            assert pt.u2_limit_exists and pt.curvatures_extend

    def test_inner_cap_axis_points_curvature_blowup(self):
        for pt in surface_for("C1-1").axis_points:
            assert pt.u2_limit_exists and not pt.curvatures_extend


class TestPeriodicExtension:
    @pytest.mark.parametrize("name", sorted(EXTENDABLE))
    def test_extends_to_tube(self, name):
        surf = surface_for(name)
        assert surf.end_derivative_match is not None
        assert surf.end_derivative_match < 1e-8
        tube = extend_periodic(surf)
        assert tube.topology is Topology.PERIODIC_TUBE
        assert tube.period > 0.0
        assert not tube.may_be_torus

    @pytest.mark.parametrize("name", sorted(RECIPE_PARAMS))
    def test_period_only_on_repeating_chains(self, name):
        # the cap of RECIPE_PARAMS ends at a smooth cap, which its chain
        # turns back from, so it does not repeat
        assert (surface_for(name).period is not None) == (name in EXTENDABLE)

    def test_band_cap_extends(self):
        # a cap on a band between two simple roots repeats in u
        settings = dict(DEFAULTS)
        settings.update(lam=1.0, mu=-1.0, c1=0.3, samples=192)
        surf = build_assembly(settings, "cap")
        assert surf.topology is Topology.OPEN_ANNULUS
        assert surf.period is not None
        tube = extend_periodic(surf)
        assert tube.topology is Topology.PERIODIC_TUBE
        assert surf.end_derivative_match < 1e-8

    def test_sphere_like_not_extendable(self):
        with pytest.raises(NotPeriodic):
            extend_periodic(surface_for("C5"))

    def test_torus_passes_through(self):
        surf = surface_for("torus-4iii")
        assert extend_periodic(surf) is surf


class TestGluingMismatch:
    def test_wrong_constants_rejected(self):
        b1 = solve_inhom_lambda_minus1(P2, 1.0, 0.5, samples=96)[0]
        b2 = solve_inhom_lambda_minus1(P2, -1.0, -0.7, samples=96)[0]
        with pytest.raises(GluingMismatch, match="c1\\* = -c1"):
            glue(b1, b2, Recipe.C1_1)

    def test_wrong_cases_rejected(self):
        b1 = solve_inhom_lambda_minus1(P2, 1.0, 0.5, samples=96)[0]
        with pytest.raises(GluingMismatch, match="connects cases"):
            glue(b1, b1, Recipe.C2)

    def test_torus_requires_axis_clearance(self):
        b1 = solve_constant_k1(P2, 1.0, 0.8, samples=96)
        b2 = solve_constant_k1(P2, -1.0, -0.8, samples=96)
        with pytest.raises(GluingMismatch, match="c1 > 1"):
            glue(b1, b2, Recipe.TORUS_4III)

    def test_torus_rejects_a_wrong_case(self):
        b1 = solve_constant_k1(P2, 1.0, 2.0, samples=96)
        with pytest.raises(GluingMismatch, match="connects cases"):
            glue(b1, b1, Recipe.TORUS_4III)
        with pytest.raises(GluingMismatch, match="connects cases"):
            glue(b1, solve_constant_k2(P2, samples=96), Recipe.TORUS_4III)

    def test_cap_needs_simple_root_anchor(self):
        b = solve_constant_k2(P2, samples=96)
        with pytest.raises(GluingMismatch):
            glue(b, b, Recipe.CAP)


class TestReflectBranch:
    def test_involution(self):
        b = solve_constant_k2(P2, samples=96)
        bb = reflect_branch(reflect_branch(b))
        assert np.allclose(bb.u, b.u, atol=0.0)
        assert np.allclose(bb.du, b.du, atol=0.0)
        assert bb.request.sign == b.request.sign

    def test_mirror_about_anchor(self):
        b = solve_constant_k2(P2, samples=96)
        r = reflect_branch(b)
        u0 = b.anchor[1]
        assert np.allclose(r.u - u0, -(b.u - u0), atol=0.0)
        assert r.uprime(0.5) == pytest.approx(-b.uprime(0.5))


class TestAxisSmoothness:
    def test_homogeneous_thresholds(self):
        # u'' exists iff (2m-1)(-lam) >= 1; curvatures extend iff -lam >= 1
        pt = axis_smoothness(P2, CaseTag.HOM_NEG, -0.2)
        assert not pt.u2_limit_exists and not pt.curvatures_extend
        pt = axis_smoothness(P2, CaseTag.HOM_NEG, -1.0 / 3.0)
        assert pt.u2_limit_exists and not pt.curvatures_extend
        pt = axis_smoothness(P2, CaseTag.HOM_NEG, -1.0)
        assert pt.u2_limit_exists and pt.curvatures_extend

    def test_sphere_and_inner_caps(self):
        pt = axis_smoothness(P2, CaseTag.SPHERE_TRANSLATE, math.inf)
        assert pt.u2_limit_exists and pt.curvatures_extend
        pt = axis_smoothness(P2, CaseTag.LM1_SUB, -1.0)
        assert pt.u2_limit_exists and not pt.curvatures_extend

    def test_gen_low_axis_always_extends(self):
        for case in (CaseTag.GEN_LOW_PLUS_SUB, CaseTag.GEN_LOW_PLUS_TWO_INNER):
            pt = axis_smoothness(P2, case, -2.0)
            assert pt.u2_limit_exists and pt.curvatures_extend

    def test_non_axis_case_rejected(self):
        with pytest.raises(ValueError):
            axis_smoothness(P2, CaseTag.K1_CONST_PLUS, 0.0)


class TestCylinder:
    def test_constants(self):
        surf = cylinder(P2, 2.0, height=3.0)
        assert surf.topology is Topology.CYLINDER
        assert surf.constants["k2"] == pytest.approx(-0.5)

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            cylinder(P2, 0.0)
