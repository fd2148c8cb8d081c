"""Case taxonomy and branch construction tests."""

import dataclasses
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from lwsurf import (
    BracketError,
    CaseTag,
    IllConditionedWarning,
    NormParameter,
    NoSurfaceError,
    RelationForm,
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
from lwsurf import quadrature, solver
from lwsurf.assembler import reflect_branch
from lwsurf.quadrature import (
    ROOT_VALUE_TOL,
    EndpointKind,
    ToleranceError,
    integrate_singular,
)
from lwsurf.solver import SlopeLaw, critical_c1
from lwsurf.verify import (
    first_integral_drift,
    ode_oracle,
    residual_scan,
)

from conftest import (
    ALL_TAGS_WITH_TABLE,
    crit_mid,
    instances,
    thr_low,
    workloads,
)


P2 = NormParameter(2)


class _SpanCalled(Exception):
    pass


def record_spans(monkeypatch, fail: bool = False) -> list:
    """The (law, domain) of every integrate_singular call from now on;
    with ``fail``, each call raises _SpanCalled once recorded."""
    calls = []
    integrate = quadrature.integrate_singular

    def recorded(law, domain, *args, **kwargs):
        calls.append((law, domain))
        if fail:
            raise _SpanCalled
        return integrate(law, domain, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_singular", recorded)
    return calls


def req_for(p, lam, mu, c1=0.0, c2=1.0):
    return SolveRequest(p=p, relation=WeingartenRelation(lam, mu),
                        c1=c1, c2=c2)


class TestRelationDispatch:
    def test_forms(self):
        # the form of a relation follows from its two constants
        for lam, mu, form in (
                (0.0, 0.0, RelationForm.K1_ZERO),
                (-0.0, 0.0, RelationForm.K1_ZERO),
                (math.inf, -1.0, RelationForm.K2_CONST),
                (0.0, 1.0, RelationForm.K1_CONST),
                (0.0, -2.5, RelationForm.K1_CONST),
                (2.0, 0.0, RelationForm.HOMOGENEOUS),
                (-0.5, -0.0, RelationForm.HOMOGENEOUS),
                (-1.0, 2.0, RelationForm.INHOM_LAMBDA_MINUS1),
                (0.7, -1.0, RelationForm.INHOM_GENERAL),
                (-3.0, 0.5, RelationForm.INHOM_GENERAL)):
            relation = WeingartenRelation(lam, mu)
            assert relation.form is form, (lam, mu)
            assert WeingartenRelation.linear(lam, mu) == relation
        assert [f.name for f in dataclasses.fields(WeingartenRelation)] \
            == ["lam", "mu"]

    def test_cylinder_relation_has_no_profile(self):
        # lam = mu = 0 is the cylinder alpha = const; the error names it
        req = SolveRequest(P2, WeingartenRelation(0.0, 0.0), c1=2.0)
        message = ("lam = mu = 0 is the cylinder 4i, alpha = const, which "
                   "has no profile u(alpha)")
        for build in (solve, classify):
            with pytest.raises(ValueError) as exc:
                build(req)
            assert str(exc.value) == message

    def test_invalid_constants(self):
        # lam = inf stands only for the translated sphere, mu = -1
        for lam, mu, field in ((math.nan, 1.0, "lam"),
                               (-math.inf, -1.0, "lam"),
                               (math.inf, 1.0, "lam"),
                               (math.inf, 0.0, "lam"),
                               (1.0, math.nan, "mu"),
                               (0.0, math.inf, "mu"),
                               (math.inf, -math.inf, "mu")):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                WeingartenRelation(lam, mu)

    def test_pair_builds_the_relation_it_names(self):
        # the first argument is lam: (0.5, 1) is a 6.3 relation, not a
        # constant-k1 arc
        req = SolveRequest(P2, WeingartenRelation(0.5, 1.0), c1=0.8)
        branches = solve(req)
        assert [b.case for b in branches] == [CaseTag.GEN_POS_PLUS]
        b, = branches
        assert (b.lam, b.mu) == (0.5, 1.0)
        for check in (residual_scan, first_integral_drift, ode_oracle):
            assert check(b).passed, check.__name__

    def test_unbracketed_roots_raise_the_named_error(self):
        # sweep seed 401: the probe grid finds one of the two 6.3iii-3
        # roots below top
        req = SolveRequest(NormParameter(4), WeingartenRelation(
            -0.012137292640919561, 4.190876646895785), c1=3.5124454836960304)
        for call in (solve, classify):
            with pytest.raises(BracketError,
                               match="^expected two roots below 3.52"):
                call(req)
        assert issubclass(BracketError, RuntimeError)

    @pytest.mark.parametrize("lam, mu, c1, bound", [
        (-1.0016337197121628, -2.9065051014020944, 4.761904961672993, "a22"),
        (-1.0016337197121628, 2.9065051014020944, -4.761904961672993, "a18"),
        (-1.0045781137662064, 1.0, -8.507942799627445, "beta"),
        (-1.0252007350855719, -1.0, 7.0755919173524e-07,
         "a23's search bound"),
        (-1.1055068881201473, 1.0, -9.567059257880739e+304, "a18"),
        (-1.0, 1.0, 710.0, "top"),
        (-1.0, 1.0, -800.0, "top"),
        (-1.0, -1.0, -800.0, "a3's search bound"),
        (1.0, 1.0, 1e308, "a4"),
        (43.30876175918273, -1.0, -6.251488035456173e+306, "a8"),
        (0.00016959614642154424, -1.0, -9.135643218014772e+307,
         "a9's search bound"),
        (-0.999, 1.0, 1e6, "a10"),
        (-0.999, -1.0, -1e6, "a15"),
        (-0.15844026511151618, -1.0, -1.5585410947371256e+259,
         "a16's search bound"),
        (200.0, -1.0, 0.5, "band threshold"),
        (-1.0000000000002824, -1.0, 9.54870906e-316, "a22")])
    def test_interval_end_beyond_the_float_range(self, lam, mu, c1, bound):
        # sweep seed 433: at lam = -1 - 1.6e-3 the end (|c1|*w)^(-1/w) of
        # the admissible interval is about 10^1290; at the third input
        # a19 = 2.8e307 is finite but a19^(w+1) is not; at the fourth
        # a22 = 3.0e306 is finite but the root search's upper bound
        # 10*a22 + w + 10 is not.  Then an end or bound of each plan that
        # overflows, or underflows to 0 (a18 = 0.0 and e^-800 = 0.0), or
        # whose pow or exp raises OverflowError (e^710, a10, a15, and
        # lam^lam at lam = 200).  At the last input c1*w underflows to 0,
        # and math.pow raises ValueError for 0.0 ** (-1/w)
        req = SolveRequest(NormParameter(1), WeingartenRelation(lam, mu),
                           c1=c1)
        for call in (solve, classify):
            with pytest.raises(BracketError, match=rf"^{bound} = .* leaves "
                               rf"the float range at lam = {lam!r}: got "):
                call(req)


    def test_collapsed_search_window(self):
        # the 6.3i end a4 = 6.6e-18 lies below the root search's lower end
        # 1e-12; at the 6.1ii input, e^(-c1) + 10*(1+|c1|) rounds to
        # e^(-c1).  Each raises a BracketError that names the search and
        # its empty window
        lam, c1 = 2.205227987729904, 2.7296941439379285e-56
        a4 = math.pow(c1 * (lam + 1.0), 1.0 / (lam + 1.0))
        bottom = math.exp(708.8090365071876)
        assert bottom + 10.0 * (1.0 + 708.8090365071876) == bottom
        for m, lam, mu, c1, message in (
                (5, lam, 1.0, c1, f"expected one simple root below {a4}: "
                 f"the search window (1e-12, {a4!r}) is empty"),
                (2, -1.0, -1.0, -708.8090365071876,
                 "root of t*(c1 + log t) = 1 not bracketed: the search "
                 f"window ({bottom!r}, {bottom!r}) is empty")):
            req = SolveRequest(NormParameter(m), WeingartenRelation(lam, mu),
                               c1=c1)
            for call in (solve, classify):
                with pytest.raises(BracketError) as exc:
                    call(req)
                assert str(exc.value) == message


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

    @pytest.mark.parametrize("lam", [-143.0, -143.5, -150.0, -1000.0])
    def test_critical_c1_where_the_power_overflows(self, lam):
        """From lam of about -143, w*(w+1)^(w+1) is inf, and from -143.5
        (w+1)^(w+1) raises OverflowError: the critical c1 -1/(w*(w+1)^(w+1))
        is then tiny, or -0.0, and the mu > 0 plans of 6.3v still build."""
        w = -(lam + 1.0)
        expected = -math.exp(-(w + 1.0) * math.log(w + 1.0)) / w
        assert critical_c1(lam) == pytest.approx(expected, rel=1e-9,
                                                 abs=1e-320)
        for c1, tag, upper in ((1.0, "6.3v-2", EndpointKind.SIMPLE_ROOT),
                               (-1.0, "6.3v-3-1", EndpointKind.SMOOTH_CAP)):
            got, domains = classify(req_for(P2, lam, 1.0, c1=c1))
            assert got.value == tag
            assert domains[0].lower == 0.0 and 0.9 < domains[0].upper < 1.0
            assert domains[0].upper_kind is upper

    def test_critical_c1_lambda_minus_one_and_no_double_root(self):
        assert critical_c1(-1.0) == 1.0
        with pytest.raises(NoSurfaceError, match="double root"):
            critical_c1(0.5)

    def test_boundary_warning(self):
        with pytest.warns(IllConditionedWarning):
            classify(req_for(P2, -0.5, 1.0, c1=crit_mid(-0.5) * (1.0 + 1e-6)))


class TestEndpointKinds:
    """Quadrature reads where the denominator P^2m - Q^2m vanishes from the
    endpoint kinds alone, so the kinds must match the zeros of P - Q."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_root_kinds_are_the_zeros_of_the_gap(self, m):
        roots = (EndpointKind.SIMPLE_ROOT, EndpointKind.DOUBLE_ROOT)
        checked = 0
        for tag, b in instances(m).items():
            law = b.slope
            if not isinstance(law, SlopeLaw):
                continue
            scale = max(1.0, max(abs(law.gap(float(a) / b.scale))
                                 for a in b.alpha))
            d = b.domain
            for end, kind in ((d.lower, d.lower_kind),
                              (d.upper, d.upper_kind)):
                if kind is EndpointKind.UNBOUNDED:
                    continue
                # the axis end t = 0 is a limit point: log t is undefined
                t = max(end / b.scale, sys.float_info.min)
                is_zero = abs(law.gap(t)) <= ROOT_VALUE_TOL * scale
                assert is_zero == (kind in roots), (tag, end, kind)
                checked += 1
        assert checked >= 50


class TestBranchTables:
    @pytest.mark.parametrize("samples", [1, 0])
    def test_closed_forms_need_two_samples(self, samples):
        p = NormParameter(2)
        with pytest.raises(ValueError, match="need at least 2 samples"):
            solve_constant_k2(p, samples=samples)
        with pytest.raises(ValueError, match="need at least 2 samples"):
            solve_constant_k1(p, 1.0, 0.5, samples=samples)

    @pytest.mark.parametrize("field, value, message", [
        ("samples", 1, "need at least 2 samples"),
        ("tol", -1.0, "tol must be finite and >= 0"),
        ("tol", math.nan, "tol must be finite and >= 0"),
        ("tol", math.inf, "tol must be finite and >= 0"),
    ])
    def test_request_checks_samples_and_tol(self, field, value, message):
        # the request rejects the value before any table is built
        with pytest.raises(ValueError, match=message):
            SolveRequest(P2, WeingartenRelation(1.0, 0.0),
                         **{field: value})

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
            assert np.abs(b.du - b.uprime(b.alpha)).max() < 1e-12, tag

    def test_alpha_inside_domain(self, instances_m2):
        for tag, b in instances_m2.items():
            assert b.alpha[0] >= b.domain.lower - 1e-12, tag
            assert b.alpha[-1] <= b.domain.upper + 1e-12, tag

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("build, rescaled", [
        (lambda p, s: solve_constant_k2(p, sign=s), False),
        (lambda p, s: solve_inhom_general(p, 0.5, -1.0, 0.0, s)[0], False),
        (lambda p, s: solve_inhom_general(p, 0.5, -3.0, 0.0, s)[0], True),
        # 4iii-1 from a root (c1 = 1.25: next to it w rounds onto 1 at
        # m >= 4), and from the axis
        (lambda p, s: solve_constant_k1(p, 1.0, 2.0, sign=s), False),
        (lambda p, s: solve_constant_k1(p, 1.0, 1.25, sign=s), False),
        (lambda p, s: solve_constant_k1(p, 1.0, 0.5, sign=s), False),
        (lambda p, s: solve_constant_k1(p, 3.0, 2.0, sign=s), True),
        # 4iii-2 to a root, from a cap and from the axis
        (lambda p, s: solve_constant_k1(p, -1.0, -2.0, sign=s), False),
        (lambda p, s: solve_constant_k1(p, -1.0, 0.5, sign=s), False),
        (lambda p, s: solve_constant_k1(p, -3.0, -2.0, sign=s), True),
    ], ids=["sphere", "6.3ii-1", "6.3ii-1-mu3", "4iii-1", "4iii-1-w",
            "4iii-1-axis", "4iii-1-mu3", "4iii-2", "4iii-2-axis",
            "4iii-2-mu3"])
    def test_closed_form_rows_inside_the_domain(self, m, sign, build,
                                                rescaled):
        b = build(NormParameter(m), sign)
        steps = np.diff(b.alpha)
        if rescaled:
            # the rescale can round two neighbouring rows onto one alpha,
            # as test_verify's test_repeated_alpha_in_rescaled_table shows
            assert np.all(steps >= 0.0)
        else:
            assert np.all(steps > 0.0)
        assert b.domain.lower < b.alpha[0]
        assert b.alpha[-1] < b.domain.upper
        assert np.all(np.isfinite(b.du))

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

    @pytest.mark.parametrize("build", [
        lambda mu: solve_inhom_general(P2, -0.5, mu, 2.0),
        lambda mu: solve_inhom_lambda_minus1(P2, mu, 1.5),
        lambda mu: solve_inhom_general(P2, 0.5, mu, 0.8),
    ], ids=["general", "lam=-1", "lam>0"])
    def test_mu_rescaling_scales_span_and_error(self, build, monkeypatch):
        # mu = 4 is the mu = 1 branch scaled by 1/4, a power of two, so
        # lengths and their error estimates scale exactly; each span is
        # integrated on its read, on the normalized law and domain
        calls = record_spans(monkeypatch)
        unit, scaled = build(1.0), build(4.0)
        assert len(unit) == len(scaled) > 0
        assert calls == []
        for b1, b4 in zip(unit, scaled):
            assert b4.scale == 0.25
            assert b4.span == 0.25 * b1.span
            assert calls[-2:] == [(b1.slope, b1.domain)] * 2
            assert b1.quad_error > 0.0
            assert b4.quad_error == 0.25 * b1.quad_error

    def test_shift_moves_axis_constant(self):
        b0 = solve_constant_k2(P2, c=0.0)
        b1 = solve_constant_k2(P2, c=0.7)
        assert np.allclose(b1.u - b0.u, 0.7, atol=1e-12)


class TestBranchesAsData:
    """The slope is the one callable of a branch; the rest is derived."""

    @pytest.fixture(scope="class")
    def pair(self):
        # |mu| = 2: solved at |mu| = 1 and rescaled by 1/2
        b = solve_inhom_general(P2, 0.5, 2.0, 0.8)[0]
        return b, reflect_branch(b)

    def test_rescaled_and_reflected_branches_share_the_slope(self, pair):
        b, r = pair
        assert b.scale == 0.5
        assert r.slope is b.slope
        assert r.request.sign == -b.request.sign

    def test_uprime_matches_table_and_slope(self, pair):
        for br in pair:
            dom = br.domain
            inner = [i for i, a in enumerate(br.alpha)
                     if dom.lower < a < dom.upper]
            for i in inner[1:-1:7]:
                a = br.alpha[i]
                got = br.uprime(a)
                assert got == pytest.approx(br.du[i], rel=1e-12, abs=0.0)
                assert got == br.request.sign * br.slope(a / br.scale)

    @pytest.mark.parametrize("m", [2, 3])
    def test_lam_mu_read_the_relation(self, m):
        inst = instances(m)
        assert math.isinf(inst["4ii"].lam) and inst["4iii-1"].lam == 0.0
        for tag, b in inst.items():
            assert b.lam == b.request.relation.lam, tag
            assert b.mu == b.request.relation.mu, tag
        b = inst["6.3i"]
        other = WeingartenRelation(0.25, -1.0)
        moved = dataclasses.replace(
            b, request=dataclasses.replace(b.request, relation=other))
        assert (moved.lam, moved.mu) == (0.25, -1.0)


class TestPickle:
    """Branches are data: they round-trip through pickle with the slope."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_every_instance_round_trips(self, m):
        for tag, b in instances(m).items():
            c = pickle.loads(pickle.dumps(b))
            assert c.domain == b.domain and c.anchor == b.anchor, tag
            # equal fields: the family constants of a law
            assert c.slope == b.slope, tag
            inner = [a for a in b.alpha
                     if b.domain.lower < a < b.domain.upper]
            for a in inner:
                assert c.uprime(a) == b.uprime(a), (tag, a)

    def test_law_pickles_by_its_fields(self):
        law = instances(2)["6.1i-2-1"].slope
        assert law.double is not None
        copy = pickle.loads(pickle.dumps(law))
        assert copy == law and copy.double == law.double
        assert copy.terms(0.9) == law.terms(0.9)
        assert copy.gap(0.5) == law.gap(0.5)


class TestSpanFailures:
    """Only the documented ToleranceError turns the span into NaN."""

    def test_tolerance_error_gives_nan(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ToleranceError("over budget", 1.0, 1.0)

        monkeypatch.setattr(quadrature, "integrate_singular", fail)
        b = solve_inhom_general(P2, 0.5, 1.0, 0.8)[0]
        assert math.isnan(b.span)

    def test_other_errors_propagate(self, monkeypatch):
        # the span is integrated on its first read, so that read raises
        def fail(*args, **kwargs):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(quadrature, "integrate_singular", fail)
        b = solve_inhom_general(P2, 0.5, 1.0, 0.8)[0]
        with pytest.raises(ZeroDivisionError):
            b.span


class TestLazySpan:
    """solve builds the table only; a branch's span is integrated by
    quadrature.integrate_singular on its first read, once."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_solve_and_the_verifiers_never_integrate_it(self, m,
                                                        monkeypatch):
        calls = record_spans(monkeypatch, fail=True)
        p = NormParameter(m)
        laws = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            for name, args, _ in workloads()._taxonomy_calls(m):
                built = getattr(solver, name)(p, *args)
                for b in built if isinstance(built, list) else [built]:
                    for verifier in (residual_scan, first_integral_drift,
                                     ode_oracle):
                        verifier(b)
                    if isinstance(b.slope, SlopeLaw):
                        laws.append(b)
        assert calls == []
        assert len(laws) >= 25
        for b in laws:
            with pytest.raises(_SpanCalled):
                b.span
        assert len(calls) == len(laws)

    def test_closed_forms_keep_their_radius(self, monkeypatch):
        calls = record_spans(monkeypatch, fail=True)
        b = solve_constant_k1(P2, 1.0, 2.0)
        assert isinstance(b.slope, solver.NormCircle)
        assert b.span == b.slope.R
        b4 = solve_inhom_general(P2, 0.0, 4.0, 2.0)[0]
        assert b4.span == 0.25 * b4.slope.R
        assert calls == []

    def test_integrated_once_per_branch(self, monkeypatch):
        calls = record_spans(monkeypatch)
        b = solve_inhom_general(P2, 0.5, 1.0, 0.8)[0]
        copy = dataclasses.replace(b, u=b.u + 1.0)
        reflected = reflect_branch(b)
        assert calls == []
        spans = [x.span.hex() for x in (b, copy, reflected, b)]
        assert calls == [(b.slope, b.domain)]
        assert spans == [spans[0]] * 4

    def test_pickled_before_its_first_read(self, monkeypatch):
        calls = record_spans(monkeypatch)
        b = solve_inhom_general(P2, -0.5, 1.0, 2.0)[0]
        copy = pickle.loads(pickle.dumps(b))
        assert calls == []
        assert copy.span.hex() == b.span.hex()
        assert len(calls) == 2


@pytest.mark.parametrize("m", [2, 3])
def test_one_case_has_the_bits_of_every_case(m):
    """solve(req, case=tag) builds the one branch of that piece, with the
    bits of the same branch of solve(req), on every two-piece taxonomy
    call; a tag outside the plan gives []."""
    p = NormParameter(m)
    calls = [(name, args) for name, args, tags in workloads()._taxonomy_calls(m)
             if len(tags) == 2]
    assert len(calls) == 6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for name, args in calls:
            full = getattr(solver, name)(p, *args)
            req = full[0].request
            for b in full:
                one, = solve(req, case=b.case)
                assert one.case is b.case
                for field in ("alpha", "u", "du"):
                    assert (getattr(one, field).tobytes()
                            == getattr(b, field).tobytes()), (name, b.case)
                assert one.span.hex() == b.span.hex()
                assert one.quad_error.hex() == b.quad_error.hex()
                assert one.anchor == b.anchor
            other = next(tag for tag in CaseTag
                         if tag not in {b.case for b in full})
            assert solve(req, case=other) == []


@pytest.mark.parametrize("m", range(1, 7))
def test_span_is_integrate_singulars(m):
    """A branch's span is integrated on its first read; on every
    taxonomy branch it has the bits of integrate_singular on the branch's
    law, domain and tolerance: the value, inf where it diverges, and NaN
    where it raises ToleranceError."""
    p = NormParameter(m)
    laws = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for name, args, _ in workloads()._taxonomy_calls(m):
            built = getattr(solver, name)(p, *args)
            for b in built if isinstance(built, list) else [built]:
                if not isinstance(b.slope, SlopeLaw):
                    continue
                assert b.scale == 1.0
                try:
                    res = integrate_singular(b.slope, b.domain,
                                             b.request.tol)
                    want = res.value if res.finite else math.inf
                except ToleranceError:
                    want = math.nan
                assert b.span.hex() == want.hex(), (name, args, b.case)
                laws += 1
    assert laws >= 25
