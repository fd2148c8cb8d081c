"""The ODE oracle's DOP853 stepper against scipy's solve_ivp and against
its loop form.

The stepper runs scipy's DOP853 on two Python floats; solve_ivp, used
here only as the reference, runs the same method on numpy arrays.  Both
follow the same step rules, so they agree to rounding.  The loop form
below runs the same stages as ``verify._dop853``'s straight-line code,
one tableau row at a time, and must give the same bits.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lwsurf import (
    NormParameter,
    ode_oracle,
    oriented_radius_chart_curvatures,
    solve_constant_k2,
    solve_inhom_general,
)
from lwsurf import verify
from lwsurf.normgeom import _exponents
from lwsurf.verify import _dop853, _ode_rhs

from conftest import instances


def solve_ivp_run(f, t0, y0, t_bound, t_eval, events, rtol, atol):
    """``verify._dop853`` through solve_ivp: same arguments, same output."""
    functions = []
    for g, direction in events:
        def event(t, y, g=g):
            return g(t, y)
        event.terminal = True
        event.direction = direction
        functions.append(event)
    sol = solve_ivp(lambda t, y: (y[1], f(t, y[1])), (t0, t_bound),
                    list(y0), method="DOP853", rtol=rtol, atol=atol,
                    events=functions or None, t_eval=t_eval)
    assert sol.status >= 0, sol.message
    run = verify._Trajectory(t=list(sol.t), u=list(sol.y[0]),
                             du=list(sol.y[1]), rhs_evals=sol.nfev)
    if sol.status == 1:
        run.event = next(k for k, te in enumerate(sol.t_events) if len(te))
        run.t_event = float(sol.t_events[run.event][0])
    return run


def dot(coefficients, k) -> float:
    """sum(c * x) added left to right, as builtins.sum added floats before
    Python 3.12 made it compensated."""
    total = 0.0
    for c, x in zip(coefficients, k):
        total += c * x
    return total


def loop_dense(rhs, t_old, y_old, y, h, k):
    """The interpolant of one step, a tableau row at a time."""
    for a, c in zip(verify._A_EXTRA, verify._C_EXTRA):
        stage = rhs(t_old + c * h, tuple(yc + dot(a, kc) * h
                                         for yc, kc in zip(y_old, k)))
        for kc, fc in zip(k, stage):
            kc.append(fc)
    coeffs = []
    for yc_old, yc, kc in zip(y_old, y, k):
        dy = yc - yc_old
        coeffs.append([dy, h * kc[0] - dy, 2 * dy - h * (kc[12] + kc[0])]
                      + [h * dot(d, kc) for d in verify._D])

    def at(t):
        x = (t - t_old) / h
        x1 = 1 - x
        values = []
        for (F0, F1, F2, F3, F4, F5, F6), yc_old in zip(coeffs, y_old):
            values.append(((((((F6 * x + F5) * x1 + F4) * x + F3) * x1 + F2)
                            * x + F1) * x1 + F0) * x + yc_old)
        return tuple(values)

    return at


def loop_dop853(f, t0, y0, t_bound, t_eval, events, rtol, atol):
    """``verify._dop853`` with the stages of both components of
    y' = (u', f(t, u')) formed row by row from the tableau."""

    def rhs(t, y):
        return y[1], f(t, y[1])

    run = verify._Trajectory()
    direction = 1.0 if t_bound >= t0 else -1.0
    t, (u, v) = t0, y0
    fu, fv = rhs(t, (u, v))
    run.rhs_evals = 2
    interval = abs(t_bound - t0)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = verify._rms(u / su, v / sv), verify._rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    hd = h0 * direction
    f1u, f1v = rhs(t + hd, (u + hd * fu, v + hd * fv))
    d2 = verify._rms((f1u - fu) / su, (f1v - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -verify._ERROR_EXPONENT
    h_abs = min(100 * h0, h1, interval)

    g = [ev(t, (u, v)) for ev, _ in events]
    i_eval = 0
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("required step size is less than "
                                   "spacing between numbers")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            ku, kv = [fu], [fv]
            for a, c in zip(verify._A, verify._C):
                ku_s, kv_s = rhs(t + c * h, (u + dot(a, ku) * h,
                                             v + dot(a, kv) * h))
                ku.append(ku_s)
                kv.append(kv_s)
            u_new = u + h * dot(verify._B, ku)
            v_new = v + h * dot(verify._B, kv)
            fu_new, fv_new = rhs(t + h, (u_new, v_new))
            ku.append(fu_new)
            kv.append(fv_new)
            run.rhs_evals += 12
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5 = math.hypot(dot(verify._E5, ku) / su,
                            dot(verify._E5, kv) / sv) ** 2
            e3 = math.hypot(dot(verify._E3, ku) / su,
                            dot(verify._E3, kv) / sv) ** 2
            if e5 == 0.0 and e3 == 0.0:
                error = 0.0
            else:
                error = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
            if error < 1.0:
                if error == 0.0:
                    factor = verify._MAX_FACTOR
                else:
                    factor = min(verify._MAX_FACTOR, verify._SAFETY
                                 * error ** verify._ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(verify._MIN_FACTOR,
                         verify._SAFETY * error ** verify._ERROR_EXPONENT)
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
            dense = loop_dense(rhs, t_old, (u_old, v_old), (u, v), h,
                               (ku, kv))
            run.rhs_evals += 3
        if active:
            roots = [(verify._brent(lambda s, ev=events[k][0]: ev(s, dense(s)),
                                    t_old, t, verify._EVENT_XTOL,
                                    verify._EVENT_XTOL), k)
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


def bits(run) -> tuple:
    """Every field of a trajectory, floats by ``float.hex``."""
    return ([x.hex() for x in run.t], [x.hex() for x in run.u],
            [x.hex() for x in run.du], run.event, run.t_event.hex(),
            run.rhs_evals, run.steps, run.rejected_steps)


@pytest.fixture
def checked_runs(monkeypatch) -> list:
    """The oracle's runs, each checked bit for bit against
    ``loop_dop853`` as it is made."""
    runs = []

    def checked(*args, **kwargs):
        ours = _dop853(*args, **kwargs)
        assert bits(ours) == bits(loop_dop853(*args, **kwargs))
        runs.append(ours)
        return ours

    monkeypatch.setattr(verify, "_dop853", checked)
    return runs


def circle():
    """u'' of the unit circle u = sqrt(1 - alpha^2): at m = 1 the relation
    k1 + k2 = -2, oriented by u' < 0."""
    return _ode_rhs(NormParameter(1), 1.0, -2.0, -1.0)


# (alpha, (u, u')) on the unit circle
START = (0.5, (math.sqrt(0.75), -0.5 / math.sqrt(0.75)))


def both_runs(t_bound, t_eval, events, reference=solve_ivp_run):
    args = (circle(), *START, t_bound, t_eval, events, 1e-10, 1e-12)
    return _dop853(*args), reference(*args)


TERMINAL = (0.95, list(np.linspace(0.52, 0.94, 22)),
            [(lambda t, y: y[1] + 1.0, 0)])
# integrating toward the axis, u' + 1/2 rises through zero at
# 1/sqrt(5) and u - 0.95 at sqrt(0.0975); only the second event may stop
# the run.  The decoy with direction -1 never sees a fall of u'.
BACKWARD = (0.05, list(np.linspace(0.48, 0.06, 22)),
            [(lambda t, y: y[1] + 0.5, -1), (lambda t, y: y[0] - 0.95, +1)])


class TestEvents:
    def test_terminal_event(self):
        t_eval = TERMINAL[1]
        ours, ref = both_runs(*TERMINAL)
        assert ours.event == ref.event == 0
        assert ours.t_event == pytest.approx(math.sqrt(0.5), abs=1e-10)
        assert ours.t_event == pytest.approx(ref.t_event, rel=1e-14)
        # grid points up to the event are kept, and the event is not one
        assert ours.t == ref.t == [t for t in t_eval if t <= math.sqrt(0.5)]
        np.testing.assert_allclose(ours.u, ref.u, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(ours.du, ref.du, rtol=1e-12, atol=1e-15)
        assert ours.rhs_evals == ref.rhs_evals

    def test_directional_event_backward(self):
        ours, ref = both_runs(*BACKWARD)
        assert ours.event == ref.event == 1
        assert ours.t_event == pytest.approx(math.sqrt(0.0975), abs=1e-10)
        assert ours.t_event == pytest.approx(ref.t_event, rel=1e-14)
        # the grid points passed before the event are kept
        assert ours.t == ref.t == [t for t in BACKWARD[1]
                                   if t >= ours.t_event]
        np.testing.assert_allclose(
            ours.u, np.sqrt(1.0 - np.square(ours.t)), atol=1e-10)
        np.testing.assert_allclose(ours.u, ref.u, rtol=1e-12, atol=1e-15)
        assert ours.rhs_evals == ref.rhs_evals


class TestLoopForm:
    """``_dop853``'s straight-line stages against ``loop_dop853``."""

    @pytest.mark.parametrize("case", [TERMINAL, BACKWARD],
                             ids=["terminal", "backward"])
    def test_circle(self, case):
        ours, ref = both_runs(*case, reference=loop_dop853)
        assert bits(ours) == bits(ref)

    def test_every_taxonomy_branch(self, instances_m2, instances_m3,
                                   checked_runs):
        branches = [*instances_m2.values(), *instances_m3.values()]
        for branch in branches:
            ode_oracle(branch)
        assert len(checked_runs) >= len(branches)

    @pytest.mark.parametrize("m", [1, 6])
    def test_taxonomy_at_m_1_and_6(self, m, checked_runs):
        """m = 1 reads s ** 0.0 in dW and s ** 1.0 in W; m = 6 has the
        largest exponents."""
        branches = list(instances(m).values())
        for branch in branches:
            ode_oracle(branch)
        assert len(checked_runs) >= len(branches)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_spheres(self, m, checked_runs):
        p = NormParameter(m)
        branches = [solve_constant_k2(p)] + [
            b for lam, mu in ((0.5, -1.0), (-0.5, -1.0), (-2.0, 1.0))
            for b in solve_inhom_general(p, lam, mu, 0.0)]
        for branch in branches:
            ode_oracle(branch)
        assert len(checked_runs) >= len(branches)


def inline_value(p, lam, mu, sign, a, v):
    """u'' from the oracle's inline lines alone, without f's fallback."""
    namespace = dict(_exponents(p), lam=lam, mu=mu, sign=sign)
    exec(verify._RELATION.format(out="u2", a=repr(a), v=repr(v)), namespace)
    return namespace["u2"]


def logged(f, calls):
    """f, with each radius it is called at appended to calls."""
    def g(a, v):
        calls.append(a)
        return f(a, v)
    return g


class TestInlineStages:
    """The oracle's stages with the relation inline, where Python floats
    raise and the stage falls back to f."""

    # (m, lam, mu, sign): its u'' at u' = 0 is 0, and 1.0 / a raises at a = 0
    RELATION = (2, -0.5, 1.0, 1.0)

    def rhs(self):
        m, lam, mu, sign = self.RELATION
        return _ode_rhs(NormParameter(m), lam, mu, sign)

    def test_start_at_zero_slope(self):
        """At u' = 0, 0.0 ** e_b raises for m > 1, so every stage falls
        back to f, whose u'' is 0: u' stays 0."""
        m, lam, mu, sign = self.RELATION
        with pytest.raises(ZeroDivisionError):
            inline_value(NormParameter(m), lam, mu, sign, 0.5, 0.0)
        f = self.rhs()
        args = (0.5, (1.0, 0.0), 1.5, [0.75, 1.0, 1.25], [], 1e-10, 1e-12)
        ours = _dop853(f, *args)
        assert bits(ours) == bits(loop_dop853(f, *args))
        assert ours.du == [0.0, 0.0, 0.0] and ours.steps > 0

    def test_stage_at_the_axis(self):
        """Integrating toward t_bound = 0, the first attempt lands on
        a = 0, where 1.0 / a raises: its last stage falls back to f, which
        gives a value that is not finite, and the step is rejected."""
        m, lam, mu, sign = self.RELATION
        with pytest.raises(ZeroDivisionError):
            inline_value(NormParameter(m), lam, mu, sign, 0.0, 0.02)
        f = self.rhs()
        args = (0.01, (1.0, 0.02), 0.0, [0.009, 0.006],
                [(lambda a, y: a - 0.005, 0)], 1e-10, 1e-12)
        calls = []
        ours = _dop853(f, *args)
        assert bits(ours) == bits(loop_dop853(logged(f, calls), *args))
        assert 0.0 in calls
        assert ours.rejected_steps > 0 and ours.event == 0

    def test_step_with_an_infinite_last_stage_is_rejected(self):
        """With stage _LAST alone infinite, the zero that E3 and E5 put on
        it makes both error sums NaN, which fails the step's error test,
        while the solution's sum over _B does not read that stage."""
        last = verify._LAST
        stages = {f"k{s}": 1.0 for s in range(last)}
        stages[f"k{last}"] = math.inf
        for e in (verify._E5, verify._E3):
            assert e[last] == 0.0
            assert math.isnan(eval(verify._sum_source(e, "k"), stages))
        assert math.isfinite(eval(verify._sum_source(verify._B, "k"), stages))


class TestOracleParity:
    def test_every_taxonomy_branch(self, instances_m2, instances_m3,
                                   monkeypatch):
        branches = [(m, tag, b)
                    for m, table in ((2, instances_m2), (3, instances_m3))
                    for tag, b in sorted(table.items())]
        ours = [ode_oracle(b) for _, _, b in branches]
        monkeypatch.setattr(verify, "_dop853", solve_ivp_run)
        refs = [ode_oracle(b) for _, _, b in branches]
        for (m, tag, _), a, r in zip(branches, ours, refs):
            where = f"m={m} {tag}"
            assert a.n_points == r.n_points, where
            ta, tr = a.details["truncations"], r.details["truncations"]
            assert ([(t["direction"], t["reason"]) for t in ta]
                    == [(t["direction"], t["reason"]) for t in tr]), where
            for x, y in zip(ta, tr):
                assert x["alpha"] == pytest.approx(y["alpha"], rel=1e-12), \
                    where
            assert abs(a.max_residual - r.max_residual) <= 1e-12, where
            assert a.details["steps"] > 0
            assert a.details["rhs_evals"] > 12 * a.details["steps"]


class TestRhs:
    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_slope_gives_the_ieee_value(self, m):
        # 0.0 ** negative raises on Python floats; the numpy scalar gives
        # inf there, so u'' = finite / inf = 0
        f = _ode_rhs(NormParameter(m), -0.5, 1.0, -1.0)
        with np.errstate(all="ignore"):
            expected = f(np.float64(1.3), np.float64(0.0))
        got = f(1.3, 0.0)
        assert got == 0.0
        assert got == float(expected)
        assert type(got) is float

    def test_u2_satisfies_the_relation_of_normgeoms_curvatures(self):
        """The oracle's u'' is the one the curvatures of normgeom read: at
        (alpha, u', f(alpha, u')) the oriented curvatures satisfy k1 +
        lam*k2 = mu, relative to |mu| + |lam*k2|.  Over 400,000 such
        draws the largest relative residual is 5.1e-16."""
        rng = np.random.default_rng(34)
        for _ in range(5000):
            m = int(rng.integers(1, 7))
            lam, mu = rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0)
            alpha = 10.0 ** rng.uniform(-3.0, 3.0)
            d1 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 4.0)
            p = NormParameter(m)
            d2 = _ode_rhs(p, lam, mu, math.copysign(1.0, d1))(alpha, d1)
            k = oriented_radius_chart_curvatures(p, alpha, d1, d2)
            residual = abs(k.k1 + lam * k.k2 - mu)
            assert residual <= 2e-15 * (abs(mu) + abs(lam * k.k2)), (
                m, lam, mu, alpha, d1)
