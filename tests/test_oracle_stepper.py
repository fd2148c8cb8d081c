"""The ODE oracle's DOP853 stepper against scipy's solve_ivp.

The stepper runs scipy's DOP853 on two Python floats; solve_ivp, used
here only as the reference, runs the same method on numpy arrays.  Both
follow the same step rules, so they agree to rounding.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lwsurf import NormParameter, ode_oracle
from lwsurf import verify
from lwsurf.verify import _dop853, _ode_rhs


def solve_ivp_run(rhs, t0, y0, t_bound, t_eval, events, rtol, atol):
    """``verify._dop853`` through solve_ivp: same arguments, same output."""
    functions = []
    for g, direction in events:
        def event(t, y, g=g):
            return g(t, y)
        event.terminal = True
        event.direction = direction
        functions.append(event)
    sol = solve_ivp(rhs, (t0, t_bound), list(y0), method="DOP853",
                    rtol=rtol, atol=atol, events=functions or None,
                    t_eval=t_eval)
    assert sol.status >= 0, sol.message
    run = verify._Trajectory(t=list(sol.t), u=list(sol.y[0]),
                             du=list(sol.y[1]), rhs_evals=sol.nfev)
    if sol.status == 1:
        run.event = next(k for k, te in enumerate(sol.t_events) if len(te))
        run.t_event = float(sol.t_events[run.event][0])
    return run


def oscillator(t, y):
    """u'' = -u, so u = sin t and u' = cos t from (0, 1) at t = 0."""
    return y[1], -y[0]


def both_runs(t_bound, t_eval, events):
    args = (oscillator, 0.0, (0.0, 1.0), t_bound, t_eval, events,
            1e-10, 1e-12)
    return _dop853(*args), solve_ivp_run(*args)


class TestEvents:
    def test_terminal_event(self):
        t_eval = list(np.linspace(0.1, 3.0, 30))
        ours, ref = both_runs(5.0, t_eval, [(lambda t, y: y[1], 0)])
        assert ours.event == ref.event == 0
        assert ours.t_event == pytest.approx(math.pi / 2, abs=1e-10)
        assert ours.t_event == pytest.approx(ref.t_event, rel=1e-14)
        # grid points up to the event are kept, and the event is not one
        assert ours.t == ref.t == [t for t in t_eval if t <= math.pi / 2]
        np.testing.assert_allclose(ours.u, ref.u, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(ours.du, ref.du, rtol=1e-12, atol=1e-15)
        assert ours.rhs_evals == ref.rhs_evals

    def test_directional_event_backward(self):
        # integrating toward negative t, u + 1/2 falls through zero at
        # -pi/6 and rises through it at -5*pi/6; only the rise may stop
        # the run.  The decoy with direction -1 never sees a fall of u'.
        events = [(lambda t, y: y[1] + 2.0, -1),
                  (lambda t, y: y[0] + 0.5, +1)]
        t_eval = list(np.linspace(-0.1, -4.9, 49))
        ours, ref = both_runs(-5.0, t_eval, events)
        assert ours.event == ref.event == 1
        assert ours.t_event == pytest.approx(-5 * math.pi / 6, abs=1e-10)
        assert ours.t_event == pytest.approx(ref.t_event, rel=1e-14)
        # the grid points passed before the event are kept
        assert ours.t == ref.t == [t for t in t_eval if t >= ours.t_event]
        np.testing.assert_allclose(ours.u, np.sin(ours.t), atol=1e-9)
        np.testing.assert_allclose(ours.u, ref.u, rtol=1e-12, atol=1e-15)
        assert ours.rhs_evals == ref.rhs_evals


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
        rhs = _ode_rhs(NormParameter(m), -0.5, 1.0, -1.0)
        with np.errstate(all="ignore"):
            expected = rhs(np.float64(1.3), np.array([0.2, 0.0]))
        got = rhs(1.3, (0.2, 0.0))
        assert got == (0.0, 0.0)
        assert got == tuple(float(v) for v in expected)
        assert all(type(v) is float for v in got)
