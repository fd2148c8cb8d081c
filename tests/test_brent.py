"""Parity of the in-house Brent root finder with scipy.optimize.brentq.

bracket_roots refines every bracket with quadrature._brent, a port of
scipy's brentq loop, and the ODE oracle locates its events with it.  The
roots must agree to the bit, so that root locations, and every table
built from them, do not depend on which of the two ran.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lwsurf.quadrature import _brent
from lwsurf.verify import _EVENT_XTOL

# the (xtol, rtol) pair bracket_roots passes for sign changes, a looser
# xtol, and the pair ode_oracle passes to locate its events
TOLERANCES = [(1e-15, 8.9e-16), (1e-14, 8.9e-16), (_EVENT_XTOL, _EVENT_XTOL)]

FUNCTIONS = {
    "cubic": lambda x: x ** 3 - 2.0 * x - 5.0,
    "power_7": lambda x: x ** 7 - 0.5,
    "power_frac": lambda x: abs(x) ** 2.5 * math.copysign(1.0, x) - 0.3,
    "cos": lambda x: math.cos(x) - x,
    "exp": lambda x: math.exp(x) - 3.0,
    "log": lambda x: 1.0 - (x + 4.0) * (1.5 - math.log(x + 4.0)),
    # a simple root 1e-6 or 1e-9 beside a double one
    "near_double_6": lambda x: (x - 0.3) ** 2 * (x - 0.300001),
    "near_double_9": lambda x: (x + 1.2) ** 2 * (x + 1.2 - 1e-9),
    # values so small that fa * fb underflows to zero, and, for the cubic,
    # the interpolation step divides by an underflowed zero
    "tiny": lambda x: 1e-200 * (x - 0.7),
    "tiny_cubic": lambda x: 1e-160 * (x - 0.3) ** 3,
}


def outcome(solver, f, a, b, xtol, rtol):
    try:
        return solver(f, a, b, xtol=xtol, rtol=rtol).hex()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("xtol, rtol", TOLERANCES)
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_random_brackets_bit_identical(name, xtol, rtol):
    f = FUNCTIONS[name]
    rng = np.random.default_rng(sorted(FUNCTIONS).index(name))
    lo = rng.uniform(-3.0, 1.0, 300)
    hi = lo + rng.uniform(1e-9, 5.0, 300)
    solved = 0
    for a, b in zip(lo.tolist(), hi.tolist()):
        want = outcome(brentq, f, a, b, xtol, rtol)
        assert outcome(_brent, f, a, b, xtol, rtol) == want, (a, b)
        solved += not want.startswith("ValueError")
    assert solved >= 10  # enough of the brackets hold a root


def test_numpy_scalar_values_and_ends():
    f = lambda x: np.float64(x) ** 5 - 0.1
    a, b = np.float64(0.0), np.float64(2.0)
    for xtol, rtol in TOLERANCES:
        assert _brent(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol,
                                                     rtol=rtol)


def test_root_at_an_end_is_returned_as_is():
    assert _brent(lambda x: x - 1.0, 1.0, 3.0, 1e-15, 8.9e-16) == 1.0
    assert _brent(lambda x: x - 3.0, 1.0, 3.0, 1e-15, 8.9e-16) == 3.0


def test_nan_value_raises_like_scipy():
    f = lambda x: math.nan if x > 0.5 else x - 0.75
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        _brent(f, 0.0, 1.0, 1e-15, 8.9e-16)


def test_same_sign_ends_raise_like_scipy():
    f = lambda x: x * x + 1.0
    with pytest.raises(ValueError, match="different signs"):
        brentq(f, -1.0, 2.0)
    with pytest.raises(ValueError, match="different signs"):
        _brent(f, -1.0, 2.0, 1e-15, 8.9e-16)


def test_maxiter_exhausted_raises_like_scipy():
    f = lambda x: x ** 3 - 0.1234567
    message = "Failed to converge after 3 iterations."
    with pytest.raises(RuntimeError, match=message):
        brentq(f, -5.0, 10.0, xtol=1e-15, rtol=8.9e-16, maxiter=3)
    with pytest.raises(RuntimeError, match=message):
        _brent(f, -5.0, 10.0, 1e-15, 8.9e-16, maxiter=3)


def test_same_evaluations_as_scipy():
    calls = {"scipy": [], "port": []}

    def recorder(key):
        def f(x):
            calls[key].append(x)
            return math.cos(x) - x
        return f

    brentq(recorder("scipy"), 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    _brent(recorder("port"), 0.0, 1.0, 1e-15, 8.9e-16)
    assert [x.hex() for x in calls["port"]] == [x.hex()
                                                for x in calls["scipy"]]
