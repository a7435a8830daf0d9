"""The reference integrator of ``oracle``: adaptive bisection on the fixed
15-point panel, and the nested integral with one inner integral per node."""

import numpy as np
import pytest

from oracle import nested, quad, rayleigh_quotient
from spectralgap.geometry import Ball
from spectralgap.quadrature import kronrod


def test_bisection_reaches_the_tolerance():
    value, error = quad(np.sqrt, 0.0, 1.0, rel_tol=1e-9)
    assert abs(value - 2.0 / 3.0) < 1e-8
    assert error <= 1e-9 * value
    value, error = quad(lambda x: np.stack([np.sin(x), np.sqrt(x)], axis=-1), 0.0, np.pi,
                        rel_tol=1e-12)
    assert np.allclose(value, [2.0, 2.0 / 3.0 * np.pi**1.5], rtol=1e-11)


def test_an_accepted_first_panel_is_the_fixed_rule():
    f = np.exp
    assert quad(f, 0.0, 1.0, rel_tol=1e-8) == kronrod(f, 0.0, 1.0)


def test_nested_bisects_inner_integrals_per_node():
    # the inner integrand has a square-root kink at s = x
    value, _ = nested(lambda x, s: np.sqrt(np.abs(s - x)), 0.0, 1.0,
                      lambda x: 0.0, lambda x: 1.0)
    assert value == pytest.approx(8.0 / 15.0, rel=1e-8)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan")])
def test_tolerance_checked_before_any_call(rel_tol):
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)
        return wrapped

    with pytest.raises(ValueError, match="tolerance"):
        quad(counted(np.sin), 0.0, 1.0, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="tolerance"):
        nested(counted(lambda x, s: x * s), 0.0, 1.0, counted(lambda x: 0.0),
               counted(lambda x: 1.0), rel_tol=rel_tol)
    with pytest.raises(ValueError, match="tolerance"):
        rayleigh_quotient(Ball(), counted(lambda pts: (pts[:, 0], pts)), rel_tol=rel_tol)
    assert calls == []


def test_panel_budget_exhaustion():
    with pytest.raises(RuntimeError, match="did not converge within 5 panels"):
        quad(lambda x: np.abs(np.sin(200.0 / (x + 1e-3))), 0.0, 1.0,
             rel_tol=1e-12, max_panels=5)
