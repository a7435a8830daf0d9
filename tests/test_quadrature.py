import numpy as np
import pytest

from spectralgap import testfn as tf
from spectralgap.attainable import DEFAULT_EPS_GRID
from spectralgap.geometry import Ball
from spectralgap.quadrature import QuadratureError, QuadResult, quad_adaptive, quad_nested_2d


def test_polynomial_exact():
    res = quad_adaptive(lambda x: x * x, 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-14


def test_sine():
    res = quad_adaptive(np.sin, 0.0, np.pi, rel_tol=1e-12)
    assert abs(res.value - 2.0) < 1e-12
    assert res.error < 1e-10


def test_vector_components():
    res = quad_adaptive(lambda x: np.column_stack([x, x * x, np.exp(x)]), 0.0, 1.0)
    expected = np.array([0.5, 1.0 / 3.0, np.e - 1.0])
    assert np.allclose(res.value, expected, rtol=1e-12)
    assert res.error.shape == (3,)


def test_error_estimate_bounds_true_error():
    # oscillatory integrand with a known value
    res = quad_adaptive(lambda x: np.cos(10.0 * x), 0.0, 1.0, rel_tol=1e-10)
    exact = np.sin(10.0) / 10.0
    assert abs(res.value - exact) <= max(res.error, 1e-13)


def test_sqrt_endpoint():
    res = quad_adaptive(np.sqrt, 0.0, 1.0, rel_tol=1e-9)
    assert abs(res.value - 2.0 / 3.0) < 1e-8


def test_empty_interval():
    """An empty interval gives zeros of the integrand's shape: a float for
    a 1-d integrand, arrays of shape (k,) for a vector-valued one."""
    res = quad_adaptive(np.sin, 1.0, 1.0)
    assert type(res.value) is type(res.error) is float and res.value == res.error == 0.0
    res = quad_adaptive(lambda x: np.column_stack([x, x * x]), 1.0, 1.0)
    assert res.value.shape == res.error.shape == (2,) and res.panels == 0
    assert (res.value == 0.0).all() and (res.error == 0.0).all()
    with pytest.raises(ValueError):
        quad_adaptive(np.sin, 1.0, 0.0)


@pytest.mark.parametrize("f, shape", [(lambda x, s: x * s, ()),
                                      (lambda x, s: np.column_stack([x, x * s, s]), (3,))])
def test_nested_empty_outer_interval_keeps_the_integrand_shape(f, shape):
    res = quad_nested_2d(f, 0.5, 0.5, lambda x: 0.0, lambda x: 1.0)
    assert np.shape(res.value) == np.shape(res.error) == shape and res.panels == 0
    assert np.all(res.value == 0.0) and np.all(res.error == 0.0)
    # the same shape as a non-empty interval
    assert np.shape(quad_nested_2d(f, 0.0, 0.5, lambda x: 0.0, lambda x: 1.0).value) == shape


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan")])
def test_tolerance_checked_before_any_call(rel_tol):
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)
        return wrapped

    with pytest.raises(ValueError, match="tolerance"):
        quad_adaptive(counted(np.sin), 0.0, 1.0, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="tolerance"):
        quad_nested_2d(counted(lambda x, s: x * s), 0.0, 1.0, counted(lambda x: 0.0),
                       counted(lambda x: 1.0), rel_tol=rel_tol)
    with pytest.raises(ValueError, match="tolerance"):
        tf.rayleigh_quotient(Ball(), counted(lambda pts: (pts[:, 0], pts)), rel_tol=rel_tol)
    assert calls == []


def test_panel_budget_exhaustion():
    with pytest.raises(QuadratureError):
        quad_adaptive(lambda x: np.abs(np.sin(200.0 / (x + 1e-3))), 0.0, 1.0,
                      rel_tol=1e-12, max_panels=5)


def test_nested_triangle_area():
    res = quad_nested_2d(lambda x, s: np.ones_like(s), 0.0, 1.0,
                         lambda x: 0.0, lambda x: 1.0 - x)
    assert abs(res.value - 0.5) < 1e-10


def test_nested_vector_gaussian_moments():
    # int over unit square of [1, x*y]
    def f(x, ys):
        return np.column_stack([np.ones_like(ys), x * ys])

    res = quad_nested_2d(f, 0.0, 1.0, lambda x: 0.0, lambda x: 1.0)
    assert np.allclose(res.value, [1.0, 0.25], rtol=1e-9)


def per_node_nested(f, a, b, lo, hi, rel_tol=1e-8, max_panels=4000):
    """Reference nested integral: one adaptive inner integral per outer node,
    each with its own integrand calls."""
    inner_err = 0.0

    def outer(xs):
        nonlocal inner_err
        rows = []
        for x in xs:
            s_lo, s_hi = lo(x), hi(x)
            assert s_hi > s_lo
            res = quad_adaptive(lambda s: f(np.full_like(s, x), s), s_lo, s_hi,
                                rel_tol=0.1 * rel_tol, max_panels=max_panels)
            inner_err = max(inner_err, float(np.max(np.atleast_1d(res.error))))
            rows.append(res.value)
        return np.array(rows)

    res = quad_adaptive(outer, a, b, rel_tol=rel_tol, max_panels=max_panels)
    err = np.atleast_1d(res.error) + (b - a) * inner_err
    if np.ndim(res.value) == 0:
        return QuadResult(res.value, float(err[0]), res.panels)
    return QuadResult(res.value, err, res.panels)


def counting(quad, calls):
    """``quad`` with its integrand wrapped to count calls in ``calls[0]``."""
    def wrapped(f, *args, **kwargs):
        def counted(*fargs):
            calls[0] += 1
            return f(*fargs)
        return quad(counted, *args, **kwargs)
    return wrapped


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_bounds_equal_per_node_loop(dim, monkeypatch):
    batched = [(tf.lemma1_rayleigh(eps, dim), tf.lemma2_rayleigh(eps, dim))
               for eps in DEFAULT_EPS_GRID]
    monkeypatch.setattr(tf, "quad_nested_2d", per_node_nested)
    for eps, pair in zip(DEFAULT_EPS_GRID, batched):
        for bound, reference in zip(pair, (tf.lemma1_rayleigh(eps, dim),
                                           tf.lemma2_rayleigh(eps, dim))):
            assert bound.quotient == reference.quotient
            assert bound.error_est == reference.error_est


@pytest.mark.parametrize("f", [
    lambda x, s: np.sqrt(np.abs(s - x)),
    lambda x, s: np.column_stack([np.sqrt(np.abs(s - x)), x * s]),
])
def test_inner_bisection_equals_per_node_loop(f):
    calls = [0]
    res = counting(quad_nested_2d, calls)(f, 0.0, 1.0, lambda x: 0.0, lambda x: 1.0)
    ref = per_node_nested(f, 0.0, 1.0, lambda x: 0.0, lambda x: 1.0)
    assert np.array_equal(res.value, ref.value)
    assert np.array_equal(res.error, ref.error)
    assert res.panels == ref.panels
    # one call per outer panel, the rest are inner bisections
    assert calls[0] > res.panels
    assert np.allclose(np.atleast_1d(res.value)[0], 8.0 / 15.0, rtol=1e-8)


@pytest.mark.parametrize("vector", [False, True])
def test_degenerate_inner_intervals_never_reach_integrand(vector):
    # for x >= 0.5 the inner interval [0, 0.5 - x] is empty or reversed
    def f(x, s):
        assert np.all(x < 0.5) and np.all(s <= 0.5 - x)
        return np.column_stack([np.ones_like(s), x]) if vector else np.ones_like(s)

    res = quad_nested_2d(f, 0.0, 1.0, lambda x: 0.0, lambda x: 0.5 - x)
    assert np.allclose(res.value, [0.125, 1.0 / 48.0] if vector else 0.125, rtol=1e-8)


def test_default_bounds_call_the_integrand_once_per_panel(monkeypatch):
    # 24 bounds at N = 2: one call per cap integral and one per outer panel of
    # each cone or slab integral; one call per outer node would make 384
    calls = [0]
    monkeypatch.setattr(tf, "quad_adaptive", counting(quad_adaptive, calls))
    monkeypatch.setattr(tf, "quad_nested_2d", counting(quad_nested_2d, calls))
    for eps in DEFAULT_EPS_GRID:
        tf.lemma1_rayleigh(eps)
        tf.lemma2_rayleigh(eps)
    assert calls[0] <= 48
