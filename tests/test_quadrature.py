import numpy as np
import pytest

import oracle
from spectralgap import testfn as tf
from spectralgap.attainable import DEFAULT_EPS_GRID
from spectralgap.quadrature import kronrod, kronrod_2d


def test_polynomial_exact():
    value, error = kronrod(lambda x: x * x, 0.0, 1.0)
    assert abs(value - 1.0 / 3.0) < 1e-14
    assert error < 1e-14


def test_sine():
    value, error = kronrod(np.sin, 0.0, np.pi)
    assert abs(value - 2.0) < 1e-12
    assert error < 1e-10


def test_vector_components():
    value, error = kronrod(lambda x: np.column_stack([x, x * x, np.exp(x)]), 0.0, 1.0)
    expected = np.array([0.5, 1.0 / 3.0, np.e - 1.0])
    assert np.allclose(value, expected, rtol=1e-12)
    assert error.shape == (3,)


def test_error_estimate_bounds_true_error():
    # oscillatory integrand with a known value
    value, error = kronrod(lambda x: np.cos(10.0 * x), 0.0, 1.0)
    exact = np.sin(10.0) / 10.0
    assert abs(value - exact) <= max(error, 1e-13)


def test_sqrt_endpoint():
    # one panel cannot resolve the endpoint singularity, but its estimate says so
    value, error = kronrod(np.sqrt, 0.0, 1.0)
    assert abs(value - 2.0 / 3.0) <= error < 1e-3


def test_empty_interval():
    """An empty interval gives zeros of the integrand's shape: floats for a
    1-d integrand, arrays of shape (k,) for a vector-valued one."""
    value, error = kronrod(np.sin, 1.0, 1.0)
    assert type(value) is type(error) is float and value == error == 0.0
    value, error = kronrod(lambda x: np.column_stack([x, x * x]), 1.0, 1.0)
    assert value.shape == error.shape == (2,)
    assert (value == 0.0).all() and (error == 0.0).all()
    with pytest.raises(ValueError, match="empty integration interval"):
        kronrod(np.sin, 1.0, 0.0)


def test_empty_batch():
    value, error = kronrod(np.sin, [], [])
    assert value.shape == error.shape == (0,)
    value, error = kronrod(lambda x: np.stack([x, x * x], axis=-1), np.zeros(0), np.zeros(0))
    assert value.shape == error.shape == (0, 2)


@pytest.mark.parametrize("f", [
    lambda x: x.ravel(),                               # m blocks of 15 nodes, flat
    lambda x: x[..., :14],                             # one node short per interval
    lambda x: x[..., None, None] * np.ones((2, 2)),    # two component axes
])
def test_integrand_shape_refused(f):
    """Values must keep the nodes' shape S + (15,), with at most one
    component axis after it."""
    with pytest.raises(ValueError, match=r"returned shape .* for nodes of shape \(3, 15\)"):
        kronrod(f, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])


def test_nested_integrand_must_broadcast_over_the_inner_nodes():
    # x alone has shape S + (15, 1): one value per outer node, not per pair
    with pytest.raises(ValueError, match="integrand returned shape"):
        kronrod_2d(lambda x, s: x, 0.0, 1.0, np.ones_like)


@pytest.mark.parametrize("m", [1, 15, 180])
def test_batch_gives_each_interval_its_own_sums(m):
    """m intervals in one call give, bit for bit, the value and the estimate
    of each interval integrated alone."""
    rng = np.random.default_rng(m)
    a = rng.uniform(-2.0, 1.0, m)
    b = a + rng.uniform(0.0, 3.0, m)

    def f(x):
        return np.stack([np.sin(3.0 * x), np.exp(x), x**3], axis=-1)

    value, error = kronrod(f, a, b)
    assert value.shape == error.shape == (m, 3)
    for i in range(m):
        alone = kronrod(f, a[i], b[i])
        assert np.array_equal(value[i], alone[0]) and np.array_equal(error[i], alone[1])


@pytest.mark.parametrize("f", [lambda x, s: np.cos(x * s),
                               lambda x, s: np.stack([np.cos(x * s), np.sin(x * s)], axis=-1)])
def test_nested_batch_takes_each_intervals_own_inner_error(f):
    """The inner integrand oscillates with x: slowly on [0, 1], fast on
    [20, 21], so the two outer intervals' inner errors differ by orders of
    magnitude.  Each interval of the batch keeps its own estimate; one
    largest inner error over the batch would give both the larger one."""
    value, error = kronrod_2d(f, [0.0, 20.0], [1.0, 21.0], np.ones_like)
    for i, (lo, up) in enumerate([(0.0, 1.0), (20.0, 21.0)]):
        alone = kronrod_2d(f, lo, up, np.ones_like)
        assert np.array_equal(value[i], alone[0]) and np.array_equal(error[i], alone[1])
    assert np.all(error[0] < 1e-6 * error[1])


@pytest.mark.parametrize("f, shape", [(lambda x, s: x * s, ()),
                                      (lambda x, s: np.stack(np.broadcast_arrays(x, x * s, s),
                                                             axis=-1), (3,))])
def test_nested_empty_outer_interval_keeps_the_integrand_shape(f, shape):
    value, error = kronrod_2d(f, 0.5, 0.5, np.ones_like)
    assert np.shape(value) == np.shape(error) == shape
    assert np.all(value == 0.0) and np.all(error == 0.0)
    # the same shape as a non-empty interval
    assert np.shape(kronrod_2d(f, 0.0, 0.5, np.ones_like)[0]) == shape


def test_nested_triangle_area():
    value, error = kronrod_2d(lambda x, s: np.ones_like(s), 0.0, 1.0, lambda x: 1.0 - x)
    assert abs(value - 0.5) < 1e-14
    assert error < 1e-14


def test_nested_vector_gaussian_moments():
    # int over unit square of [1, x*y]
    def f(x, ys):
        return np.stack([np.ones_like(ys), x * ys], axis=-1)

    value, _ = kronrod_2d(f, 0.0, 1.0, np.ones_like)
    assert np.allclose(value, [1.0, 0.25], rtol=1e-14)


@pytest.mark.parametrize("vector", [False, True])
def test_degenerate_inner_intervals_never_reach_integrand(vector):
    calls = []

    def f(x, s):
        calls.append(len(s))
        if vector:
            return np.stack(np.broadcast_arrays(np.ones_like(s), x), axis=-1)
        return np.ones_like(s)

    # zero-width inner intervals weigh nothing
    value, error = kronrod_2d(f, 0.0, 1.0, np.zeros_like)
    assert np.shape(value) == ((2,) if vector else ())
    assert np.all(value == 0.0) and np.all(error == 0.0)
    # for x > 0.5 the inner interval [0, 0.5 - x] is reversed: refused before
    # the integrand is called
    calls.clear()
    with pytest.raises(ValueError, match="empty integration interval"):
        kronrod_2d(f, 0.0, 1.0, lambda x: 0.5 - x)
    assert calls == []


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_bounds_equal_per_node_loop(dim, monkeypatch):
    """Every bound on the default grid and at 0.001 and 0.3 is what the
    adaptive per-node oracle gives at relative tolerance 1e-8, bit for bit:
    the oracle accepts every first panel, and the tensor rule's batched
    inner panels equal one panel per outer node."""
    eps_grid = sorted(set(DEFAULT_EPS_GRID) | {0.001, 0.3})
    fixed = [(tf.lemma1_rayleigh(eps, dim), tf.lemma2_rayleigh(eps, dim)) for eps in eps_grid]
    # a scalar bound integrates each chart as the batch of one interval; its
    # integrands broadcast eps over the batch axis and, in 2-d, the outer
    # node axis, which the oracle's nodes lack: one_interval adds and drops them
    def one_interval(f, a, b, *hi):
        ((lo,), (up,)) = a, b
        lead = tuple(range(1 + len(hi)))
        g = lambda *nodes: f(*(np.expand_dims(x, lead) for x in nodes))[(0,) * len(lead)]
        if hi:
            value, error = oracle.nested(g, lo, up, lambda x: 0.0,
                                         lambda x: hi[0](np.full((1, 1), x))[0, 0], rel_tol=1e-8)
        else:
            value, error = oracle.quad(g, lo, up, rel_tol=1e-8)
        return value[None], error[None]

    monkeypatch.setattr(tf, "kronrod", one_interval)
    monkeypatch.setattr(tf, "kronrod_2d", one_interval)
    adaptive = [(tf.lemma1_rayleigh(eps, dim), tf.lemma2_rayleigh(eps, dim)) for eps in eps_grid]
    assert fixed == adaptive


def counting(quad, calls):
    """``quad`` with its integrand wrapped to count calls in ``calls[0]``."""
    def wrapped(f, *args):
        def counted(*fargs):
            calls[0] += 1
            return f(*fargs)
        return quad(counted, *args)
    return wrapped


def test_default_bounds_call_the_integrand_once_per_panel(monkeypatch):
    # 24 bounds at N = 2: one call per cap integral and one per cone or slab
    # integral; one call per outer node would make 384
    calls = [0]
    monkeypatch.setattr(tf, "kronrod", counting(kronrod, calls))
    monkeypatch.setattr(tf, "kronrod_2d", counting(kronrod_2d, calls))
    for eps in DEFAULT_EPS_GRID:
        tf.lemma1_rayleigh(eps)
        tf.lemma2_rayleigh(eps)
    assert calls[0] == 48
