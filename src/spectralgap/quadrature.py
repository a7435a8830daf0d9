"""Adaptive Gauss-Kronrod quadrature with interval bisection.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives a per-panel
error estimate; panels with the worst contribution are bisected until the
summed estimate meets the requested relative tolerance.  Integrands may be
vector valued (an array of components integrated in one pass); the tolerance
must then hold for every component.

Integrands are called on batches of panels: both halves of a bisection come
from one call.  The nested 2-d integral takes ``f(x, s)`` elementwise on
paired arrays and computes the first inner panel of every node of an outer
panel in one call; only inner integrals that miss their tolerance there are
bisected further, in the same refinement loop as the 1-d integral.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureError", "QuadResult", "quad_adaptive", "quad_nested_2d"]


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


# Kronrod 15-point abscissae on [-1, 1], positive half; the embedded Gauss
# nodes are entries 1, 3, 5, 7 of this list.
_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG_HALF = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_NODES = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + list(reversed(_XGK_HALF[:-1])))
_WK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_WG = np.zeros(15)
_WG[1:14:2] = list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1]))


@dataclass(frozen=True)
class QuadResult:
    """Integral value, absolute error estimate, and panel count."""

    value: float | np.ndarray
    error: float | np.ndarray
    panels: int


def _panel(f, lo, hi):
    """Kronrod sums of the m intervals [lo[i], hi[i]] from one call of ``f``.

    ``f`` receives the 15 nodes of every interval, interval after interval,
    as one array of 15 m nodes.  Returns the per-interval value, error
    estimate and integral of |f|, each of shape (m, k), and whether ``f``
    returned a 1-d array.  Each interval keeps its own weight products, so
    its sums do not depend on the batch it was evaluated in.
    """
    m = len(lo)
    c = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    raw = np.asarray(f((c[:, None] + hw[:, None] * _NODES).ravel()), dtype=float)
    if raw.ndim not in (1, 2) or raw.shape[0] != 15 * m:
        raise ValueError(f"integrand returned shape {raw.shape} for {15 * m} nodes, "
                         f"expected ({15 * m},) or ({15 * m}, k)")
    scalar = raw.ndim == 1
    vals = raw.reshape(m, 15, 1 if scalar else raw.shape[1])
    absvals = np.abs(vals)
    k15 = np.empty((m, vals.shape[2]))
    g7 = np.empty_like(k15)
    absval = np.empty_like(k15)
    for i in range(m):
        k15[i] = _WK @ vals[i]
        g7[i] = _WG @ vals[i]
        absval[i] = _WK @ absvals[i]
    k15 *= hw[:, None]
    g7 *= hw[:, None]
    absval *= hw[:, None]
    return k15, np.abs(k15 - g7), absval, scalar


def _floor(value, absval, rel_tol):
    """Error each component may carry: the relative tolerance, or rounding
    level of the integral of |f|."""
    return np.maximum(rel_tol * np.abs(value), 1e-15 * absval)


def _refine(f, a, b, val, err, absval, rel_tol, max_panels):
    """Bisect [a, b], whose first panel (val, err, absval) is already known,
    until the summed error meets ``rel_tol`` in every component.

    The panel with the worst error is split next; both halves come from one
    call of ``f``.  Returns (value, error, panels).
    """
    counter = itertools.count()
    heap = [(-float(np.max(err)), next(counter), a, b, val, err, absval)]
    total = val.copy()
    total_err = err.copy()
    total_abs = absval.copy()
    panels = 1
    while True:
        floor = _floor(total, total_abs, rel_tol)
        if np.all(total_err <= floor):
            break
        if panels >= max_panels:
            raise QuadratureError(
                f"quadrature did not converge within {max_panels} panels "
                f"(error {total_err.ravel()} vs tolerance {floor.ravel()})"
            )
        _, _, pa, pb, pval, perr, pabs = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        (lval, rval), (lerr, rerr), (labs, rabs), _ = _panel(
            f, np.array([pa, pm]), np.array([pm, pb]))
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        total_abs += labs + rabs - pabs
        heapq.heappush(heap, (-float(np.max(lerr)), next(counter), pa, pm, lval, lerr, labs))
        heapq.heappush(heap, (-float(np.max(rerr)), next(counter), pm, pb, rval, rerr, rabs))
        panels += 1
    return total, total_err, panels


def quad_adaptive(f, a, b, rel_tol=1e-10, max_panels=4000):
    """Integrate ``f`` over [a, b] to the requested relative tolerance.

    ``f`` maps an array of nodes (n,) to values of shape (n,) or (n, k).
    Returns a :class:`QuadResult`; ``value`` is scalar for 1-d integrands
    and of shape (k,) otherwise, also when a == b (zeros, 0 panels).
    Raises ValueError unless ``rel_tol > 0``.
    """
    if not rel_tol > 0:
        raise ValueError(f"quadrature tolerance must be > 0, got {rel_tol}")
    if b > a:
        val, err, absval, scalar = _panel(f, np.array([a], dtype=float),
                                          np.array([b], dtype=float))
        total, total_err, panels = _refine(f, a, b, val[0], err[0], absval[0], rel_tol,
                                           max_panels)
    elif b == a:
        # one call on no nodes gives the shape of the integrand's values
        val, _, _, scalar = _panel(f, np.empty(0), np.empty(0))
        total, total_err, panels = np.zeros(val.shape[1]), np.zeros(val.shape[1]), 0
    else:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    if scalar:
        return QuadResult(float(total[0]), float(total_err[0]), panels)
    return QuadResult(total, total_err, panels)


def quad_nested_2d(f, a, b, lo, hi, rel_tol=1e-8, max_panels=4000):
    """Integrate ``f(x, s)`` over a < x < b, lo(x) < s < hi(x).

    ``f`` maps paired arrays (x (n,), s (n,)) to shape (n,) or (n, k),
    elementwise; ``lo`` and ``hi`` map one outer node to a float.  The outer
    integral runs adaptively; at each of its panels one call of ``f`` gives
    the first inner panel of every outer node.  Inner integrals that miss
    their tighter tolerance on that panel are bisected on their own.
    Degenerate inner intervals (hi <= lo) contribute zero and are never
    passed to ``f``.  The returned error adds the outer estimate and the
    largest inner one times (b - a).
    """
    inner_tol = 0.1 * rel_tol
    inner_err = 0.0

    def outer_integrand(xs):
        nonlocal inner_err
        s_lo = np.array([lo(x) for x in xs], dtype=float)
        s_hi = np.array([hi(x) for x in xs], dtype=float)
        live = np.flatnonzero(s_hi > s_lo)
        x_live = xs[live]
        s_lo, s_hi = s_lo[live], s_hi[live]
        val, err, absval, scalar = _panel(
            lambda s: f(np.repeat(x_live, 15), s), s_lo, s_hi)
        done = np.all(err <= _floor(val, absval, inner_tol), axis=1)
        for i in np.flatnonzero(~done):
            x = x_live[i]
            val[i], err[i], _ = _refine(lambda s: f(np.full_like(s, x), s), s_lo[i], s_hi[i],
                                        val[i], err[i], absval[i], inner_tol, max_panels)
        if live.size:
            inner_err = max(inner_err, float(np.max(err)))
        rows = np.zeros((len(xs), val.shape[1]))
        rows[live] = val
        return rows[:, 0] if scalar else rows

    res = quad_adaptive(outer_integrand, a, b, rel_tol=rel_tol, max_panels=max_panels)
    err = np.atleast_1d(res.error) + (b - a) * inner_err
    if np.ndim(res.value) == 0:
        return QuadResult(res.value, float(err[0]), res.panels)
    return QuadResult(res.value, err, res.panels)
