"""Adaptive Gauss-Kronrod quadrature with interval bisection.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives a per-panel
error estimate; panels with the worst contribution are bisected until the
summed estimate meets the requested relative tolerance.  Integrands may be
vector valued (an array of components integrated in one pass); the tolerance
must then hold for every component.
"""

import heapq
import itertools

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


class QuadResult:
    """Integral value, absolute error estimate, and panel count."""

    __slots__ = ("value", "error", "panels")

    def __init__(self, value, error, panels):
        self.value = value
        self.error = error
        self.panels = panels

    def __iter__(self):  # allows ``value, err = quad_adaptive(...)``
        yield self.value
        yield self.error

    def __repr__(self):
        return f"QuadResult(value={self.value!r}, error={self.error!r}, panels={self.panels})"


def _as_columns(raw):
    """Normalize integrand output to shape (15, k); report whether it was 1-d."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        return arr[:, None], True
    if arr.ndim == 2 and arr.shape[0] == 15:
        return arr, False
    raise ValueError(f"integrand returned shape {arr.shape}, expected (15,) or (15, k)")


def _panel(f, a, b):
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    vals, scalar = _as_columns(f(c + hw * _NODES))
    k15 = hw * (_WK @ vals)
    g7 = hw * (_WG @ vals)
    absval = hw * (_WK @ np.abs(vals))
    return k15, np.abs(k15 - g7), absval, scalar


def quad_adaptive(f, a, b, rel_tol=1e-10, max_panels=4000):
    """Integrate ``f`` over [a, b] to the requested relative tolerance.

    ``f`` maps an array of nodes (n,) to values of shape (n,) or (n, k).
    Returns a :class:`QuadResult`; ``value`` is scalar for 1-d integrands.
    """
    if not b > a:
        if b == a:
            return QuadResult(0.0, 0.0, 0)
        raise ValueError(f"empty integration interval [{a}, {b}]")
    val, err, absval, scalar = _panel(f, a, b)
    counter = itertools.count()
    heap = [(-float(np.max(err)), next(counter), a, b, val, err, absval)]
    total = val.copy()
    total_err = err.copy()
    total_abs = absval.copy()
    panels = 1
    while True:
        floor = np.maximum(rel_tol * np.abs(total), 1e-15 * total_abs)
        if np.all(total_err <= floor):
            break
        if panels >= max_panels:
            raise QuadratureError(
                f"quadrature did not converge within {max_panels} panels "
                f"(error {total_err.ravel()} vs tolerance {floor.ravel()})"
            )
        _, _, pa, pb, pval, perr, pabs = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lval, lerr, labs, _ = _panel(f, pa, pm)
        rval, rerr, rabs, _ = _panel(f, pm, pb)
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        total_abs += labs + rabs - pabs
        heapq.heappush(heap, (-float(np.max(lerr)), next(counter), pa, pm, lval, lerr, labs))
        heapq.heappush(heap, (-float(np.max(rerr)), next(counter), pm, pb, rval, rerr, rabs))
        panels += 1
    if scalar:
        return QuadResult(float(total[0]), float(total_err[0]), panels)
    return QuadResult(total, total_err, panels)


def quad_nested_2d(f, a, b, lo, hi, rel_tol=1e-8, max_panels=4000):
    """Integrate ``f(x, s)`` over a < x < b, lo(x) < s < hi(x).

    ``f`` maps (x: float, s: array (n,)) to shape (n,) or (n, k); the inner
    integral runs adaptively per outer node with a tighter tolerance.  The
    returned error adds the outer estimate and the accumulated inner ones.
    """
    inner_tol = 0.1 * rel_tol
    inner_err = [0.0]
    width = [None]

    def outer_integrand(xs):
        rows = []
        for x in xs:
            s_lo, s_hi = lo(x), hi(x)
            if s_hi <= s_lo:
                if width[0] is None:
                    probe = np.asarray(f(x, np.array([s_lo])), dtype=float)
                    width[0] = probe.shape[1] if probe.ndim > 1 else 0
                rows.append(np.zeros(width[0]) if width[0] else 0.0)
                continue
            res = quad_adaptive(lambda s: f(x, s), s_lo, s_hi,
                                rel_tol=inner_tol, max_panels=max_panels)
            inner_err[0] = max(inner_err[0], float(np.max(np.atleast_1d(res.error))))
            if width[0] is None:
                width[0] = np.size(res.value) if np.ndim(res.value) else 0
            rows.append(res.value)
        return np.array(rows)

    res = quad_adaptive(outer_integrand, a, b, rel_tol=rel_tol, max_panels=max_panels)
    err = np.atleast_1d(res.error) + (b - a) * inner_err[0]
    if np.ndim(res.value) == 0:
        return QuadResult(res.value, float(err[0]), res.panels)
    return QuadResult(res.value, err, res.panels)
