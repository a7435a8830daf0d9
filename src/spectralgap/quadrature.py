"""One fixed 15-point Gauss-Kronrod panel, in 1-d and as a tensor rule.

The value is the 15-point Kronrod sum and its error estimate is the distance
|K15 - G7| to the embedded 7-point Gauss sum.  Integrands may be vector
valued (a last axis of components integrated in one pass).  The 2-d rule
integrates over a < x < b, 0 < s < hi(x): one call of the integrand takes
the 15 inner nodes of every one of the 15 outer nodes.

Both rules also take arrays of interval ends, of any shape S, and integrate
every interval in one call of the integrand.  The batch is an array axis:
the integrand gets nodes of shape S + (15,), one row of nodes per interval,
and broadcasts its own per-interval parameters against them (a parameter p
of shape S as p[..., None]).  A single interval is the scalar S = ().  Each
interval's sums do not depend on the batch.

No panel is ever bisected, so the rule is meant for integrands that are
smooth over the whole interval in the coordinates they are written in, as
the trial-field corrections of ``testfn`` and the cap of ``geometry`` are.
"""

import numpy as np

__all__ = ["kronrod", "kronrod_2d"]


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


def kronrod(f, a, b):
    """(value, error estimate) of the integral of ``f`` over [a, b].

    ``a`` and ``b`` are interval ends of one shape S, a float for one
    interval.  ``f`` maps the nodes, of shape S + (15,), to values of shape
    S + (15,) or S + (15, k), and both results have shape S or S + (k,):
    floats for one interval of a 1-d integrand.  Each interval keeps its own
    weight products, so its sums do not depend on the batch it was
    evaluated in.  Raises ValueError when some b < a, or when ``f`` returns
    any other shape.
    """
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    bad = np.flatnonzero(hi < lo)
    if bad.size:
        raise ValueError(f"empty integration interval [{lo.flat[bad[0]]}, {hi.flat[bad[0]]}]")
    hw = 0.5 * (hi - lo)[..., None]
    nodes = 0.5 * (lo + hi)[..., None] + hw * _NODES
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape[:nodes.ndim] != nodes.shape or vals.ndim > nodes.ndim + 1:
        raise ValueError(f"integrand returned shape {vals.shape} for nodes of shape "
                         f"{nodes.shape}, expected {nodes.shape} or {nodes.shape + ('k',)}")
    cols = vals if vals.ndim > nodes.ndim else vals[..., None]
    k15 = np.matmul(_WK, cols) * hw
    g7 = np.matmul(_WG, cols) * hw
    shape = nodes.shape[:-1] + vals.shape[nodes.ndim:]
    value, error = k15.reshape(shape), np.abs(k15 - g7).reshape(shape)
    if value.ndim == 0:
        return float(value), float(error)
    return value, error


def kronrod_2d(f, a, b, hi):
    """(value, error estimate) of the integral of ``f(x, s)`` over
    a < x < b, 0 < s < hi(x).

    ``a`` and ``b`` are interval ends of one shape S, as for ``kronrod``.
    ``hi`` maps the outer nodes (S + (15,)) to the upper inner limits of the
    same shape, and must keep hi >= 0.  ``f`` gets x of shape S + (15, 1) and
    s of shape S + (15, 15), each outer node against its 15 inner ones, and
    returns shape S + (15, 15) or S + (15, 15, k).  The error of each
    interval's component adds its outer estimate and its largest inner one
    times (b - a).
    """
    lo = np.asarray(a, dtype=float)
    up = np.asarray(b, dtype=float)
    inner_err = None

    def outer_integrand(xs):
        nonlocal inner_err
        x = xs[..., None]
        value, error = kronrod(lambda s: f(x, s), np.zeros_like(xs), hi(xs))
        inner_err = error.max(axis=xs.ndim - 1)
        return value

    value, error = kronrod(outer_integrand, lo, up)
    width = (up - lo).reshape(lo.shape + (1,) * (np.ndim(value) - lo.ndim))
    return value, error + width * inner_err
