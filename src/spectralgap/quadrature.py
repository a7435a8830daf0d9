"""One fixed 15-point Gauss-Kronrod panel, in 1-d and as a tensor rule.

The value is the 15-point Kronrod sum and its error estimate is the distance
|K15 - G7| to the embedded 7-point Gauss sum.  Integrands may be vector
valued (an array of components integrated in one pass).  The 2-d rule
integrates over a < x < b, 0 < s < hi(x): one call of the integrand takes
the 15 inner nodes of every one of the 15 outer nodes.

Both rules also take arrays of m intervals and integrate them in one call
of the integrand, one weight product over the stacked nodes of every
interval; a single interval is the batch of one.  The integrand gets the
nodes interval after interval, as m blocks of equal length, so it can tell
from a node's block which interval, and which of its own parameters, the
node belongs to.  Each interval's sums do not depend on the batch.

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

    ``f`` maps an array of nodes (n,) to values of shape (n,) or (n, k).
    Both results are floats for a 1-d integrand and of shape (k,) otherwise.
    ``a`` and ``b`` may also be arrays of m interval ends: ``f`` then gets
    the 15 nodes of every interval, interval after interval, in one call,
    and both results gain a leading axis of length m.  Each interval keeps
    its own weight products, so its sums do not depend on the batch it was
    evaluated in.  Raises ValueError when some b < a.
    """
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    bad = np.flatnonzero(hi < lo)
    if bad.size:
        raise ValueError(f"empty integration interval [{lo.flat[bad[0]]}, {hi.flat[bad[0]]}]")
    c = 0.5 * (lo + hi).reshape(-1, 1)
    hw = 0.5 * (hi - lo).reshape(-1, 1)
    m = len(hw)
    raw = np.asarray(f((c + hw * _NODES).ravel()), dtype=float)
    if raw.ndim not in (1, 2) or raw.shape[0] != 15 * m:
        raise ValueError(f"integrand returned shape {raw.shape} for {15 * m} nodes, "
                         f"expected ({15 * m},) or ({15 * m}, k)")
    vals = raw.reshape(m, 15, 1 if raw.ndim == 1 else raw.shape[1])
    k15 = np.matmul(_WK, vals) * hw
    g7 = np.matmul(_WG, vals) * hw
    shape = lo.shape + raw.shape[1:]
    value, error = k15.reshape(shape), np.abs(k15 - g7).reshape(shape)
    if value.ndim == 0:
        return float(value), float(error)
    return value, error


def kronrod_2d(f, a, b, hi):
    """(value, error estimate) of the integral of ``f(x, s)`` over
    a < x < b, 0 < s < hi(x).

    ``f`` maps paired arrays (x (n,), s (n,)) to shape (n,) or (n, k),
    elementwise; ``hi`` maps the array of outer nodes to an array of upper
    inner limits, and must keep hi >= 0.  The error of each component adds
    its outer estimate and its largest inner one times (b - a).

    ``a`` and ``b`` may be arrays of m outer intervals, as for ``kronrod``:
    ``hi`` then gets the 15 outer nodes of each interval and ``f`` its 225
    node pairs, interval after interval, and each interval's error takes
    the largest inner estimate of its own nodes.
    """
    lo = np.asarray(a, dtype=float)
    up = np.asarray(b, dtype=float)
    inner_err = None

    def outer_integrand(xs):
        nonlocal inner_err
        value, error = kronrod(lambda s: f(np.repeat(xs, 15), s), np.zeros_like(xs), hi(xs))
        inner_err = error.reshape(lo.size, 15, *error.shape[1:]).max(axis=1)
        return value

    value, error = kronrod(outer_integrand, lo, up)
    width = (up - lo).reshape(lo.shape + (1,) * (np.ndim(value) - lo.ndim))
    return value, error + width * inner_err.reshape(np.shape(value))
