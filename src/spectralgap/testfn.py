"""Rayleigh quotients of two explicit trial fields on the dumbbell.

Two constructions turn the unit-ball ground state u (shifted to the right
ball of the dumbbell, center (1-eps, 0)) into variational upper bounds, each
with an estimated quadrature error.  The fields are never evaluated point
by point here: each quotient comes from the chart integrals below
(``tests/oracle.py`` holds the fields themselves, for cross-checks):

* ``lemma1_*``: inside the junction cone T = {x1 > 0, a - x1 - |x'| > 0},
  a = sqrt(2 eps - eps^2), add the corrector (kappa/2)(a - x1 - |x'|) and
  extend evenly across {x1 = 0}.  The field lies in H^1_0 of the dumbbell,
  so its quotient bounds lambda_1 from above; the gradient correction makes
  the bound dip below lambda_1(ball) by ~ eps^(N/2).

* ``lemma2_*``: multiply u by the Lipschitz cutoff xi = clamp(x1/eps, 0, 1),
  which vanishes on the junction disk.  The product lies in H^1_0 of the
  half dumbbell, so its quotient bounds lambda_1 of the half domain (and
  hence lambda_2 of the dumbbell, by odd reflection); the excess over
  lambda_1(ball) is ~ eps^((N+1)/2).

Quotients are evaluated by exact-chart quadrature: ball integrals are known
in closed form, and only the small cap, cone, and cutoff-slab corrections
are integrated numerically, each in coordinates where the integrand is
smooth enough for one fixed 15-point Gauss-Kronrod panel (``quadrature``),
whose |K15 - G7| gives the error estimate.  No panel is refined, so every
EPS_MIN <= eps <= EPS_MAX gives a bound; below EPS_MIN, 1/eps^2 in the
cutoff's slab terms would overflow.  Against 30-digit references, the deficit
and the excess lie within their estimates at eps = 1e-8, 0.005 and 0.3.

Both bounds take one eps or a sequence of them.  A sequence runs in
batches of at most CHUNK eps: each chart is one quadrature call whose m
intervals are the m eps of a batch, and each bound of a batch is, bit for
bit, the bound of its eps alone; a float is the batch of one.  The batch is
the nodes' leading axis: an integrand reads its eps as eps[:, None] on the
1-d nodes (m, 15) and as eps[:, None, None] on the 2-d ones (m, 15, 15).
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ZERO_RTOL, ball_spectrum, radial_profile
from .geometry import junction_radius
from .quadrature import kronrod, kronrod_2d

__all__ = ["Lemma1Bound", "Lemma2Bound", "lemma1_rayleigh", "lemma2_rayleigh", "check_epsilon",
           "EPS_MIN", "EPS_MAX"]

EPS_MIN = 1e-150  # 1/eps^2 <= 1e300 stays finite; it overflows below about 1.5e-154
EPS_MAX = 0.3
# eps per quadrature batch: a batch holds every node's temporaries at once,
# about 37 kB per eps, so a long sequence runs in chunks of this many
CHUNK = 200


def _budget(quad_err, lam):
    """A bound's error estimate: its quadrature estimate, but never below the
    error lambda_1(ball) = j^2 carries from its Bessel zero j, which the
    quotient inherits (squaring doubles j's relative error)."""
    return float(max(quad_err, 2.0 * ZERO_RTOL * lam))


def check_epsilon(epsilon):
    """Refuse, with ValueError, an eps outside [EPS_MIN, EPS_MAX]."""
    if not EPS_MIN <= epsilon <= EPS_MAX:
        raise ValueError(f"junction parameter must satisfy {EPS_MIN} <= eps <= {EPS_MAX}, "
                         f"got {epsilon}")


# ---------------------------------------------------------------------------
# correction integrals (all small, all in smooth charts), each for an array
# of m eps in one quadrature call: (value, error), each of shape
# (components, m), one row per component
# ---------------------------------------------------------------------------

def _sigma(dim):
    # surface measure of the (N-2)-sphere of the x' factor: 2 points for
    # N = 2, the circle 2*pi for N = 3
    return 2.0 if dim == 2 else 2.0 * math.pi


def _cap_integrals(eps, dim):
    """[int u^2, int |grad u|^2] over the ball part beyond {x1 = 0}.

    Polar coordinates about the ball center reduce the cap to a radial
    integral; the substitution r = (1 - eps) + tau^2 smooths the square-root
    opening angle at the inner radius.
    """
    value_fn, fac_fn = radial_profile(dim)

    def integrand(tau):
        c1 = 1.0 - eps[:, None]
        r = c1 + tau * tau
        if dim == 2:
            w = 2.0 * np.arccos(np.minimum(c1 / r, 1.0)) * r
        else:
            w = 2.0 * math.pi * (1.0 - c1 / r) * r * r
        u = value_fn(r)
        du = fac_fn(r) * r
        return np.stack([u * u, du * du], axis=-1) * (w * 2.0 * tau)[..., None]

    value, error = kronrod(integrand, np.zeros_like(eps), np.sqrt(eps))
    return value.T, error.T


def _cone_integrals(eps, dim):
    """Corrections from the cone term: [mixed+square gradient, value] parts.

    Components: 2 <grad u, g> + kappa^2/2 and 2 u w + w^2 with
    g = -(kappa/2)(1, x'/|x'|) and w = (kappa/2)(a - x1 - s).
    """
    kappa = ball_spectrum(dim).kappa
    a = junction_radius(eps)
    value_fn, fac_fn = radial_profile(dim)
    sig = _sigma(dim)

    def f(x1, s):
        dx = x1 - (1.0 - eps[:, None, None])
        r = np.sqrt(dx * dx + s * s)
        dot = fac_fn(r) * (-0.5 * kappa) * (dx + s)
        w = 0.5 * kappa * (a[:, None, None] - x1 - s)
        comps = np.stack([
            2.0 * dot + 0.5 * kappa * kappa,
            2.0 * value_fn(r) * w + w * w,
        ], axis=-1)
        weight = sig * s ** (dim - 2)
        return comps * weight[..., None]

    value, error = kronrod_2d(f, np.zeros_like(eps), a, lambda x1: a[:, None] - x1)
    return value.T, error.T


def _slab_integrals(eps, dim):
    """Cutoff-layer integrals over {0 < x1 < eps} of the half dumbbell:

    [ |grad u|^2 (1 - xi^2),  u^2,  x1 u du/dx1,  u^2 (1 - xi^2) ].
    """
    value_fn, fac_fn = radial_profile(dim)
    sig = _sigma(dim)

    def f(x1, s):
        e = eps[:, None, None]
        dx = x1 - (1.0 - e)
        r = np.sqrt(dx * dx + s * s)
        u = value_fn(r)
        fac = fac_fn(r)
        du2 = (fac * r) ** 2
        d1u = fac * dx
        xi = x1 / e
        one_m_xi2 = 1.0 - xi * xi
        comps = np.stack([
            du2 * one_m_xi2,
            u * u,
            x1 * u * d1u,
            u * u * one_m_xi2,
        ], axis=-1)
        weight = sig * s ** (dim - 2)
        return comps * weight[..., None]

    def rho(x1):
        dx = x1 - (1.0 - eps[:, None])
        return np.sqrt(np.maximum(1.0 - dx * dx, 0.0))

    value, error = kronrod_2d(f, np.zeros_like(eps), eps, rho)
    return value.T, error.T


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1Bound:
    """Upper bound for lambda_1 of the dumbbell via the even extension."""

    epsilon: float
    dim: int
    quotient: float
    deficit: float
    error_est: float


@dataclass(frozen=True)
class Lemma2Bound:
    """Upper bound for lambda_1 of the half dumbbell (hence lambda_2 of the
    dumbbell) via the cutoff product."""

    epsilon: float
    dim: int
    quotient: float
    excess: float
    error_est: float


def _batched(bounds, epsilon, dim):
    """``bounds(epsilons, dim)`` over the eps of a bound call, each checked,
    CHUNK at a time: one bound for a float, a tuple of them for a
    sequence."""
    epsilons = [epsilon] if np.ndim(epsilon) == 0 else list(epsilon)
    for e in epsilons:
        check_epsilon(e)
    out = tuple(b for i in range(0, len(epsilons), CHUNK)
                for b in bounds(epsilons[i: i + CHUNK], dim))
    return out[0] if np.ndim(epsilon) == 0 else out


def lemma1_rayleigh(epsilon, dim: int = 2):
    """Rayleigh quotient of the cone-corrected even extension.

    The quotient upper-bounds lambda_1 of the dumbbell; ``deficit`` is
    lambda_1(ball) - quotient, computed by a cancellation-free path so it
    stays accurate when small.  ``epsilon`` is a float, which gives one
    Lemma1Bound, or a sequence of floats, which gives a tuple of them from
    one cap and one cone quadrature per CHUNK of them.
    """
    return _batched(_lemma1, epsilon, dim)


def _lemma1(epsilons, dim):
    lam = ball_spectrum(dim).lambda1
    eps = np.array(epsilons, dtype=float)
    (cap_v, cap_g), cap_err = _cap_integrals(eps, dim)
    (cone_m, cone_v), cone_err = _cone_integrals(eps, dim)
    den = 1.0 - cap_v + cone_v
    deficit = (cap_g - cone_m - lam * (cap_v - cone_v)) / den
    quotient = lam - deficit
    err = (cap_err[1] + cone_err[0] + lam * (cap_err[0] + cone_err[1])) / den * 2.0
    return [Lemma1Bound(epsilon=e, dim=dim, quotient=float(q), deficit=float(d),
                        error_est=_budget(x, lam))
            for e, q, d, x in zip(epsilons, quotient, deficit, err)]


def lemma2_rayleigh(epsilon, dim: int = 2):
    """Rayleigh quotient of the cutoff product on the half dumbbell.

    The quotient upper-bounds lambda_1 of the half dumbbell; ``excess`` is
    quotient - lambda_1(ball), computed cancellation-free.  ``epsilon`` is a
    float, which gives one Lemma2Bound, or a sequence of floats, which gives
    a tuple of them from one cap and one slab quadrature per CHUNK of them.
    """
    return _batched(_lemma2, epsilon, dim)


def _lemma2(epsilons, dim):
    lam = ball_spectrum(dim).lambda1
    eps = np.array(epsilons, dtype=float)
    (cap_v, cap_g), cap_err = _cap_integrals(eps, dim)
    (a1, a2, a3, a4), slab_err = _slab_integrals(eps, dim)
    inv2 = 1.0 / (eps * eps)
    den = 1.0 - cap_v - a4
    excess = (-cap_g - a1 + a2 * inv2 + 2.0 * a3 * inv2 + lam * (cap_v + a4)) / den
    quotient = lam + excess
    err = (cap_err[1] + slab_err[0] + (slab_err[1] + 2.0 * slab_err[2]) * inv2
           + lam * (cap_err[0] + slab_err[3])) / den * 2.0
    return [Lemma2Bound(epsilon=e, dim=dim, quotient=float(q), excess=float(x),
                        error_est=_budget(r, lam))
            for e, q, x, r in zip(epsilons, quotient, excess, err)]
