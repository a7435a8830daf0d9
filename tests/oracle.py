"""Reference quadrature for the tests, independent of the bounds' fixed rule.

``quad`` integrates adaptively: it bisects the 15-point Gauss-Kronrod panel
with the largest error estimate until the summed estimate meets a relative
tolerance in every component.  ``nested`` runs one such inner integral per
outer node.  ``rayleigh_quotient`` integrates a value+gradient field over a
planar ball, dumbbell or half dumbbell in exact polar charts, where the
trial fields' kinks (the cone corrector's edge, the cutoff at x1 = eps) are
left to the bisection.  ``Lemma1Function`` and ``Lemma2Function`` are the
two trial fields of ``testfn``'s bounds as value+gradient point functions,
the input ``rayleigh_quotient`` and finite-difference checks take; the bounds
never evaluate them.  ``bound_components`` computes the bounds' cap, cone and
slab integrals with mpmath at 30 digits.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

from spectralgap.analytic import ball_spectrum, radial_profile
from spectralgap.geometry import Ball, Dumbbell, HalfDumbbell, junction_radius
from spectralgap.quadrature import kronrod
from spectralgap.testfn import check_epsilon


def quad(f, a, b, rel_tol, max_panels=4000):
    """(value, error) of the integral of ``f`` over [a, b], bisecting panels
    until the error is at most ``rel_tol`` times |value| in every component.

    ``f`` is an integrand as ``kronrod`` calls it, on nodes of shape (15,)
    or, for the two halves of a bisected panel, (2, 15).  The first panel
    is ``kronrod(f, a, b)``, so an integral that needs no bisection equals
    the fixed rule bit for bit.  Raises ValueError unless
    ``rel_tol > 0`` and RuntimeError once ``max_panels`` panels miss it.
    """
    if not rel_tol > 0:
        raise ValueError(f"quadrature tolerance must be > 0, got {rel_tol}")
    value, error = kronrod(f, a, b)
    order = itertools.count()
    heap = [(-np.max(error), next(order), a, b, value, error)]
    while np.any(error > rel_tol * np.abs(value)):
        if len(heap) >= max_panels:
            raise RuntimeError(f"quadrature did not converge within {max_panels} panels "
                               f"(error {error} for value {value})")
        _, _, lo, hi, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        # both halves from one call of f
        (lval, rval), (lerr, rerr) = kronrod(f, [lo, mid], [mid, hi])
        value = value + lval + rval - pval
        error = error + lerr + rerr - perr
        heapq.heappush(heap, (-np.max(lerr), next(order), lo, mid, lval, lerr))
        heapq.heappush(heap, (-np.max(rerr), next(order), mid, hi, rval, rerr))
    return value, error


def nested(f, a, b, lo, hi, rel_tol=1e-8, max_panels=4000):
    """(value, error) of the integral of ``f(x, s)`` over a < x < b,
    lo(x) < s < hi(x): ``quad`` over x of one ``quad`` over s per outer node
    at a tenth of the tolerance.

    ``f`` maps paired arrays of one shape (x, s) to values of that shape,
    or with a last axis of components; ``lo`` and ``hi`` map one outer node
    to a limit.  The error of each component adds its outer estimate and
    its largest inner one times (b - a).
    """
    inner_err = 0.0

    def outer(xs):
        nonlocal inner_err
        rows = []
        for x in xs.flat:
            value, error = quad(lambda s: f(np.full_like(s, x), s), lo(x), hi(x),
                                rel_tol=0.1 * rel_tol, max_panels=max_panels)
            inner_err = np.maximum(inner_err, error)
            rows.append(value)
        return np.reshape(rows, xs.shape + np.shape(rows[0]))

    value, error = quad(outer, a, b, rel_tol=rel_tol, max_panels=max_panels)
    return value, error + (b - a) * inner_err


def _polar_segments(domain):
    """Planar polar charts (center, [(theta_lo, theta_hi, R(theta))...])."""
    if isinstance(domain, Ball):
        radius = domain.radius
        return domain.center, [(-math.pi, math.pi, lambda th: radius)]
    if isinstance(domain, HalfDumbbell):
        eps = domain.epsilon
        c1 = 1.0 - eps
        theta_c = math.pi - math.acos(c1)

        def radius_cut(th):
            return min(1.0, c1 / max(-math.cos(th), 1e-300))

        return (c1, 0.0), [
            (-theta_c, theta_c, lambda th: 1.0),
            (theta_c, math.pi, radius_cut),
            (-math.pi, -theta_c, radius_cut),
        ]
    raise TypeError(f"no polar chart for {type(domain).__name__}")


def _integrate_components(domain, comps_fn, rel_tol, max_panels):
    """Integrate vector components of a point function over a planar ball,
    dumbbell or half dumbbell using exact charts; returns (values, error
    estimates)."""
    if domain.dim != 2:
        raise ValueError("field quadrature is planar only")
    if isinstance(domain, Dumbbell):
        half = HalfDumbbell(epsilon=domain.epsilon, dim=2)
        plus = _integrate_components(half, comps_fn, rel_tol, max_panels)
        minus = _integrate_components(
            half, lambda pts: comps_fn(pts * np.array([-1.0, 1.0])), rel_tol, max_panels)
        return plus[0] + minus[0], plus[1] + minus[1]
    center, segments = _polar_segments(domain)
    center = np.asarray(center, dtype=float)
    total = 0.0
    total_err = 0.0
    for th_lo, th_hi, radius_fn in segments:
        def f(th, rs):
            pts = center + rs[..., None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
            return comps_fn(pts.reshape(-1, 2)).reshape(rs.shape + (-1,)) * rs[..., None]

        value, error = nested(f, th_lo, th_hi, lambda th: 0.0, radius_fn,
                              rel_tol=rel_tol, max_panels=max_panels)
        total = total + value
        total_err = total_err + error
    return total, total_err


def rayleigh_quotient(domain, field, rel_tol=1e-8, max_panels=4000):
    """Quadrature Rayleigh quotient of a value+gradient field over a planar
    ball, dumbbell or half dumbbell.

    ``field(pts)`` maps (m, 2) points to (values (m,), gradients (m, 2));
    ``rel_tol`` and ``max_panels`` go to the quadrature of each chart.
    Returns (quotient, relative error estimate); raises on a vanishing
    denominator.
    """

    def comps(pts):
        vals, grads = field(pts)
        return np.column_stack([vals * vals, np.sum(grads * grads, axis=1)])

    (den, num), (den_err, num_err) = _integrate_components(
        domain, comps, rel_tol, max_panels)
    if den <= 0:
        raise ValueError(f"field has vanishing L2 norm on the domain ({den})")
    rel_err = num_err / abs(num) + den_err / den if num != 0 else den_err / den
    return num / den, float(rel_err)


@dataclass(frozen=True)
class Lemma1Function:
    """Cone-corrected, evenly extended ground state on the dumbbell."""

    epsilon: float
    dim: int = 2

    def __post_init__(self):
        check_epsilon(self.epsilon)

    def field(self, pts):
        """Vectorized (values, gradients) on the dumbbell.

        On the cone axis |x'| = 0 the transverse corrector direction is
        taken as the first x' coordinate axis; the squared gradient is
        direction independent there, so quadrature is unaffected.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eps, kappa = self.epsilon, ball_spectrum(self.dim).kappa
        a = junction_radius(eps)
        value_fn, fac_fn = radial_profile(self.dim)
        sign = np.where(pts[:, 0] < 0, -1.0, 1.0)
        x1 = np.abs(pts[:, 0])
        xp = pts[:, 1:]
        s = np.sqrt(np.sum(xp * xp, axis=1))
        dx = x1 - (1.0 - eps)
        r = np.sqrt(dx * dx + s * s)
        if np.any(r > 1.0 + 1e-12):
            raise ValueError("point outside the dumbbell")
        r = np.minimum(r, 1.0)
        vals = value_fn(r)
        fac = fac_fn(r)
        grads = np.empty_like(pts)
        grads[:, 0] = fac * dx
        grads[:, 1:] = fac[:, None] * xp
        in_cone = (x1 > 0) & (a - x1 - s > 0)
        vals = np.where(in_cone, vals + 0.5 * kappa * (a - x1 - s), vals)
        grads[in_cone, 0] -= 0.5 * kappa
        unit = np.zeros_like(xp)
        pos = s > 0
        unit[pos] = xp[pos] / s[pos, None]
        unit[~pos, 0] = 1.0  # fixed direction on the axis
        grads[in_cone, 1:] -= 0.5 * kappa * unit[in_cone]
        grads[:, 0] *= sign  # even extension flips the axial component
        return vals, grads


@dataclass(frozen=True)
class Lemma2Function:
    """Ground state times the junction cutoff xi = clamp(x1/eps, 0, 1)."""

    epsilon: float
    dim: int = 2

    def __post_init__(self):
        check_epsilon(self.epsilon)

    def cutoff(self, x1):
        return np.clip(np.asarray(x1, dtype=float) / self.epsilon, 0.0, 1.0)

    def cutoff_gradient(self, x1):
        x1 = np.asarray(x1, dtype=float)
        return np.where((x1 > 0) & (x1 < self.epsilon), 1.0 / self.epsilon, 0.0)

    def field(self, pts):
        """Vectorized (values, gradients) on the half dumbbell (x1 >= 0)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eps = self.epsilon
        value_fn, fac_fn = radial_profile(self.dim)
        x1 = pts[:, 0]
        if np.any(x1 < -1e-12):
            raise ValueError("point outside the half dumbbell")
        xp = pts[:, 1:]
        s2 = np.sum(xp * xp, axis=1)
        dx = x1 - (1.0 - eps)
        r = np.sqrt(dx * dx + s2)
        if np.any(r > 1.0 + 1e-12):
            raise ValueError("point outside the half dumbbell")
        r = np.minimum(r, 1.0)
        u = value_fn(r)
        fac = fac_fn(r)
        xi = self.cutoff(x1)
        dxi = self.cutoff_gradient(x1)
        grads = np.empty_like(pts)
        grads[:, 0] = xi * fac * dx + u * dxi
        grads[:, 1:] = xi[:, None] * fac[:, None] * xp
        return u * xi, grads


def _ground_state(dim):
    """(u, U') of the L2-normalized unit-ball ground state
    u = c r^(-nu) J_nu(j r), and kappa = |U'(1)|, from mpmath's Bessel
    functions at the working precision."""
    nu = mp.mpf(dim) / 2 - 1
    j = mp.besseljzero(0, 1) if dim == 2 else mp.pi
    scale = mp.sqrt(2 / (dim * (mp.pi if dim == 2 else 4 * mp.pi / 3)))
    c = scale / abs(mp.besselj(nu + 1, j))

    def u_du(r):
        return c * r**-nu * mp.besselj(nu, j * r), -c * j * r**-nu * mp.besselj(nu + 1, j * r)

    return u_du, scale * j


def _gauss_legendre_2d(f, a, b, hi, degree):
    """Componentwise integral of the list-valued ``f(x, s)`` over a < x < b,
    0 < s < hi(x) on the tensor Gauss-Legendre rule of 3 * 2^(degree - 1)
    points per axis."""
    nodes = GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)
    hx = (b - a) / 2
    total = None
    for xn, xw in nodes:
        x = a + hx * (xn + 1)
        hs = hi(x) / 2
        for sn, sw in nodes:
            w = xw * sw * hx * hs
            terms = [w * v for v in f(x, hs * (sn + 1))]
            total = terms if total is None else [t + v for t, v in zip(total, terms)]
    return total


def bound_components(epsilon, dim, degree=4):
    """(cap, cone, slab): the integrals of ``testfn._cap_integrals``,
    ``_cone_integrals`` and ``_slab_integrals`` at 30 digits, as lists of
    mpf in the same component order.

    The cap is a radial integral in r over [1 - eps, 1], by tanh-sinh, which
    copes with the square-root opening angle at r = 1 - eps in N = 2.  The
    cone and slab integrands are smooth on their regions, so a tensor
    Gauss-Legendre rule of ``degree`` (24 points per axis by default) takes
    them.
    """
    with mp.workdps(30):
        eps = mp.mpf(epsilon)
        c1 = 1 - eps
        a = mp.sqrt(2 * eps - eps * eps)
        u_du, kappa = _ground_state(dim)
        sigma = 2 if dim == 2 else 2 * mp.pi

        def opening(r):
            return 2 * mp.acos(c1 / r) * r if dim == 2 else 2 * mp.pi * (1 - c1 / r) * r * r

        cap = [mp.quad(lambda r: u_du(r)[0] ** 2 * opening(r), [c1, 1]),
               mp.quad(lambda r: u_du(r)[1] ** 2 * opening(r), [c1, 1])]

        def cone(x1, s):
            dx = x1 - c1
            r = mp.sqrt(dx * dx + s * s)
            u, du = u_du(r)
            w = kappa / 2 * (a - x1 - s)
            weight = sigma * s ** (dim - 2)
            return [(-kappa * du / r * (dx + s) + kappa**2 / 2) * weight,
                    (2 * u * w + w * w) * weight]

        def slab(x1, s):
            dx = x1 - c1
            r = mp.sqrt(dx * dx + s * s)
            u, du = u_du(r)
            one_m_xi2 = 1 - (x1 / eps) ** 2
            weight = sigma * s ** (dim - 2)
            return [du * du * one_m_xi2 * weight, u * u * weight,
                    x1 * u * du * dx / r * weight, u * u * one_m_xi2 * weight]

        return (cap,
                _gauss_legendre_2d(cone, 0, a, lambda x1: a - x1, degree),
                _gauss_legendre_2d(slab, 0, eps, lambda x1: mp.sqrt(1 - (x1 - c1) ** 2),
                                   degree))
