"""Explicit trial fields on the dumbbell and their Rayleigh quotients.

Two constructions turn the unit-ball ground state u (shifted to the right
ball of the dumbbell, center (1-eps, 0)) into variational upper bounds, each
with an estimated quadrature error:

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
smooth.  This keeps full relative accuracy in the deficits down to eps ~ 1e-3.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ZERO_RTOL, ball_spectrum, radial_profile
from .geometry import Ball, Dumbbell, HalfDumbbell, junction_radius
from .quadrature import quad_adaptive, quad_nested_2d

__all__ = [
    "Lemma1Function",
    "Lemma2Function",
    "Lemma1Bound",
    "Lemma2Bound",
    "OddExtensionReport",
    "lemma1_rayleigh",
    "lemma2_rayleigh",
    "odd_extension_check",
    "rayleigh_quotient",
    "EPS_MAX",
]

EPS_MAX = 0.3


# relative tolerance of the trial-field bounds' quadrature
_BOUND_TOL = 1e-8


def _budget(quad_err, lam):
    """A bound's error estimate: its quadrature estimate, but never below the
    error lambda_1(ball) = j^2 carries from its Bessel zero j, which the
    quotient inherits (squaring doubles j's relative error)."""
    return float(max(quad_err, 2.0 * ZERO_RTOL * lam))


def _check_epsilon(epsilon):
    if not 0 < epsilon <= EPS_MAX:
        raise ValueError(f"junction parameter must satisfy 0 < eps <= {EPS_MAX}, got {epsilon}")


# ---------------------------------------------------------------------------
# trial fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1Function:
    """Cone-corrected, evenly extended ground state on the dumbbell."""

    epsilon: float
    dim: int = 2

    def __post_init__(self):
        _check_epsilon(self.epsilon)

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
        _check_epsilon(self.epsilon)

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


# ---------------------------------------------------------------------------
# correction integrals (all small, all in smooth charts)
# ---------------------------------------------------------------------------

def _sigma(dim):
    # surface measure of the (N-2)-sphere of the x' factor: 2 points for
    # N = 2, the circle 2*pi for N = 3
    return 2.0 if dim == 2 else 2.0 * math.pi


def _cap_integrals(epsilon, dim):
    """(int u^2, int |grad u|^2) over the ball part beyond {x1 = 0}.

    Polar coordinates about the ball center reduce the cap to a radial
    integral; the substitution r = (1 - eps) + tau^2 smooths the square-root
    opening angle at the inner radius.
    """
    c1 = 1.0 - epsilon
    value_fn, fac_fn = radial_profile(dim)

    def integrand(tau):
        r = c1 + tau * tau
        if dim == 2:
            w = 2.0 * np.arccos(np.minimum(c1 / r, 1.0)) * r
        else:
            w = 2.0 * math.pi * (1.0 - c1 / r) * r * r
        u = value_fn(r)
        du = fac_fn(r) * r
        return np.column_stack([u * u, du * du]) * (w * 2.0 * tau)[:, None]

    res = quad_adaptive(integrand, 0.0, math.sqrt(epsilon), rel_tol=_BOUND_TOL)
    return res.value[0], res.value[1], res.error


def _cone_integrals(epsilon, dim):
    """Corrections from the cone term: (mixed+square gradient, value) parts.

    Components: 2 <grad u, g> + kappa^2/2 and 2 u w + w^2 with
    g = -(kappa/2)(1, x'/|x'|) and w = (kappa/2)(a - x1 - s).
    """
    spec = ball_spectrum(dim)
    kappa = spec.kappa
    a = junction_radius(epsilon)
    c1 = 1.0 - epsilon
    value_fn, fac_fn = radial_profile(dim)
    sig = _sigma(dim)

    def f(x1, s):
        dx = x1 - c1
        r = np.sqrt(dx * dx + s * s)
        dot = fac_fn(r) * (-0.5 * kappa) * (dx + s)
        w = 0.5 * kappa * (a - x1 - s)
        comps = np.column_stack([
            2.0 * dot + 0.5 * kappa * kappa,
            2.0 * value_fn(r) * w + w * w,
        ])
        weight = sig * s ** (dim - 2)
        return comps * weight[:, None]

    res = quad_nested_2d(f, 0.0, a, lambda x1: 0.0, lambda x1: a - x1, rel_tol=_BOUND_TOL)
    return res.value[0], res.value[1], res.error


def _slab_integrals(epsilon, dim):
    """Cutoff-layer integrals over {0 < x1 < eps} of the half dumbbell:

    [ |grad u|^2 (1 - xi^2),  u^2,  x1 u du/dx1,  u^2 (1 - xi^2) ].
    """
    c1 = 1.0 - epsilon
    value_fn, fac_fn = radial_profile(dim)
    sig = _sigma(dim)

    def f(x1, s):
        dx = x1 - c1
        r = np.sqrt(dx * dx + s * s)
        u = value_fn(r)
        fac = fac_fn(r)
        du2 = (fac * r) ** 2
        d1u = fac * dx
        xi = x1 / epsilon
        one_m_xi2 = 1.0 - xi * xi
        comps = np.column_stack([
            du2 * one_m_xi2,
            u * u,
            x1 * u * d1u,
            u * u * one_m_xi2,
        ])
        weight = sig * s ** (dim - 2)
        return comps * weight[:, None]

    def rho(x1):
        dx = x1 - c1
        return math.sqrt(max(1.0 - dx * dx, 0.0))

    res = quad_nested_2d(f, 0.0, epsilon, lambda x1: 0.0, rho, rel_tol=_BOUND_TOL)
    return res.value, res.error


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


def lemma1_rayleigh(epsilon: float, dim: int = 2) -> Lemma1Bound:
    """Rayleigh quotient of the cone-corrected even extension.

    The quotient upper-bounds lambda_1 of the dumbbell; ``deficit`` is
    lambda_1(ball) - quotient, computed by a cancellation-free path so it
    stays accurate when small.
    """
    _check_epsilon(epsilon)
    lam = ball_spectrum(dim).lambda1
    cap_v, cap_g, cap_err = _cap_integrals(epsilon, dim)
    cone_m, cone_v, cone_err = _cone_integrals(epsilon, dim)
    den = 1.0 - cap_v + cone_v
    deficit = (cap_g - cone_m - lam * (cap_v - cone_v)) / den
    quotient = lam - deficit
    err = (cap_err[1] + cone_err[0] + lam * (cap_err[0] + cone_err[1])) / den * 2.0
    return Lemma1Bound(epsilon=epsilon, dim=dim, quotient=float(quotient),
                       deficit=float(deficit), error_est=_budget(err, lam))


def lemma2_rayleigh(epsilon: float, dim: int = 2) -> Lemma2Bound:
    """Rayleigh quotient of the cutoff product on the half dumbbell.

    The quotient upper-bounds lambda_1 of the half dumbbell; ``excess`` is
    quotient - lambda_1(ball), computed cancellation-free.
    """
    _check_epsilon(epsilon)
    lam = ball_spectrum(dim).lambda1
    cap_v, cap_g, cap_err = _cap_integrals(epsilon, dim)
    (a1, a2, a3, a4), slab_err = _slab_integrals(epsilon, dim)
    inv2 = 1.0 / (epsilon * epsilon)
    den = 1.0 - cap_v - a4
    excess = (-cap_g - a1 + a2 * inv2 + 2.0 * a3 * inv2 + lam * (cap_v + a4)) / den
    quotient = lam + excess
    err = (cap_err[1] + slab_err[0] + (slab_err[1] + 2.0 * slab_err[2]) * inv2
           + lam * (cap_err[0] + slab_err[3])) / den * 2.0
    return Lemma2Bound(epsilon=epsilon, dim=dim, quotient=float(quotient),
                       excess=float(excess), error_est=_budget(err, lam))


# ---------------------------------------------------------------------------
# chart quadrature over discs and dumbbells, and the Rayleigh quotient of
# fields on them
# ---------------------------------------------------------------------------

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
    total = None
    total_err = None
    for th_lo, th_hi, radius_fn in segments:
        def f(th, rs):
            pts = center + rs[:, None] * np.column_stack([np.cos(th), np.sin(th)])
            return comps_fn(pts) * rs[:, None]

        res = quad_nested_2d(f, th_lo, th_hi, lambda th: 0.0, radius_fn,
                             rel_tol=rel_tol, max_panels=max_panels)
        vals = np.atleast_1d(res.value)
        errs = np.atleast_1d(res.error)
        total = vals if total is None else total + vals
        total_err = errs if total_err is None else total_err + errs
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


# ---------------------------------------------------------------------------
# grid cross-check of the odd-reflection inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OddExtensionReport:
    """lambda_2(dumbbell) vs lambda_1(half dumbbell) on matched grids, plus
    the odd-symmetry correlation of the second eigenvector."""

    epsilon: float
    lambda2_dumbbell: float
    lambda1_half: float
    gap: float
    tolerance: float
    upper_bound_ok: bool
    symmetry_correlation: float
    symmetry_ok: bool

    @property
    def passed(self) -> bool:
        return self.upper_bound_ok and self.symmetry_ok


def odd_extension_check(dumbbell, half) -> OddExtensionReport:
    """Verify on grids that lambda_2(dumbbell) <= lambda_1(half dumbbell)
    within twice the combined tolerance, and that the dumbbell's second
    eigenvector is odd across the junction plane.

    ``dumbbell`` and ``half`` are ``pipeline.solve_domain`` results for
    ``Dumbbell(eps)`` and ``HalfDumbbell(eps)`` on the same grid levels;
    any other pair raises ValueError.
    """
    if not isinstance(dumbbell.domain, Dumbbell):
        raise ValueError(f"first solve is of {dumbbell.domain!r}, not of a dumbbell")
    epsilon = dumbbell.domain.epsilon
    if half.domain != HalfDumbbell(epsilon) or half.h_list != dumbbell.h_list:
        raise ValueError(f"second solve, of {half.domain!r} at h = {half.h_list}, is not "
                         f"of the half of {dumbbell.domain!r} at h = {dumbbell.h_list}")
    lam2 = float(dumbbell.lambda_x[1])
    lam1_half = float(half.lambda_x[0])
    budget = float(dumbbell.error_est_raw[1] + half.error_est_raw[0])
    grid = dumbbell.grid
    v2 = dumbbell.vectors[:, 1]
    mirror_idx = grid.index_map[-grid.active[:, 0] - grid.i0, grid.active[:, 1] - grid.j0]
    ok = mirror_idx >= 0
    corr = -float(v2[ok] @ v2[mirror_idx[ok]]) / float(v2[ok] @ v2[ok])
    return OddExtensionReport(
        epsilon=epsilon,
        lambda2_dumbbell=lam2,
        lambda1_half=lam1_half,
        gap=lam1_half - lam2,
        tolerance=budget,
        upper_bound_ok=lam2 <= lam1_half + 2.0 * budget,
        symmetry_correlation=corr,
        symmetry_ok=corr >= 0.99,
    )
