"""Exact reference spectra for balls via Bessel function zeros.

The first Dirichlet eigenfunction of the unit ball in R^N is radial,
u(r) = c r^(-nu) J_nu(j1 r) with nu = N/2 - 1 and j1 the first positive zero
of J_nu; its eigenvalue is j1^2.  The second eigenvalue is the square of the
first zero of J_(nu+1).  Everything the ball spectra need is computed here,
not tabulated: J_nu by its ascending series on [0, 8], which holds the zeros
of every N <= 8 (j_(nu,1) and j_(nu+1,1) lie between 2.40 and 4.49 for
N = 2 and 3, and j_(2.5,1) = 5.76 for N = 5), and refused above it; zeros by
a sign-change scan on [0, 8] and Newton's method kept inside the bracket.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BallSpectrum",
    "unit_ball_volume",
    "bessel_j",
    "bessel_zero",
    "ZERO_RTOL",
    "ball_spectrum",
    "theta_spectrum",
    "rescale_eigenvalue",
]

_SERIES_CUTOFF = 8.0  # bessel_j's largest argument, and the zero scan's upper end
_SERIES_TERMS = 32
_SCAN_STEP = 0.1  # largest grid step of the zero scan
_NEWTON_STEPS = 50
# bessel_zero stops once a Newton step is at most this fraction of the root
ZERO_RTOL = 1e-14


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _series_coeffs(nu: float):
    # J_nu(x) = (x/2)^nu * sum_m (-1)^m (x^2/4)^m / (m! Gamma(m+nu+1))
    m = np.arange(_SERIES_TERMS)
    logs = np.array([math.lgamma(k + 1.0) + math.lgamma(k + nu + 1.0) for k in m])
    return ((-1.0) ** m) * np.exp(-logs)


def _series_profile(nu: float, z):
    """z^(-nu) J_nu(z) as an even power series, valid for |z| <= ~12."""
    z = np.asarray(z, dtype=float)
    t = 0.25 * z * z
    coeffs = _series_coeffs(nu)
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    return acc * 0.5**nu


def bessel_j(nu: float, x):
    """Bessel function J_nu(x) for nu >= 0 and 0 <= x <= 8 (vectorized in x)
    by its ascending series, whose absolute error stays below 1e-12 there;
    an argument outside [0, 8] raises ValueError."""
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0) & (x_arr <= _SERIES_CUTOFF)):
        raise ValueError(f"argument must lie in [0, {_SERIES_CUTOFF:g}]")
    xs = np.atleast_1d(x_arr)
    out = xs**nu * _series_profile(nu, xs)
    return float(out[0]) if x_arr.ndim == 0 else out


def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu by a sign-change scan and Newton's method.

    J_nu is evaluated at once on a grid of step at most 0.1 from
    max(0.05, nu) up to x = 8, the end of ``bessel_j``'s range; a zero
    beyond it raises ValueError.  Newton steps with
    J_nu' = (nu/x) J_nu - J_(nu+1) start from the midpoint of the bracket
    around the k-th sign change and stay inside it, shrinking it as they go,
    until a step falls below ``ZERO_RTOL`` relative.
    """
    if k < 1:
        raise ValueError(f"zero index must be >= 1, got {k}")
    lo = min(max(0.05, nu), _SERIES_CUTOFF)  # j_(nu,1) > nu
    x = np.linspace(lo, _SERIES_CUTOFF, max(2, math.ceil((_SERIES_CUTOFF - lo) / _SCAN_STEP) + 1))
    f = bessel_j(nu, x)
    changes = np.flatnonzero((f[:-1] * f[1:] < 0) | (f[1:] == 0.0))
    if len(changes) < k:
        raise ValueError(f"zero {k} of J_{nu} lies beyond x = {_SERIES_CUTOFF:g}")
    i = changes[k - 1]
    a, b = x[i], x[i + 1]
    negative = f[i] < 0  # the sign of J_nu at a
    root = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        value = bessel_j(nu, root)
        if value == 0.0:
            break
        if (value < 0) == negative:
            a = root
        else:
            b = root
        slope = (nu / root) * value - bessel_j(nu + 1, root)
        new = 0.5 * (a + b)
        if slope != 0.0 and a <= root - value / slope <= b:
            new = root - value / slope
        settled = abs(new - root) <= ZERO_RTOL * root
        root = new
        if settled:
            break
    return float(root)


# ---------------------------------------------------------------------------
# Ball spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallSpectrum:
    """First two Dirichlet eigenvalues of the unit ball in R^N, with the
    L2-normalized radial ground state's data.

    ``kappa`` is the (constant) magnitude of the normal derivative of that
    ground state on the boundary sphere.
    """

    dim: int
    nu: float
    j1: float
    j2: float
    lambda1: float
    lambda2: float
    norm_const: float
    kappa: float


@lru_cache(maxsize=8)
def ball_spectrum(dim: int) -> BallSpectrum:
    """Exact spectral data of the unit ball; supported dimensions: 2 and 3."""
    if dim not in (2, 3):
        raise ValueError(f"ball spectrum supports N in {{2, 3}}, got {dim}")
    nu = dim / 2.0 - 1.0
    j1 = bessel_zero(nu, 1)
    j2 = bessel_zero(nu + 1.0, 1)
    # |p_(nu+1)(j1)| = |J_(nu+1)(j1)| / j1^(nu+1) from the profile series;
    # c normalizes the L2 norm to 1, and kappa = |U'(1)| = c j1^(nu+2) |p_(nu+1)(j1)|
    p_at_j1 = abs(float(_series_profile(nu + 1.0, j1)))
    norm_const = math.sqrt(2.0 / (dim * unit_ball_volume(dim))) / (j1 ** (nu + 1.0) * p_at_j1)
    return BallSpectrum(
        dim=dim,
        nu=nu,
        j1=j1,
        j2=j2,
        lambda1=j1 * j1,
        lambda2=j2 * j2,
        norm_const=norm_const,
        kappa=norm_const * j1 ** (nu + 2.0) * p_at_j1,
    )


def theta_spectrum(dim: int):
    """(lambda1, lambda2) of two disjoint balls of half measure each,
    normalized to total measure omega_N: both equal 2^(2/N) lambda1(ball)."""
    spec = ball_spectrum(dim)
    lam = rescale_eigenvalue(spec.lambda1, 2.0 ** (-1.0 / dim))
    return lam, lam


def rescale_eigenvalue(lam: float, t: float) -> float:
    """Eigenvalue of the dilated domain t*Omega: lambda / t^2."""
    if t <= 0:
        raise ValueError(f"scale factor must be > 0, got {t}")
    return lam / (t * t)


def radial_profile(dim: int):
    """Vectorized (U, U'/r) callables for the unit-ball ground state
    u = c r^(-nu) J_nu(j1 r), through the even profile series
    p_nu(z) = z^(-nu) J_nu(z): U = c j1^nu p_nu(j1 r) and
    U'/r = -c j1^(nu+2) p_(nu+1)(j1 r), both smooth at r = 0, and
    |U'/r| = ``kappa`` at r = 1."""
    spec = ball_spectrum(dim)
    nu, j1, c = spec.nu, spec.j1, spec.norm_const

    def value(r):
        return c * j1**nu * _series_profile(nu, j1 * np.asarray(r, dtype=float))

    def slope_over_r(r):
        return -c * j1 ** (nu + 2.0) * _series_profile(nu + 1.0, j1 * np.asarray(r, dtype=float))

    return value, slope_over_r
