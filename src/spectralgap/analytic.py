"""Exact reference spectra for balls via Bessel function zeros.

The first Dirichlet eigenfunction of the unit ball in R^N is radial,
u(r) = c r^(-nu) J_nu(j1 r) with nu = N/2 - 1 and j1 the first positive zero
of J_nu; its eigenvalue is j1^2.  The second eigenvalue is the square of the
first zero of J_(nu+1).  Everything the ball spectra need is computed here,
not tabulated: J_nu by its ascending series up to x = 8, where all those zeros
lie (scipy's ``jv`` takes larger arguments); zeros by a sign-change scan and
Newton's method kept inside the bracket.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BracketError",
    "BallSpectrum",
    "unit_ball_volume",
    "bessel_j",
    "bessel_jp",
    "bessel_zero",
    "ZERO_RTOL",
    "ball_spectrum",
    "theta_spectrum",
    "rescale_eigenvalue",
]

_SERIES_CUTOFF = 8.0
_SERIES_TERMS = 32
_SCAN_STEP = 0.1  # largest grid step of the zero scan
_NEWTON_STEPS = 50
# bessel_zero stops once a Newton step is at most this fraction of the root
ZERO_RTOL = 1e-14


class BracketError(RuntimeError):
    """A zero of J_nu could not be bracketed in the scanned range."""


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
    """Bessel function J_nu(x) for nu >= 0, x >= 0 (vectorized in x).

    Ascending series up to x = 8, which covers every zero the ball spectra
    need; above that, ``scipy.special.jv``, imported only when reached.
    Absolute error stays below 1e-12 on [0, 50].
    """
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr < 0):
        raise ValueError("argument must be >= 0")
    out = np.empty_like(x_arr)
    small = x_arr <= _SERIES_CUTOFF
    if np.any(small):
        xs = x_arr[small]
        out[small] = xs**nu * _series_profile(nu, xs)
    if np.any(~small):
        from scipy.special import jv

        out[~small] = jv(nu, x_arr[~small])
    return float(out[0]) if scalar else out


def bessel_jp(nu: float, x):
    """Derivative J_nu'(x) via J_nu' = (nu/x) J_nu - J_(nu+1)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    out = np.empty_like(x_arr)
    pos = x_arr > 0
    if np.any(pos):
        xp = x_arr[pos]
        out[pos] = (nu / xp) * bessel_j(nu, xp) - bessel_j(nu + 1, xp)
    if np.any(~pos):
        # limits at the origin: J_1'(0) = 1/2, all other orders give 0
        out[~pos] = 0.5 if nu == 1 else 0.0
    return float(out[0]) if scalar else out


def bessel_zero(nu: float, k: int, max_arg: float = 200.0) -> float:
    """k-th positive zero of J_nu by a sign-change scan and Newton's method.

    J_nu is evaluated at once on a grid of step at most 0.1 from
    max(0.05, nu) up to the series cutoff, and up to ``max_arg`` only when
    the k-th sign change is not found there (``bessel_j`` then imports
    scipy).  Newton steps with J_nu' start from the midpoint of the bracket
    around that sign change and stay inside it, shrinking it as they go,
    until a step falls below ``ZERO_RTOL`` relative.  A bracket that cannot be
    found below ``max_arg`` raises BracketError.
    """
    if k < 1:
        raise ValueError(f"zero index must be >= 1, got {k}")
    lo = max(0.05, nu)  # j_(nu,1) > nu
    tops = [_SERIES_CUTOFF] if lo < _SERIES_CUTOFF < max_arg else []
    for top in tops + [max_arg]:
        x = np.linspace(lo, top, max(2, math.ceil((top - lo) / _SCAN_STEP) + 1))
        f = bessel_j(nu, x)
        changes = np.flatnonzero((f[:-1] * f[1:] < 0) | (f[1:] == 0.0))
        if len(changes) >= k:
            break
    else:
        raise BracketError(f"could not bracket zero {k} of J_{nu} below x = {max_arg}")
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
        slope = bessel_jp(nu, root)
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
    # |J_(nu+1)(j1)| from the profile series; c normalizes the L2 norm to 1
    jnu1_at_j1 = abs(j1 ** (nu + 1.0) * _series_profile(nu + 1.0, np.array([j1]))[0])
    norm_const = math.sqrt(2.0 / (dim * unit_ball_volume(dim))) / jnu1_at_j1
    slope_over_r = _ground_state(nu, j1, norm_const)[1]
    return BallSpectrum(
        dim=dim,
        nu=nu,
        j1=j1,
        j2=j2,
        lambda1=j1 * j1,
        lambda2=j2 * j2,
        norm_const=norm_const,
        kappa=float(abs(slope_over_r(1.0))),
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


def _ground_state(nu, j1, c):
    """Vectorized (U, U'/r) for u = c r^(-nu) J_nu(j1 r), through the even
    profile series p_nu(z) = z^(-nu) J_nu(z): U = c j1^nu p_nu(j1 r) and
    U'/r = -c j1^(nu+2) p_(nu+1)(j1 r), both smooth at r = 0."""

    def value(r):
        return c * j1**nu * _series_profile(nu, j1 * np.asarray(r, dtype=float))

    def slope_over_r(r):
        return -c * j1 ** (nu + 2.0) * _series_profile(nu + 1.0, j1 * np.asarray(r, dtype=float))

    return value, slope_over_r


def radial_profile(dim: int):
    """Vectorized (U, U'/r) callables for the unit-ball ground state; U'/r is
    finite at r = 0, and |U'/r| = ``kappa`` at r = 1."""
    spec = ball_spectrum(dim)
    return _ground_state(spec.nu, spec.j1, spec.norm_const)
