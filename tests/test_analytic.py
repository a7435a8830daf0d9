import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from spectralgap import analytic as an


def _ground_state(dim, r):
    """Unit-ball ground state U(r) and its radial derivative r (U'/r)(r)."""
    value, slope_over_r = an.radial_profile(dim)
    r = np.asarray(r, dtype=float)
    return value(r), r * slope_over_r(r)


# zeros frozen from an independent bracketing + brentq oracle on scipy's jv
ORACLE_ZEROS = {
    (0.0, 1): 2.404825557695773,
    (0.0, 2): 5.520078110286311,
    (1.0, 1): 3.831705970207512,
    (1.0, 2): 7.015586669815619,
    (2.0, 1): 5.135622301840683,
    (0.5, 1): math.pi,
    (0.5, 2): 2.0 * math.pi,
    (1.5, 1): 4.493409457909063,
    (1.5, 2): 7.725251836937709,
    (2.5, 1): 5.763459196894550,
}

LAM1_DISC = 5.783185962946785       # j_{0,1}^2
LAM2_DISC = 14.681970642123895      # j_{1,1}^2
KAPPA_DISC = 1.356777529901379      # j_{0,1}/sqrt(pi)


def brentq_zero(nu, k):
    """Independent root oracle: sign-change scan plus brentq on scipy's jv."""
    xs = np.arange(max(nu, 0.1), 60.0, 0.05)
    vals = special.jv(nu, xs)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    a, b = xs[idx[k - 1]], xs[idx[k - 1] + 1]
    return optimize.brentq(lambda x: special.jv(nu, x), a, b, xtol=1e-15, rtol=8.9e-16)


class TestBesselJ:
    def test_special_values(self):
        assert an.bessel_j(0.0, 0.0) == 1.0
        assert an.bessel_j(1.0, 0.0) == 0.0
        assert abs(an.bessel_j(0.0, 2.404825557695773)) <= 1e-10

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 0.5, 1.5, 2.5])
    def test_against_scipy_on_0_50(self, nu):
        # within 1e-12 of scipy on the series' range [0, 8]; refused above it
        x = np.linspace(0.0, 50.0, 2501)
        series = x <= 8.0
        assert np.count_nonzero(series) == 401
        ref = special.jv(nu, x[series])
        ref[np.isnan(ref)] = 0.0  # scipy jv(nu>0, 0) quirks
        assert np.max(np.abs(an.bessel_j(nu, x[series]) - ref)) <= 1e-12
        with pytest.raises(ValueError, match=r"\[0, 8\]"):
            an.bessel_j(nu, x)

    @pytest.mark.parametrize("nu, x", [(0.3, 12.0), (3.5, 20.0), (0.0, [1.0, 8.5])])
    def test_refuses_argument_above_series_cutoff(self, nu, x):
        assert an.bessel_j(nu, 8.0) == pytest.approx(special.jv(nu, 8.0), abs=1e-12)
        with pytest.raises(ValueError, match=r"\[0, 8\]"):
            an.bessel_j(nu, x)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            an.bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            an.bessel_j(0.0, -0.5)


class TestBesselZero:
    @pytest.mark.parametrize("key", sorted(ORACLE_ZEROS))
    def test_against_frozen_oracle(self, key):
        nu, k = key
        assert abs(an.bessel_zero(nu, k) - ORACLE_ZEROS[key]) <= 1e-12 * ORACLE_ZEROS[key]

    @pytest.mark.parametrize("key", [(0.0, 1), (1.0, 1), (1.5, 2)])
    def test_against_live_oracle(self, key):
        nu, k = key
        ref = brentq_zero(nu, k)
        assert abs(an.bessel_zero(nu, k) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
    def test_interlacing(self, nu):
        j_nu_1 = an.bessel_zero(nu, 1)
        j_nu1_1 = an.bessel_zero(nu + 1.0, 1)
        j_nu_2 = an.bessel_zero(nu, 2)
        assert j_nu_1 < j_nu1_1 < j_nu_2

    def test_zero_above_series_cutoff(self):
        # j_(9/2),1 = 8.18...: its square is lambda2 of the unit ball in R^9
        ref = brentq_zero(4.5, 1)
        assert abs(ref - 8.182561452571242) <= 1e-12 * ref
        with pytest.raises(ValueError, match="zero 1 of J_4.5 lies beyond x = 8"):
            an.bessel_zero(4.5, 1)

    def test_bracket_failure_reported(self):
        # j_(0,2) = 5.52 is the last zero of J_0 below 8, where the scan
        # ends; j_(0,3) = 8.65 and j_(0,70) = 219 are not bracketed
        assert special.jn_zeros(0, 2)[-1] < 8.0 < special.jn_zeros(0, 3)[-1]
        for k in (3, 70):
            with pytest.raises(ValueError, match=f"zero {k} of J_0.0 lies beyond x = 8"):
                an.bessel_zero(0.0, k)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            an.bessel_zero(0.0, 0)


class TestBallSpectrum:
    def test_disc_values(self):
        s = an.ball_spectrum(2)
        assert abs(s.lambda1 - LAM1_DISC) <= 1e-10 * LAM1_DISC
        assert abs(s.lambda2 - LAM2_DISC) <= 1e-10 * LAM2_DISC
        assert s.lambda1 < s.lambda2

    def test_zero_residuals(self):
        s = an.ball_spectrum(2)
        assert abs(an.bessel_j(s.nu, s.j1)) <= 1e-12
        assert abs(an.bessel_j(s.nu + 1.0, s.j2)) <= 1e-12
        assert 0.0 < s.j1 < s.j2

    def test_ratio_is_shape_bound_constant(self):
        s = an.ball_spectrum(2)
        assert abs(s.lambda2 / s.lambda1 - 2.538733967088755) < 1e-9

    def test_kappa_disc(self):
        s = an.ball_spectrum(2)
        assert abs(s.kappa - KAPPA_DISC) <= 1e-10
        assert abs(s.kappa - s.j1 / math.sqrt(math.pi)) <= 1e-12

    def test_ball_3d(self):
        s = an.ball_spectrum(3)
        assert abs(s.lambda1 - math.pi**2) <= 1e-10
        assert abs(s.lambda2 - 4.493409457909063**2) <= 1e-9
        assert abs(s.kappa - math.sqrt(math.pi / 2.0)) <= 1e-10

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            an.ball_spectrum(4)

    def test_l2_normalization_by_quadrature(self):
        for dim in (2, 3):
            s = an.ball_spectrum(dim)
            surf = dim * an.unit_ball_volume(dim)

            def integrand(r):
                u, _ = _ground_state(dim, r)
                return surf * u * u * r ** (dim - 1)

            val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
            assert abs(val - 1.0) <= 1e-10, f"dim {dim}"


class TestThetaSpectrum:
    def test_disc(self):
        lam1, lam2 = an.theta_spectrum(2)
        assert lam1 == lam2  # exact equality, same computation
        assert abs(lam1 - 11.566371925893570) <= 1e-9

    def test_3d_closed_form(self):
        lam1, _ = an.theta_spectrum(3)
        assert abs(lam1 - 2.0 ** (2.0 / 3.0) * math.pi**2) <= 1e-9

    def test_equals_scaled_ball(self):
        s = an.ball_spectrum(2)
        assert an.theta_spectrum(2)[0] == an.rescale_eigenvalue(s.lambda1, 2.0 ** (-0.5))


class TestRescale:
    def test_identity(self):
        assert an.rescale_eigenvalue(7.5, 1.0) == 7.5

    def test_half(self):
        s = an.ball_spectrum(2)
        assert abs(an.rescale_eigenvalue(s.lambda1, 2.0) - s.lambda1 / 4.0) == 0.0

    def test_roundtrip_within_ulps(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lam = float(rng.uniform(0.5, 50.0))
            t = float(rng.uniform(0.1, 10.0))
            back = an.rescale_eigenvalue(an.rescale_eigenvalue(lam, t), 1.0 / t)
            assert abs(back - lam) <= 4.0 * np.spacing(lam)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            an.rescale_eigenvalue(1.0, 0.0)
        with pytest.raises(ValueError):
            an.rescale_eigenvalue(1.0, -2.0)


class TestBallEigenfunction:
    def test_boundary_values(self):
        for dim in (2, 3):
            u1, du1 = _ground_state(dim, 1.0)
            assert abs(u1) <= 1e-13
            assert abs(abs(du1) - an.ball_spectrum(dim).kappa) <= 1e-12

    def test_center_is_maximum(self):
        u0, du0 = _ground_state(2, 0.0)
        r = np.linspace(0.0, 1.0, 101)
        u, _ = _ground_state(2, r)
        assert u0 == pytest.approx(np.max(u))
        assert du0 == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_radial_ode_residual(self, dim):
        """u'' + (N-1)/r u' + lambda1 u = 0 with u'' from an independent
        term-by-term differentiated series."""
        s = an.ball_spectrum(dim)
        m = np.arange(40)
        log_gam = np.array([math.lgamma(k + 1.0) + math.lgamma(k + s.nu + 1.0) for k in m])
        coeff = (-1.0) ** m * np.exp(-log_gam) / 2.0 ** (2 * m + s.nu) * s.j1 ** (2 * m + s.nu)
        coeff *= s.norm_const  # u(r) = sum coeff_m r^(2m)
        r = np.linspace(0.05, 0.99, 97)
        u, du = _ground_state(dim, r)
        upp = np.zeros_like(r)
        for k in range(1, 40):
            upp += coeff[k] * (2 * k) * (2 * k - 1) * r ** (2 * k - 2)
        resid = upp + (dim - 1) / r * du + s.lambda1 * u
        assert np.max(np.abs(resid)) <= 1e-8
