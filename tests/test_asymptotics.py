import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from spectralgap import asymptotics as asy
from spectralgap import testfn
from spectralgap.analytic import ball_spectrum, theta_spectrum, unit_ball_volume
from spectralgap.attainable import SweepConfig, SweepRecord, sweep
from spectralgap.geometry import cap_volume

# the synthetic records check exact algebraic identities against the value
# the package itself computes
LAM_P = theta_spectrum(2)[0]
LAM = ball_spectrum(2).lambda1


def synthetic_records(eps_grid, ratio_fn):
    """Dumbbell records whose bound-path ratio equals ratio_fn(eps).  With
    the cap share c and g = 1 - c (N = 2), the deficit d and the excess x
    make the ratio's denominator d g - lam (g - 1) equal to eps and its
    numerator lam (g - 1) + x g equal to ratio_fn(eps) * eps; the
    normalized bounds are 2 g (lam - d) and 2 g (lam + x)."""
    records = []
    for e in eps_grid:
        c = cap_volume(e, 2) / math.pi
        g = 1.0 - c
        d, x = (e - LAM * c) / g, (ratio_fn(e) * e + LAM * c) / g
        records.append(SweepRecord(family="dumbbell", param=e, bound1=2.0 * g * (LAM - d),
                                   bound2=2.0 * g * (LAM + x), deficit=d, excess=x))
    return records


EPS = [0.005 * 2 ** (k / 2) for k in range(11)] + [0.2]


class TestFitSlope:
    def test_exact_power_law(self):
        pairs = [(e, 3.0 * e**2) for e in EPS]
        fit = asy.fit_slope(pairs)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == len(EPS)

    def test_perturbed_power_law_slope_bias(self):
        pairs = [(e, e * (1.0 + e)) for e in np.geomspace(0.005, 0.05, 8)]
        fit = asy.fit_slope(pairs)
        assert 1.0 <= fit.exponent <= 1.05

    def test_window_filter(self):
        pairs = [(e, e) for e in EPS]
        fit = asy.fit_slope(pairs, window=(0.005, 0.1))
        assert fit.n_points == 9
        assert fit.window[1] <= 0.1

    def test_reorder_invariance(self):
        rng = np.random.default_rng(0)
        pairs = [(e, 2.0 * e**1.3) for e in EPS]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        a, b = asy.fit_slope(pairs), asy.fit_slope(shuffled)
        assert a.exponent == pytest.approx(b.exponent, abs=1e-14)
        assert a.prefactor == pytest.approx(b.prefactor, rel=1e-14)

    def test_scale_equivariance(self):
        pairs = [(e, e**1.5) for e in EPS]
        scaled = [(e, 7.0 * y) for e, y in pairs]
        a, b = asy.fit_slope(pairs), asy.fit_slope(scaled)
        assert b.exponent == pytest.approx(a.exponent, abs=1e-12)
        assert b.prefactor == pytest.approx(7.0 * a.prefactor, rel=1e-12)

    def test_nonpositive_reported_with_eps(self):
        pairs = [(0.01, 1.0), (0.02, -1.0), (0.04, 1.0), (0.08, 1.0)]
        with pytest.raises(ValueError, match="0.02"):
            asy.fit_slope(pairs)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            asy.fit_slope([(0.01, 1.0), (0.02, 2.0), (0.04, 4.0)])


class TestRatioCurve:
    def test_synthetic_sqrt(self):
        records = synthetic_records(EPS, lambda e: math.sqrt(e))
        rows = asy.ratio_curve(records[::-1])
        assert [e for e, _, _ in rows] == EPS
        for e, r, grid in rows:
            assert r == pytest.approx(math.sqrt(e), rel=1e-12)
            assert grid is None

    def test_nonpositive_denominator_is_none(self):
        records = synthetic_records(EPS[:4], lambda e: math.sqrt(e))
        records.append(SweepRecord(family="dumbbell", param=0.25,
                                   bound1=LAM_P + 1.0, bound2=LAM_P + 2.0,
                                   deficit=-1.0, excess=1.0,
                                   lambda1_norm=LAM_P, lambda2_norm=LAM_P + 1.0))
        rows = asy.ratio_curve(records)
        assert len(rows) == 5
        assert rows[-1] == (0.25, None, None)

    def test_grid_path(self):
        rec, = synthetic_records([0.2], lambda e: 0.25)
        rec = replace(rec, lambda1_norm=LAM_P - 1.0, lambda2_norm=LAM_P + 0.5)
        ((eps, bound, grid),) = asy.ratio_curve([rec])
        assert (eps, grid) == (0.2, 0.5) and bound == pytest.approx(0.25, rel=1e-12)

    def test_other_families_ignored(self):
        rec = SweepRecord(family="ball", param=1.0, bound1=5.8, bound2=14.7,
                          lambda1_norm=5.8, lambda2_norm=14.7)
        assert asy.ratio_curve([rec]) == ()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bound_ratio_free_of_cancellation(self, dim):
        """At eps = 1e-7 the bound-path ratio is, within 1e-12 relative, the
        ratio that the deficit d, the excess x, lambda = lambda_1(ball) and
        the cap fraction c = |cap| / omega_N give in 40-digit arithmetic:
        (lambda (g - 1) + x g) / (d g - lambda (g - 1)), g = (1 - c)^(2/N)."""
        eps = 1e-7
        records = sweep({"dumbbell": [eps]}, SweepConfig(grid_eps_min=math.inf, dim=dim))
        ((_, ratio, _),) = asy.ratio_curve(records, dim=dim)
        with mp.workdps(40):
            lam = mp.mpf(ball_spectrum(dim).lambda1)
            d = mp.mpf(testfn.lemma1_rayleigh(eps, dim).deficit)
            x = mp.mpf(testfn.lemma2_rayleigh(eps, dim).excess)
            g = (1 - mp.mpf(cap_volume(eps, dim)) / mp.mpf(unit_ball_volume(dim))) ** (
                mp.mpf(2) / dim)
            reference = (lam * (g - 1) + x * g) / (d * g - lam * (g - 1))
            error = float(abs(ratio - reference) / reference)
        assert error <= 1e-12


class TestVerifyTheorem:
    def test_sqrt_ratio_passes(self):
        verdict = asy.verify_theorem(synthetic_records(EPS, lambda e: math.sqrt(e)))
        assert verdict.passed
        assert all(c.passed for c in verdict.checks)
        assert verdict.fit.exponent == pytest.approx(0.5, abs=1e-9)

    def test_constant_ratio_fails_b_and_c(self):
        verdict = asy.verify_theorem(synthetic_records(EPS, lambda e: 0.35))
        assert not verdict.passed
        by_name = {c.name: c.passed for c in verdict.checks}
        assert not by_name["endpoint_contraction"]
        assert not by_name["fitted_exponent"]

    def test_single_inversion_tolerated(self):
        def ratio(e):
            base = math.sqrt(e)
            return base * (1.12 if abs(e - 0.01) < 1e-12 else 1.0)

        verdict = asy.verify_theorem(synthetic_records(EPS, ratio))
        assert verdict.passed

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            asy.verify_theorem(synthetic_records(EPS[:3], lambda e: math.sqrt(e)))
