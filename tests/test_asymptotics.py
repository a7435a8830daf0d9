import math

import numpy as np
import pytest

from spectralgap import asymptotics as asy
from spectralgap.analytic import theta_spectrum
from spectralgap.attainable import SweepRecord

# the synthetic records check exact algebraic identities against the value
# the package itself computes
LAM_P = theta_spectrum(2)[0]


def synthetic_records(eps_grid, ratio_fn):
    """Dumbbell records whose bound-path ratio equals ratio_fn(eps)."""
    records = []
    for e in eps_grid:
        den = e  # lambda1 bound one eps below the corner
        num = ratio_fn(e) * den
        records.append(SweepRecord(
            family="dumbbell", param=e,
            bound1=LAM_P - den, bound2=LAM_P + num,
        ))
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
        curves = asy.ratio_curve(records)
        assert len(curves.bound) == len(EPS)
        for e, r in curves.bound:
            assert r == pytest.approx(math.sqrt(e), rel=1e-12)
        assert curves.grid == ()
        assert curves.flagged == ()

    def test_nonpositive_denominator_flagged(self):
        records = synthetic_records(EPS[:4], lambda e: math.sqrt(e))
        records.append(SweepRecord(family="dumbbell", param=0.25,
                                   bound1=LAM_P + 1.0, bound2=LAM_P + 2.0))
        curves = asy.ratio_curve(records)
        assert len(curves.flagged) == 1
        assert curves.flagged[0][0] == 0.25

    def test_grid_path(self):
        rec = SweepRecord(family="dumbbell", param=0.2,
                          lambda1_norm=LAM_P - 1.0, lambda2_norm=LAM_P + 0.5)
        curves = asy.ratio_curve([rec])
        assert curves.grid == ((0.2, 0.5),)

    def test_other_families_ignored(self):
        rec = SweepRecord(family="ball", param=1.0,
                          lambda1_norm=5.8, lambda2_norm=14.7)
        assert asy.ratio_curve([rec]).bound == ()


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
