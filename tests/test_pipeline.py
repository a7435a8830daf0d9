import numpy as np
import pytest

from spectralgap import eigensolve as es
from spectralgap import geometry as geo
from spectralgap import pipeline

TOL = 1e-6


def _scripted(monkeypatch, levels):
    """Make solve_domain see the given per-level eigenvalue pairs."""
    script = iter(levels)

    def fake(op, k, tol, seed, x0):
        return es.EigenResult(values=np.array(next(script)), vectors=np.ones((op.n, k)),
                              residuals=np.zeros(k), iterations=(1,) * k, tol=tol)

    monkeypatch.setattr(pipeline.eigensolve, "smallest_pairs", fake)


class TestErrorBudget:
    H = (1 / 4, 1 / 8, 1 / 16)

    def test_non_monotone_keeps_last_level_change(self, monkeypatch):
        # lambda1 turns back on the finest level; lambda2 follows 10 + 3h^2
        _scripted(monkeypatch, [(5.0, 10.1875), (5.2, 10.046875), (5.1, 10.01171875)])
        solve = pipeline.solve_domain(geo.Ball(), self.H, tol=TOL)
        assert solve.monotone == (False, True)
        assert solve.lambda_x[0] == 5.1
        assert solve.error_est_raw[0] >= abs(5.1 - 5.2)
        assert solve.error_est[0] >= abs(5.1 - 5.2) * (solve.measure / np.pi)
        # a fitted order keeps its own budget, the extrapolation correction
        assert solve.orders[1] == pytest.approx(2.0)
        correction = abs(solve.lambda_x[1] - 10.01171875)
        assert solve.error_est_raw[1] == pytest.approx(correction + TOL * solve.lambda_x[1])
        assert solve.error_est_raw[1] < abs(10.01171875 - 10.046875)

    def test_two_levels_at_least_last_change(self, monkeypatch):
        _scripted(monkeypatch, [(5.0, 10.2), (5.1, 10.05)])
        solve = pipeline.solve_domain(geo.Ball(), self.H[1:], tol=TOL)
        assert (solve.error_est_raw >= [0.1, 0.15]).all()
        assert solve.lambda_x[0] - solve.error_est_raw[0] <= 5.1 <= (
            solve.lambda_x[0] + solve.error_est_raw[0])


class TestWrappedDumbbell:
    def test_scaled_dumbbell_keeps_junction(self):
        # a wrapped dumbbell keeps its junction nodes and stays one domain
        h_list = (1 / 8, 1 / 16, 1 / 32)
        plain = pipeline.solve_domain(geo.Dumbbell(0.2), h_list, tol=TOL, seed=0)
        scaled = pipeline.solve_domain(geo.Scaled(1.0, geo.Dumbbell(0.2)), h_list,
                                       tol=TOL, seed=0)
        assert np.array_equal(scaled.grid.active, plain.grid.active)
        assert np.array_equal(scaled.lambda_norm, plain.lambda_norm)
