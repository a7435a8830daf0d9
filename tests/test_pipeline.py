import tracemalloc

import numpy as np
import pytest

from spectralgap import discretize as d
from spectralgap import eigensolve as es
from spectralgap import geometry as geo
from spectralgap import pipeline

TOL = 1e-6


def _scripted(monkeypatch, levels):
    """Make solve_domain see the given per-level eigenvalue pairs."""
    script = iter(levels)

    def fake(op, k, tol, seed, x0, transfers):
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

    def test_order_outside_band_takes_unfitted_path(self, monkeypatch):
        # raw lambda1 of Dumbbell(0.3) at h = 1/64, 1/128, 1/256 fits order
        # 0.03, where 1 / (2^p - 1) would add 0.85 to the finest value
        _scripted(monkeypatch, [(4.0860, 10.1875), (4.1028, 10.046875), (4.1193, 10.01171875)])
        solve = pipeline.solve_domain(geo.Ball(), self.H, tol=TOL)
        assert solve.orders[0] < d.ORDER_BAND[0] <= solve.orders[1]
        assert solve.monotone == (False, True)
        assert solve.lambda_x[0] == 4.1193
        assert 4.1193 - 4.1028 <= solve.error_est_raw[0] <= 0.02

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


def test_fewer_active_nodes_than_pairs():
    domain = geo.Ball(center=(0.5, 0.5), radius=0.01)  # one node per grid
    with pytest.raises(d.GridError, match=r"1 active node\(s\) at spacing h = 0\.125 in Ball"):
        pipeline.solve_domain(domain, (1 / 8, 1 / 16), tol=TOL)


def test_disc_solve_peak_memory():
    """The tracemalloc peak of one disc solve at 1/32 ... 1/128 (about
    12.8 MiB) stays within 10% of the 12.9 MiB of the aggregation-multigrid
    solver it replaced."""
    tracemalloc.start()
    try:
        pipeline.solve_domain(geo.Ball(), (1 / 32, 1 / 64, 1 / 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14.2 * 2**20


def test_transfers_passed_finest_first(monkeypatch):
    """Each level's solve gets the interpolation onto it from every coarser
    level, finest first, built once: the matrix that prolonged the starting
    vectors is the one passed."""
    seen = []
    solve = pipeline.eigensolve.smallest_pairs

    def record(op, k, tol, seed, x0, transfers):
        seen.append((op.n, list(transfers)))
        return solve(op, k=k, tol=tol, seed=seed, x0=x0, transfers=transfers)

    monkeypatch.setattr(pipeline.eigensolve, "smallest_pairs", record)
    h_list = (1 / 8, 1 / 16, 1 / 32)
    pipeline.solve_domain(geo.Dumbbell(0.2), h_list, tol=TOL, seed=1)
    sizes = [d.build_grid(geo.Dumbbell(0.2), h).n for h in h_list]
    assert [n for n, _ in seen] == sizes
    assert [[P.shape for P in transfers] for _, transfers in seen] == [
        [], [(sizes[1], sizes[0])], [(sizes[2], sizes[1]), (sizes[1], sizes[0])]]
    assert seen[2][1][1] is seen[1][1][0]


def test_h_list_halves_exactly():
    # spacings within the 1e-12 ratio tolerance are replaced by exact halves,
    # so the all-even nodes of each grid are the active nodes of the one before
    exact = (1 / 8, 1 / 16, 1 / 32)
    perturbed = (1 / 8, (1 / 16) * (1 + 1e-13), (1 / 32) * (1 - 1e-13))
    assert perturbed != exact
    assert pipeline._check_h_list(perturbed) == list(exact)
    a = pipeline.solve_domain(geo.Dumbbell(0.2), exact, tol=TOL, seed=1)
    b = pipeline.solve_domain(geo.Dumbbell(0.2), perturbed, tol=TOL, seed=1)
    assert a.h_list == b.h_list == exact
    assert np.array_equal(a.grid.active, b.grid.active)
    assert np.array_equal(a.lambda_x, b.lambda_x)


@pytest.mark.parametrize("domain, h_list, iterations", [
    (geo.Ball(), (1 / 32, 1 / 64, 1 / 128), (12, 8, 8)),
    (geo.Dumbbell(0.2), (1 / 16, 1 / 32, 1 / 64), (11, 8, 8)),
])
def test_block_iterations_per_level(domain, h_list, iterations):
    solve = pipeline.solve_domain(domain, h_list, tol=TOL, seed=1)
    assert tuple(lv.iterations for lv in solve.levels) == tuple((i, i) for i in iterations)
    for lv in solve.levels:
        assert all(0 < inner <= outer for inner, outer in zip(lv.inner_iterations, lv.iterations))
