import concurrent.futures
import math

import pytest

from spectralgap import attainable as at

CHEAP = at.SweepConfig(h_list=(1 / 8, 1 / 16, 1 / 32), tol=1e-6)
LAM1_DISC = 5.783185962946785
LAM2_DISC = 14.681970642123895
LAM_P = 11.566371925893570


class _SerialPool:
    """Stands in for ProcessPoolExecutor, which ``sweep`` imports from
    ``concurrent.futures`` when it starts a pool: records the requested
    worker count and maps in this process."""

    started = []

    def __init__(self, max_workers):
        _SerialPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestSweep:
    def test_ball_record_hits_q(self):
        rec = at.sweep("ball", [1.0], CHEAP)[0]
        assert rec.failure is None
        assert rec.lambda1_norm == pytest.approx(LAM1_DISC, rel=0.02)
        assert rec.lambda2_norm == pytest.approx(LAM2_DISC, rel=0.02)

    def test_equal_two_balls_hit_p(self):
        rec = at.sweep("two_balls_ratio", [1.0], CHEAP)[0]
        assert rec.lambda1_norm == pytest.approx(LAM_P, rel=0.02)
        assert rec.lambda2_norm == pytest.approx(LAM_P, rel=0.02)

    def test_square_matches_closed_form(self):
        rec = at.sweep("rectangles", [1.0], CHEAP)[0]
        assert rec.lambda1_norm == pytest.approx(2.0 * math.pi, rel=0.02)
        assert rec.lambda2_norm == pytest.approx(5.0 * math.pi, rel=0.02)

    def test_records_sorted_and_failures_inline(self):
        records = at.sweep("dumbbell", [0.2, -1.0, 0.1],
                           at.SweepConfig(grid_eps_min=math.inf))
        assert [r.param for r in records] == [-1.0, 0.1, 0.2]
        assert records[0].failure is not None
        assert records[1].failure is None

    def test_normalization_identity(self):
        rec = at.sweep("ellipses", [1.5], CHEAP)[0]
        assert rec.lambda1_norm * rec.t_factor**2 == pytest.approx(rec.lambda1_x, rel=1e-12)
        assert rec.t_factor == pytest.approx(
            (math.pi / rec.measure) ** 0.5, rel=1e-12)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            at.sweep("pentagon", [1.0], CHEAP)

    def test_parallel_matches_serial(self, bound_only_records):
        config = at.SweepConfig(grid_eps_min=math.inf, jobs=2)
        par = at.sweep("dumbbell", at.DEFAULT_EPS_GRID, config)
        for a, b in zip(bound_only_records, par):
            assert a == b

    def test_pool_capped_at_task_count(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "started", [])
        config = at.SweepConfig(grid_eps_min=math.inf, jobs=12)
        records = at.sweep("dumbbell", [0.2, 0.1], config)
        assert _SerialPool.started == [2]
        serial = at.sweep("dumbbell", [0.2, 0.1], at.SweepConfig(grid_eps_min=math.inf))
        assert records == serial

    def test_single_parameter_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "started", [])
        config = at.SweepConfig(grid_eps_min=math.inf, jobs=4)
        records = at.sweep("dumbbell", [0.1], config)
        assert _SerialPool.started == []
        assert records[0].failure is None and records[0].bound1 is not None

    def test_dumbbell_bounds_always_present(self, bound_only_records):
        for rec in bound_only_records:
            assert rec.bound1 is not None and rec.bound2 is not None
            assert rec.lambda1_norm is None  # below grid_eps_min: bounds only

    def test_endpoint_convergence_to_p(self, bound_only_records):
        # distance to the two-ball corner shrinks monotonically as eps
        # decreases through the smallest five parameters
        dists = []
        for rec in sorted(bound_only_records, key=lambda r: r.param)[:5]:
            l1, l2 = rec.normalized_pair()
            dists.append(math.hypot(l1 - LAM_P, l2 - LAM_P))
        assert all(a < b for a, b in zip(dists[:-1], dists[1:]))
        assert dists[0] <= 0.05


class TestRegionCheck:
    def test_ball_margins_near_zero(self):
        rec = at.sweep("ball", [1.0], CHEAP)[0]
        rep = at.region_check(rec)
        assert rep.passed
        assert abs(rep.faber_krahn_margin) <= rec.error_est
        assert rep.ratio == pytest.approx(LAM2_DISC / LAM1_DISC, rel=0.02)

    def test_theta_record(self):
        rec = at.sweep("two_balls_ratio", [1.0], CHEAP)[0]
        rep = at.region_check(rec)
        assert rep.passed
        assert abs(rep.krahn_szego_margin) <= rec.error_est
        assert rep.ratio == pytest.approx(1.0, abs=0.01)

    def test_square_strict_interior(self):
        rec = at.sweep("rectangles", [1.0], CHEAP)[0]
        rep = at.region_check(rec)
        assert rep.passed
        assert rep.faber_krahn_margin > rec.error_est
        assert rep.krahn_szego_margin > rec.error_est
        assert rep.ratio_low_margin > 0 and rep.ratio_high_margin > 0

    def test_failed_record_rejected(self):
        rec = at.SweepRecord(family="dumbbell", param=-1.0, failure="boom")
        with pytest.raises(ValueError):
            at.region_check(rec)

