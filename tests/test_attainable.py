import concurrent.futures
import math
from dataclasses import replace

import pytest

from spectralgap import attainable as at
from spectralgap import eigensolve
from spectralgap.geometry import Ball, DisjointUnion, Dumbbell, normalization
from spectralgap.pipeline import solve_domain
from spectralgap.testfn import lemma1_rayleigh, lemma2_rayleigh

from conftest import assert_in_region

CHEAP = at.SweepConfig(h_list=(1 / 8, 1 / 16, 1 / 32), tol=1e-6)
LAM1_DISC = 5.783185962946785
LAM2_DISC = 14.681970642123895
LAM_P = 11.566371925893570
PLANAR_GRID = "ValueError: grids are planar only, domain has dim 3"


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
        rec = at.sweep({"ball": [1.0]}, CHEAP)[0]
        assert rec.failure is None
        assert rec.lambda1_norm == pytest.approx(LAM1_DISC, rel=0.02)
        assert rec.lambda2_norm == pytest.approx(LAM2_DISC, rel=0.02)

    def test_equal_two_balls_hit_p(self):
        rec = at.sweep({"two_balls_ratio": [1.0]}, CHEAP)[0]
        assert rec.lambda1_norm == pytest.approx(LAM_P, rel=0.02)
        assert rec.lambda2_norm == pytest.approx(LAM_P, rel=0.02)

    def test_square_matches_closed_form(self):
        rec = at.sweep({"rectangles": [1.0]}, CHEAP)[0]
        assert rec.lambda1_norm == pytest.approx(2.0 * math.pi, rel=0.02)
        assert rec.lambda2_norm == pytest.approx(5.0 * math.pi, rel=0.02)

    def test_records_sorted_and_failures_inline(self):
        records = at.sweep({"dumbbell": [0.2, -1.0, 0.1]},
                           at.SweepConfig(grid_eps_min=math.inf))
        assert [r.param for r in records] == [-1.0, 0.1, 0.2]
        assert records[0].failure is not None
        assert records[1].failure is None

    def test_convergence_failure_recorded_inline(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "MAX_OUTER", 2)
        config = at.SweepConfig(h_list=(1 / 8, 1 / 16), tol=1e-12)
        rec = at.sweep({"ball": [1.0]}, config)[0]
        assert rec.failure.startswith("ConvergenceError: eigenpairs not converged after 2 ")
        assert math.isnan(rec.error_est) and rec.lambda1_norm is None

    def test_failed_grid_solve_keeps_bounds(self):
        # h = 2 leaves one node in Dumbbell(0.2): the grid solve fails after
        # the measure, t and bounds are known, and the budget is theirs
        rec = at.sweep({"dumbbell": [0.2]}, at.SweepConfig(h_list=(2.0, 1.0)))[0]
        assert rec.failure.startswith("GridError: 1 active node(s) at spacing h = 2.0")
        assert rec.h_list == () and rec.lambda1_x is None and rec.lambda1_norm is None
        measure, t, factor = normalization(Dumbbell(0.2))
        b1, b2 = lemma1_rayleigh(0.2), lemma2_rayleigh(0.2)
        assert (rec.measure, rec.t_factor) == (measure, t)
        assert (rec.bound1, rec.bound2) == (b1.quotient * factor, b2.quotient * factor)
        assert (rec.deficit, rec.excess) == (b1.deficit, b2.excess)
        assert rec.error_est == (b1.error_est + b2.error_est) * factor > 0

    def test_each_refused_eps_fails_only_its_own_record(self):
        # -1.0 is refused by Dumbbell; 0.5 is a dumbbell, so its record keeps
        # its measure and t, but the bounds stop at 0.3
        families = {"dumbbell": [0.2, 0.5, -1.0]}
        config = at.SweepConfig(grid_eps_min=math.inf)
        records = at.sweep(families, config)
        # repr, since NaN fields compare unequal
        assert repr(at.sweep(families, replace(config, jobs=2))) == repr(records)
        assert [r.param for r in records] == [-1.0, 0.2, 0.5]
        low, good, high = records
        assert low.failure == "ValueError: dumbbell parameter must satisfy 0 < eps < 1, got -1.0"
        assert math.isnan(low.measure) and math.isnan(low.error_est) and low.bound1 is None
        assert high.failure == ("ValueError: junction parameter must satisfy "
                                "1e-150 <= eps <= 0.3, got 0.5")
        assert (high.measure, high.t_factor) == normalization(Dumbbell(0.5))[:2]
        assert math.isnan(high.error_est) and high.bound1 is None and high.bound2 is None
        assert high.deficit is None and high.excess is None
        factor = normalization(Dumbbell(0.2))[2]
        b1, b2 = lemma1_rayleigh(0.2), lemma2_rayleigh(0.2)
        assert good.failure is None
        assert (good.bound1, good.bound2) == (b1.quotient * factor, b2.quotient * factor)
        assert good.error_est == (b1.error_est + b2.error_est) * factor

    def test_each_lemma_called_once_per_sweep(self, monkeypatch):
        # in the parent process, before the tasks are dispatched to the pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        calls = []
        for name in ("lemma1_rayleigh", "lemma2_rayleigh"):
            def counted(eps, dim, name=name, fn=getattr(at, name)):
                calls.append((name, tuple(eps)))
                return fn(eps, dim=dim)
            monkeypatch.setattr(at, name, counted)
        config = at.SweepConfig(grid_eps_min=math.inf, jobs=2)
        records = at.sweep({"dumbbell": [0.2, 0.5, -1.0, 0.1], "rectangles": [1.0]},
                           replace(config, dim=3))
        assert calls == [("lemma1_rayleigh", (0.1, 0.2)), ("lemma2_rayleigh", (0.1, 0.2))]
        assert [r.bound1 is not None for r in records] == [False, True, True, False, False]
        calls.clear()
        at.sweep({"rectangles": [1.0]}, replace(config, dim=3))
        assert calls == []

    def test_bound_batch_that_fails_as_a_whole_fails_each_dumbbell(self):
        records = at.sweep({"dumbbell": [0.1, 0.2]},
                           at.SweepConfig(grid_eps_min=math.inf, dim=4))
        assert [r.failure for r in records] == [
            "ValueError: ball spectrum supports N in {2, 3}, got 4"] * 2
        assert all(r.measure > 0 and r.bound1 is None for r in records)

    @pytest.mark.parametrize("family, param, domain", [
        ("ball", 1.0, Ball()), ("dumbbell", 0.2, Dumbbell(0.2)),
    ])
    def test_values_within_tol_of_residual_stopped_solve(self, family, param, domain):
        # a record's finest level stops on Temple's estimate; every value it
        # carries stays within tol * lambda of the residual-stopped solve's
        config = at.SweepConfig()
        rec = at.sweep({family: [param]}, config)[0]
        solve = solve_domain(domain, config.h_list, tol=config.tol, seed=config.seed)
        got = [*rec.lambda1_raw, *rec.lambda2_raw, rec.lambda1_x, rec.lambda2_x]
        want = [*solve.raw(0), *solve.raw(1), *solve.lambda_x]
        assert rec.h_list == solve.h_list
        for lam, reference in zip(got, want, strict=True):
            assert abs(lam - reference) <= config.tol * reference

    @pytest.mark.parametrize("family, param, domain, failure", [
        ("ball", 1.0, Ball(dim=3), PLANAR_GRID),
        ("two_balls_ratio", 0.8, DisjointUnion(parts=(
            Ball(center=(-1.9, 0.0, 0.0), dim=3),
            Ball(center=(1.9, 0.0, 0.0), radius=0.8, dim=3))), PLANAR_GRID),
        ("dumbbell", 0.2, Dumbbell(0.2, dim=3), PLANAR_GRID),
        ("rectangles", 2.0, None, "ValueError: rectangles are planar (dim = 2)"),
        ("ellipses", 2.0, None, "ValueError: ellipses are planar (dim = 2)"),
    ])
    def test_every_family_built_in_config_dim(self, family, param, domain, failure):
        # a family built in R^3 carries that domain's measure and t and the
        # planar grid's refusal; a planar shape refuses R^3 itself
        rec = at.sweep({family: [param]}, replace(CHEAP, dim=3))[0]
        assert rec.failure == failure
        assert rec.h_list == () and rec.lambda1_norm is None
        assert (rec.bound1 is not None) == (family == "dumbbell")
        if domain is None:
            assert math.isnan(rec.measure) and math.isnan(rec.t_factor)
        else:
            assert (rec.measure, rec.t_factor) == normalization(domain)[:2]

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerance_outside_zero_to_inf_rejected(self, tol):
        with pytest.raises(ValueError, match="solver tolerance must be finite and > 0"):
            at.SweepConfig(tol=tol)

    @pytest.mark.parametrize("field, value, message", [
        ("grid_eps_min", math.nan, "grid_eps_min must be a number, got nan"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("jobs", 0, "jobs must be >= 1"),
        ("h_list", (1 / 8,), "need at least two grid spacings"),
        ("h_list", (1 / 8, 1 / 24), "grid levels must halve"),
    ])
    def test_invalid_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            at.SweepConfig(**{field: value})

    def test_normalization_identity(self):
        rec = at.sweep({"ellipses": [1.5]}, CHEAP)[0]
        assert rec.lambda1_norm * rec.t_factor**2 == pytest.approx(rec.lambda1_x, rel=1e-12)
        assert rec.t_factor == pytest.approx(
            (math.pi / rec.measure) ** 0.5, rel=1e-12)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            at.sweep({"pentagon": [1.0]}, CHEAP)

    def test_parallel_matches_serial(self, bound_only_records):
        config = at.SweepConfig(grid_eps_min=math.inf, jobs=2)
        par = at.sweep({"dumbbell": at.DEFAULT_EPS_GRID}, config)
        for a, b in zip(bound_only_records, par):
            assert a == b

    def test_pool_capped_at_task_count(self, monkeypatch):
        # one pool for the tasks of every family, in family then parameter order
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "started", [])
        families = {"dumbbell": [0.2, 0.1], "ball": [1.0]}
        config = at.SweepConfig(h_list=(1 / 8, 1 / 16), grid_eps_min=math.inf, jobs=12)
        records = at.sweep(families, config)
        assert _SerialPool.started == [3]
        assert [(r.family, r.param) for r in records] == [
            ("dumbbell", 0.1), ("dumbbell", 0.2), ("ball", 1.0)]
        assert records == at.sweep(families, replace(config, jobs=1))

    def test_single_parameter_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "started", [])
        config = at.SweepConfig(grid_eps_min=math.inf, jobs=4)
        records = at.sweep({"dumbbell": [0.1]}, config)
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
            l1, l2 = rec.bound1, rec.bound2
            dists.append(math.hypot(l1 - LAM_P, l2 - LAM_P))
        assert all(a < b for a, b in zip(dists[:-1], dists[1:]))
        assert dists[0] <= 0.05


class TestRegionCheck:
    def test_ball_margins_near_zero(self):
        rec = at.sweep({"ball": [1.0]}, CHEAP)[0]
        assert_in_region(rec)
        assert abs(rec.lambda1_norm - LAM1_DISC) <= rec.error_est
        assert rec.lambda2_norm / rec.lambda1_norm == pytest.approx(LAM2_DISC / LAM1_DISC,
                                                                    rel=0.02)

    def test_theta_record(self):
        rec = at.sweep({"two_balls_ratio": [1.0]}, CHEAP)[0]
        assert_in_region(rec)
        assert abs(rec.lambda2_norm - LAM_P) <= rec.error_est
        assert rec.lambda2_norm / rec.lambda1_norm == pytest.approx(1.0, abs=0.01)

    def test_square_strict_interior(self):
        rec = at.sweep({"rectangles": [1.0]}, CHEAP)[0]
        assert_in_region(rec)
        assert rec.lambda1_norm - LAM1_DISC > rec.error_est
        assert rec.lambda2_norm - LAM_P > rec.error_est
        assert 1.0 < rec.lambda2_norm / rec.lambda1_norm < LAM2_DISC / LAM1_DISC

    def test_failed_record_rejected(self):
        rec = at.SweepRecord(family="dumbbell", param=-1.0, failure="boom")
        with pytest.raises(AssertionError, match="has no values: boom"):
            assert_in_region(rec)

    # (lambda1, lambda2) d tolerances past the edge of each inclusion and
    # inside the other three, at err = 0.5: the ratio's tolerance
    # 2 * err / lambda1 is a shift of 2 * err = 1 in lambda1 or lambda2
    EDGES = {
        "Faber-Krahn": lambda d: (LAM1_DISC - 0.5 * d, LAM_P),
        "Krahn-Szego": lambda d: (LAM1_DISC, LAM_P - 0.5 * d),
        "ratio below 1": lambda d: (LAM_P + 1.0 * d, LAM_P),
        "Ashbaugh-Benguria": lambda d: (LAM1_DISC, LAM2_DISC + 1.0 * d),
    }

    @pytest.mark.parametrize("fields", [("lambda1_norm", "lambda2_norm"), ("bound1", "bound2")])
    @pytest.mark.parametrize("inclusion", sorted(EDGES))
    def test_each_inclusion_holds_to_its_budget(self, inclusion, fields):
        def record(d):
            values = dict(zip(fields, self.EDGES[inclusion](d)))
            return at.SweepRecord(family="synthetic", param=1.0, error_est=0.5, **values)

        assert_in_region(record(0.9))
        with pytest.raises(AssertionError, match=inclusion):
            assert_in_region(record(1.1))
