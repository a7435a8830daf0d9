"""Shared fixtures; the expensive grid solves are session-scoped and timed so
the acceptance suite can verify its runtime budgets while module tests reuse
the same results.  Two assertion helpers check what every result must
satisfy: ``assert_in_region`` the sharp inclusions of a sweep record,
``assert_odd_reflection`` the odd-reflection inequality of a dumbbell and its
half; ``assert_same_grid`` compares two grids field for field."""

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from spectralgap import attainable, discretize, geometry, pipeline, testfn
from spectralgap.analytic import ball_spectrum, theta_spectrum

# fine grids pinned by the acceptance criteria
FINE_H = (1 / 64, 1 / 128, 1 / 256)
MID_H = (1 / 32, 1 / 64, 1 / 128)
CROSSCHECK_EPS = (0.1, 0.2, 0.3)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def cli_env(extra=None):
    """Environment for a ``python -m spectralgap.cli`` child process: the
    caller's environment with the absolute ``src`` directory first on
    ``PYTHONPATH`` (the caller's entries kept after it), so the child imports
    this checkout from any working directory, installed or not."""
    env = dict(os.environ)
    entries = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), *entries])
    if extra:
        env.update(extra)
    return env


@dataclass(frozen=True)
class Timed:
    value: object
    seconds: float


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return Timed(value=value, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def ball2():
    return ball_spectrum(2)


@pytest.fixture(scope="session")
def lemma_bounds():
    """Timed (lemma1, lemma2) bounds over the default eps grid, N = 2."""
    def compute():
        return {
            eps: (testfn.lemma1_rayleigh(eps), testfn.lemma2_rayleigh(eps))
            for eps in attainable.DEFAULT_EPS_GRID
        }
    return _timed(compute)


@pytest.fixture(scope="session")
def bound_only_records():
    """Dumbbell sweep records over the default eps grid with bounds only."""
    config = attainable.SweepConfig(grid_eps_min=float("inf"))
    return attainable.sweep({"dumbbell": attainable.DEFAULT_EPS_GRID}, config)


@pytest.fixture(scope="session")
def disc_solve_fine():
    """Unit disc at the criterion grids {1/64, 1/128, 1/256}, timed."""
    return _timed(lambda: pipeline.solve_domain(geometry.Ball(), FINE_H, tol=1e-6))


@pytest.fixture(scope="session")
def twoballs_solve():
    return _timed(lambda: pipeline.solve_domain(geometry.two_balls(), MID_H, tol=1e-6))


@pytest.fixture(scope="session")
def dumbbell_solves():
    """Timed {eps: (dumbbell solve, half-dumbbell solve)} at the
    cross-check parameters."""
    def compute():
        out = {}
        for eps in CROSSCHECK_EPS:
            dumb = pipeline.solve_domain(geometry.Dumbbell(eps), MID_H, tol=1e-6)
            half = pipeline.solve_domain(geometry.HalfDumbbell(eps), MID_H, tol=1e-6, k=1)
            out[eps] = (dumb, half)
        return out
    return _timed(compute)


@pytest.fixture(scope="session")
def default_sweep_records():
    def compute():
        config = attainable.SweepConfig(h_list=MID_H, tol=1e-6)
        return attainable.sweep(attainable.DEFAULT_FAMILIES, config)
    return _timed(compute)


def grid_problem(grid):
    """The five-point matrix of a grid and its chain of interpolations, the
    two arguments of ``eigensolve.smallest_pairs``.  Every test that solves
    a grid directly takes them from here: a solve handed a short chain
    inverts its coarsest level densely, the whole operator if the chain is
    empty."""
    return discretize.assemble(grid), pipeline.chain(grid)[1]


def row_lattice(i):
    """The grid of spacing 1 whose active nodes are the lattice nodes
    (i, 0), in the order given: a bare matrix's lattice when i is
    0 .. n - 1."""
    i = np.asarray(i)
    return discretize.lattice_grid(1.0, np.column_stack([i, np.zeros_like(i)]))


def assert_same_grid(got, want):
    """Two grids are equal field for field, dtypes included."""
    assert (got.h, got.i0, got.j0) == (want.h, want.i0, want.j0)
    for name in ("index_map", "active"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def ball_ground_state_field(dim=2, center=(0.0, 0.0), scale=1.0):
    """Exact unit-ball ground-state field centered at ``center``; values and
    gradients are optionally multiplied by a constant (for homogeneity
    checks)."""
    from spectralgap.analytic import radial_profile

    value_fn, fac_fn = radial_profile(dim)
    c = np.asarray(center, dtype=float)

    def field(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - c
        r = np.minimum(np.sqrt(np.sum(d * d, axis=1)), 1.0)
        vals = value_fn(r) * scale
        grads = fac_fn(r)[:, None] * d * scale
        return vals, grads

    return field


def assert_in_region(record):
    """Assert the sharp inclusions of every planar unit-measure domain on a
    sweep record's normalized pair (the grid pair, else the bound pair), each
    within the record's error budget err: Faber-Krahn lambda1 >= lambda1(ball),
    Krahn-Szego lambda2 >= lambda2(two equal balls), and 1 <= lambda2/lambda1
    <= lambda2(ball)/lambda1(ball) (Ashbaugh-Benguria), the ratio within
    2 * err / lambda1 at both ends."""
    if record.lambda1_norm is not None:
        lam1, lam2 = record.lambda1_norm, record.lambda2_norm
    else:
        lam1, lam2 = record.bound1, record.bound2
    name = f"{record.family}({record.param})"
    assert lam1 is not None and lam2 is not None, f"{name} has no values: {record.failure}"
    spec, lam_theta, err = ball_spectrum(2), theta_spectrum(2)[0], record.error_est
    ratio, ratio_err = lam2 / lam1, 2.0 * err / lam1
    assert lam1 >= spec.lambda1 - err, f"{name}: Faber-Krahn, lambda1 {lam1} (err {err})"
    assert lam2 >= lam_theta - err, f"{name}: Krahn-Szego, lambda2 {lam2} (err {err})"
    assert ratio >= 1.0 - ratio_err, f"{name}: ratio below 1, {ratio} (err {ratio_err})"
    assert ratio <= spec.lambda2 / spec.lambda1 + ratio_err, (
        f"{name}: Ashbaugh-Benguria, ratio {ratio} (err {ratio_err})")


def mirror_correlation(solve):
    """-<v, Mv> / <v, v> for the second grid eigenvector v of a solve and M
    its mirror image across {x1 = 0}, over the nodes whose mirror is a node:
    1 for an odd mode, -1 for an even one."""
    grid, v = solve.grid, solve.levels[-1].vectors[:, 1]
    mirror = grid.index_map[-grid.active[:, 0] - grid.i0, grid.active[:, 1] - grid.j0]
    ok = mirror >= 0
    return -float(v[ok] @ v[mirror[ok]]) / float(v[ok] @ v[ok])


def assert_odd_reflection(dumbbell, half):
    """Assert, for solves of Dumbbell(eps) and HalfDumbbell(eps) on the same
    levels, lambda2(dumbbell) <= lambda1(half) within twice the summed grid
    budgets (the half's ground state, reflected oddly, is a trial field for
    lambda2), and an odd second eigenvector: mirror correlation >= 0.99.

    A dumbbell is solved by mirror sector, so it meets both by
    construction while its second even eigenvalue lies above the first odd
    one: its lambda2 is then the odd sector's, the half dumbbell's lambda1
    on the same nodes (bit for bit at the same seed), and its second vector
    is that mode extended oddly.  The check guards that ordering;
    ``test_mirror_sectors_match_the_whole_grid_solve`` checks the split
    against the whole grid's solve, parity included."""
    lam2, lam1_half = float(dumbbell.lambda_x[1]), float(half.lambda_x[0])
    budget = float(dumbbell.error_est_raw[1] + half.error_est_raw[0])
    assert lam2 <= lam1_half + 2.0 * budget, (
        f"odd reflection: lambda2(dumbbell) {lam2} > lambda1(half) {lam1_half} + 2 * {budget}")
    corr = mirror_correlation(dumbbell)
    assert corr >= 0.99, f"symmetry: mirror correlation {corr} < 0.99"
