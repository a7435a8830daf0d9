"""Shared fixtures; the expensive grid solves are session-scoped and timed so
the acceptance suite can verify its runtime budgets while module tests reuse
the same results."""

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from spectralgap import attainable, geometry, pipeline, testfn
from spectralgap.analytic import ball_spectrum

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
    return attainable.sweep("dumbbell", attainable.DEFAULT_EPS_GRID, config)


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
        return attainable.default_sweep(config)
    return _timed(compute)


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
