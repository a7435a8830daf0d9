"""Grid eigensolve pipeline: solve a domain across halving grid levels,
Richardson-extrapolate with a fitted order, and normalize to unit measure.

Coarse-level eigenvectors are prolonged to the next grid as starting guesses
for its block eigensolve.  The per-eigenvalue error
budget sums the extrapolation correction and the solver tolerance; when no
order could be fitted (two levels, or a non-monotone sequence) the correction
is at least the change between the two finest levels.  Callers add their own
quadrature budgets where relevant.
"""

from dataclasses import dataclass, field

import numpy as np

from . import discretize, eigensolve
from .analytic import unit_ball_volume
from .geometry import measure

__all__ = ["LevelSolve", "DomainSolve", "solve_domain"]


@dataclass(frozen=True)
class LevelSolve:
    h: float
    n: int
    values: np.ndarray
    residuals: np.ndarray
    iterations: tuple


@dataclass(frozen=True)
class DomainSolve:
    """Raw, extrapolated, and measure-normalized eigenvalue estimates.

    ``error_est_raw`` budgets the unnormalized extrapolated values (the
    extrapolation correction magnitude, at least the last level change when
    no order could be fitted, plus the solver tolerance);
    ``error_est`` is the same budget carried through the normalization.
    """

    domain: object
    h_list: tuple
    levels: tuple
    lambda_x: np.ndarray
    orders: tuple
    monotone: tuple
    measure: float
    t_factor: float
    lambda_norm: np.ndarray
    error_est_raw: np.ndarray
    error_est: np.ndarray
    grid: object = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    def raw(self, i: int) -> list:
        """Per-level raw values of eigenvalue i (coarse to fine)."""
        return [float(lv.values[i]) for lv in self.levels]


def _check_h_list(h_list):
    hs = sorted((float(h) for h in h_list), reverse=True)
    if not hs:
        raise ValueError("need at least one grid spacing")
    for a, b in zip(hs, hs[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError(f"grid levels must halve: got spacings {hs}")
    return hs


def solve_domain(domain, h_list, tol: float = 1e-6, seed: int | None = None,
                 k: int = 2) -> DomainSolve:
    """Solve the Dirichlet eigenproblem on each grid level and extrapolate.

    ``h_list`` must be in exact halving ratio; order is irrelevant.  Returns
    the full level data plus normalized values for the unit-measure copy of
    the domain.
    """
    hs = _check_h_list(h_list)
    levels = []
    prev_grid = None
    prev_vectors = None
    grid = None
    result = None
    for h in hs:
        grid = discretize.build_grid(domain, h)
        op = discretize.assemble(grid)
        x0 = None
        if prev_grid is not None:
            x0 = np.column_stack(
                [discretize.prolong(prev_grid, prev_vectors[:, i], grid) for i in range(k)]
            )
        result = eigensolve.smallest_pairs(op, k=k, tol=tol, seed=seed, x0=x0)
        levels.append(LevelSolve(h=h, n=grid.n, values=result.values,
                                 residuals=result.residuals, iterations=result.iterations))
        prev_grid, prev_vectors = grid, result.vectors

    lambda_x = np.empty(k)
    error_est_raw = np.empty(k)
    orders = []
    monotone = []
    for i in range(k):
        vals = [float(lv.values[i]) for lv in levels]
        fitted = False
        if len(vals) >= 3:
            ext = discretize.extrapolate_three(vals[-3], vals[-2], vals[-1])
            lambda_x[i] = ext.value
            orders.append(ext.order)
            monotone.append(ext.monotone)
            fitted = ext.monotone
        elif len(vals) == 2:
            lambda_x[i] = discretize.extrapolate(vals[0], vals[1], order=1.0)
            orders.append(1.0)
            monotone.append(True)
        else:
            lambda_x[i] = vals[0]
            orders.append(None)
            monotone.append(True)
        # without a fitted order the last level change is the smallest honest
        # error budget: it must not collapse when the extrapolation fails
        correction = abs(lambda_x[i] - vals[-1])
        if not fitted and len(vals) >= 2:
            correction = max(correction, abs(vals[-1] - vals[-2]))
        error_est_raw[i] = correction + tol * abs(lambda_x[i])

    vol = measure(domain)
    omega = unit_ball_volume(domain.dim)
    t = (omega / vol) ** (1.0 / domain.dim)
    norm_factor = (vol / omega) ** (2.0 / domain.dim)
    return DomainSolve(
        domain=domain,
        h_list=tuple(hs),
        levels=tuple(levels),
        lambda_x=lambda_x,
        orders=tuple(orders),
        monotone=tuple(monotone),
        measure=vol,
        t_factor=t,
        lambda_norm=lambda_x * norm_factor,
        error_est_raw=error_est_raw,
        error_est=error_est_raw * norm_factor,
        grid=grid,
        vectors=result.vectors,
    )
