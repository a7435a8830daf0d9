"""Grid eigensolve pipeline: solve a domain across halving grid levels,
Richardson-extrapolate with a fitted order, and normalize to unit measure.

Spacings are made exact halves of the coarsest.  Each level's eigenvectors
are prolonged bilinearly (``discretize.prolong``) as starting guesses for
the next block eigensolve, and then dropped; the interpolation matrices are
kept for the rest of the solve and passed, finest first, to the eigensolver
as the first levels of its multigrid preconditioner.  The
per-eigenvalue error budget sums the extrapolation correction and the solver
tolerance; without a fitted order (two levels, a non-monotone sequence, or
an order outside ``discretize.ORDER_BAND``) the value is the finest one and
the correction at least the change between the two finest levels.  Callers
add their own quadrature budgets where relevant.
"""

from dataclasses import dataclass, field

import numpy as np

from . import discretize, eigensolve
from .geometry import normalization

__all__ = ["LevelSolve", "DomainSolve", "solve_domain"]


@dataclass(frozen=True)
class LevelSolve:
    h: float
    n: int
    values: np.ndarray
    residuals: np.ndarray
    iterations: tuple
    inner_iterations: tuple


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
    # exact halves: the all-even nodes of each grid are then the active nodes
    # of the one before, bit for bit
    return [hs[0] / 2**i for i in range(len(hs))]


def solve_domain(domain, h_list, tol: float = 1e-6, seed: int | None = None,
                 k: int = 2) -> DomainSolve:
    """Solve the Dirichlet eigenproblem on each grid level and extrapolate.

    ``h_list`` must halve from level to level to within 1e-12 relative,
    in any order; the levels are solved at exact halves of the largest
    spacing.  Returns the full level data plus normalized values for the
    unit-measure copy of the domain.
    """
    hs = _check_h_list(h_list)
    levels = []
    transfers = []  # interpolation onto each level from the one before, finest first
    grid = result = None
    for h in hs:
        coarse, grid = grid, discretize.build_grid(domain, h)
        if grid.n < k:
            raise discretize.GridError(f"{grid.n} active node(s) at spacing h = {h} in "
                                       f"{domain!r}, fewer than the {k} pairs requested")
        op = discretize.assemble(grid)
        x0 = []
        if result is not None:
            transfers.insert(0, discretize.prolong(coarse, grid))
            x0.append(transfers[0] @ result.vectors)
        coarse = result = None  # the coarser level is done with
        # pop hands the starting columns over: the solver frees them once copied
        result = eigensolve.smallest_pairs(op, k=k, tol=tol, seed=seed,
                                           x0=x0.pop() if x0 else None, transfers=transfers)
        levels.append(LevelSolve(h=h, n=grid.n, values=result.values,
                                 residuals=result.residuals, iterations=result.iterations,
                                 inner_iterations=result.inner_iterations))

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

    vol, t, norm_factor = normalization(domain)
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
