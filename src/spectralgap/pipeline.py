"""Grid eigensolve pipeline: solve a domain across halving grid levels and
Richardson-extrapolate with a fitted order.

Spacings are made exact halves of the coarsest, so only the finest grid is
built from the domain: ``chain`` coarsens it (``discretize.prolong``) into
the coarser levels' grids and one chain of interpolations.  Each level's
grid is assembled as it comes, solved with its tail of the chain, and
continues from the vectors of the level before
(``smallest_pairs(coarse=)``); its ``EigenResult`` is the level's one
record.  The fit needs only the eigenvalues of a coarser level, and the
next level its vectors as a start, so every level but the finest stops on
Temple's eigenvalue-error estimate (``values_only=True``); the finest stops
on its residual ||A v - lambda v|| <= tol * lambda, unless the caller reads
only the values and budgets and asks for the same Temple stop there
(``solve_domain(values_only=True)``, which every sweep record uses); the
finest vectors of such a solve are then Temple-stopped.
``discretize.extrapolate`` turns each eigenvalue's levels into a value and
its error budget.  The values are the domain's own: callers that want the
unit-measure copy apply ``geometry.normalization`` themselves, and add their
own quadrature budgets where relevant.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import discretize, eigensolve

__all__ = ["DomainSolve", "halving_levels", "chain", "solve_domain"]


@dataclass(frozen=True)
class DomainSolve:
    """Raw and extrapolated eigenvalue estimates of the domain itself.

    ``levels`` are the ``eigensolve.EigenResult`` of each level, coarse to
    fine, as ``smallest_pairs`` returned them: level i has spacing
    ``h_list[i]`` and ``len(levels[i].vectors)`` nodes.  ``orders``,
    ``fitted`` and ``error_est_raw`` come from ``discretize.extrapolate`` on
    the per-level values.  Under ``solve_domain(values_only=True)`` the
    finest vectors and residuals meet no residual bound.
    """

    domain: object
    h_list: tuple
    levels: tuple
    lambda_x: np.ndarray
    orders: tuple
    fitted: tuple
    error_est_raw: np.ndarray
    grid: object = field(repr=False)

    def raw(self, i: int) -> list:
        """Per-level raw values of eigenvalue i (coarse to fine)."""
        return [float(lv.values[i]) for lv in self.levels]


def halving_levels(h_list) -> list:
    """The grid spacings, largest first, as exact halves of the largest.

    Raises ValueError unless every spacing is positive and finite, there are
    at least two (one level has no honest error budget), and consecutive
    spacings halve to within 1e-12 relative, in any order.
    """
    hs = sorted((float(h) for h in h_list), reverse=True)
    if not all(0.0 < h < math.inf for h in hs):
        raise ValueError(f"grid spacings must be positive and finite: got {hs}")
    if len(hs) < 2:
        raise ValueError(f"need at least two grid spacings: got {hs}")
    for a, b in zip(hs, hs[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError(f"grid levels must halve: got spacings {hs}")
    # exact halves: the all-even nodes of each grid are then the active nodes
    # of the one before, bit for bit
    return [hs[0] / 2**i for i in range(len(hs))]


def chain(grid, levels: int = 1):
    """The grids of ``levels`` halving levels down from ``grid``, finest
    first, each ``discretize.prolong`` of the one before; and the
    interpolation matrices (CSC) onto each level from the next, finest
    first, which ``eigensolve.smallest_pairs`` takes with the matrix of
    ``grid``.  Coarsening goes on below the levels while a level has more
    than ``eigensolve.COARSEST`` nodes, and ends at one without an all-even
    node, so fewer grids come back when a level is empty.
    """
    grids, transfers = [grid], []
    while len(grids) < levels or grid.n > eigensolve.COARSEST:
        grid, P = discretize.prolong(grid)
        if grid is None:
            break
        transfers.append(P)
        if len(grids) < levels:
            grids.append(grid)
    return grids, transfers


def solve_domain(domain, h_list, tol: float = 1e-6, seed: int = eigensolve.DEFAULT_SEED,
                 k: int = 2, *, values_only: bool = False) -> DomainSolve:
    """Solve the Dirichlet eigenproblem on each grid level and extrapolate.

    ``h_list`` must halve from level to level to within 1e-12 relative,
    in any order; the levels are solved at exact halves of the largest
    spacing.  Every level but the finest stops on Temple's estimate, so
    only the finest level's residuals are at most ``tol`` times its values.
    With ``values_only`` the finest level stops on Temple's estimate too:
    for callers that read only the values and their budgets, as the
    finest vectors and residuals then carry no residual bound.
    Returns every level's ``EigenResult`` and the extrapolated values with
    their error budgets.
    """
    hs = halving_levels(h_list)
    grids, transfers = chain(discretize.build_grid(domain, hs[-1]), len(hs))
    grid = grids[0]
    # a coarse level's nodes are a subset of each finer level's, so the
    # coarsest is the first to fall short
    n = grids[-1].n if len(grids) == len(hs) else 0
    if n < k:
        raise discretize.GridError(f"{n} active node(s) at spacing h = {hs[0]} in "
                                   f"{domain!r}, fewer than the {k} pairs requested")
    levels = []
    for depth in reversed(range(len(hs))):
        # a coarse level's grid is freed once it is assembled
        A = discretize.assemble(grids.pop())
        levels.append(eigensolve.smallest_pairs(A, transfers[depth:], k=k, tol=tol, seed=seed,
                                                coarse=levels[-1].vectors if levels else None,
                                                values_only=values_only or depth > 0))

    fits = [discretize.extrapolate([float(lv.values[i]) for lv in levels], tol)
            for i in range(k)]
    return DomainSolve(
        domain=domain,
        h_list=tuple(hs),
        levels=tuple(levels),
        lambda_x=np.array([fit.value for fit in fits]),
        orders=tuple(fit.order for fit in fits),
        fitted=tuple(fit.fitted for fit in fits),
        error_est_raw=np.array([fit.error_est for fit in fits]),
        grid=grid,
    )
