"""Grid eigensolve pipeline: solve a domain across halving grid levels and
Richardson-extrapolate with a fitted order.

Spacings are made exact halves of the coarsest, so only the finest grid is
built from the domain.  Its sectors come from the grid: its even and odd
mirror sectors when it is its own mirror image under x1 -> -x1 and both
halves keep every level (``discretize.mirror_halves``), else the whole grid
as the one sector.  ``chain`` coarsens each sector's finest grid
(``discretize.prolong``) into the coarser levels' grids and one chain of
interpolations, and one level loop assembles and solves every sector on
every level, each continued from its own vectors of the level before
(``smallest_pairs(coarse=)``); a level's record is one ``EigenResult`` of
the whole grid, its k smallest sector pairs (``_solve_levels``).
The fit needs only the eigenvalues of a coarser level, and the
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

__all__ = ["DomainSolve", "MARGIN", "halving_levels", "chain", "solve_domain"]

# least lambda2(even) / lambda1(odd) on the coarsest level for the even
# sector to carry one pair on the finer levels, two otherwise.  Between
# h = 1/8 and 1/32 the ratio is 1.81-1.82 on Dumbbell(0.2), 1.60 at
# eps = 0.5, 1.31-1.34 at 0.7 and 1.09-1.12 at 0.9; 2.52-2.54 on
# two_balls(); 1.47-1.49 and 1.60-1.62 on Ellipse(1.5, 1) and (2, 1);
# 1.61-1.62 and 1.38 on Rectangle(2, 1) and (3, 1); and 1.000 on the disc
# and the square, whose lambda2 = lambda3 has one even and one odd member
MARGIN = 1.25


@dataclass(frozen=True)
class DomainSolve:
    """Raw and extrapolated eigenvalue estimates of the domain itself.

    ``levels`` are the ``eigensolve.EigenResult`` of each level, coarse to
    fine, made of its sectors' results: the k smallest values, each pair's
    residual and iterations from its own sector, and the vectors unfolded
    onto the whole grid.  Level i has spacing ``h_list[i]`` and
    ``len(levels[i].vectors)`` nodes.  ``orders``, ``fitted`` and
    ``error_est_raw`` come from ``discretize.extrapolate`` on the per-level
    values.  Under ``solve_domain(values_only=True)`` the finest vectors and
    residuals meet no residual bound.
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
    The finest grid is solved by mirror sector when it is its own mirror
    image under x1 -> -x1 and each sector keeps every level
    (``discretize.mirror_halves``), else whole (``_solve_levels``).
    Returns every level's ``EigenResult`` and the extrapolated values with
    their error budgets.
    """
    hs = halving_levels(h_list)
    grid = discretize.build_grid(domain, hs[-1])
    halves = discretize.mirror_halves(grid) or ()
    sectors = [(parity, *chain(half, len(hs))) for parity, half in zip((1.0, -1.0), halves[:k])]
    if not (halves and all(len(grids) == len(hs) for _, grids, _ in sectors)
            and sectors[0][1][-1].n >= k):
        sectors = [(0.0, *chain(grid, len(hs)))]
        # a coarse level's nodes are a subset of each finer level's, so the
        # coarsest is the first to fall short
        grids = sectors[0][1]
        n = grids[-1].n if len(grids) == len(hs) else 0
        if n < k:
            raise discretize.GridError(f"{n} active node(s) at spacing h = {hs[0]} in "
                                       f"{domain!r}, fewer than the {k} pairs requested")
    else:  # the even sector's chain, scaled once for its folded matrices
        line = halves[0].n - halves[1].n
        for P in sectors[0][2]:
            line = discretize.fold_transfer(P, line)
    levels = _solve_levels(sectors, k, tol, seed, values_only)

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


def _solve_levels(sectors, k, tol, seed, values_only):
    """Each level's ``EigenResult``, coarse to fine, of the k smallest pairs
    of a grid, from its ``sectors`` (parity, grids, transfers): the whole
    grid (parity 0), or its even and odd mirror sectors (+1, -1), the even
    one's transfers already folded (``discretize.fold_transfer``).  Each
    level assembles each sector, folds the even one's matrix
    (``discretize.fold_operator``), and solves it with ``smallest_pairs``,
    continued from the sector's own vectors of the level before.

    The whole grid carries k pairs and the odd sector 1.  The even sector
    carries k on the coarsest level, and for k = 2 goes on with 1 only if
    its second value there lies at least MARGIN times above the odd
    sector's first.  A level's record holds the k smallest of its sectors'
    values, ties to the even sector, each pair's residual and iterations
    from its sector, and its vector unfolded onto the whole grid
    (``_unfold``).  A sector solve that fails raises as it is, so the
    ``result`` of a ``ConvergenceError`` holds the sector's vectors.
    """
    carry = [k] + [1] * (len(sectors) - 1)
    levels, previous = [], [None] * len(sectors)
    for depth in reversed(range(len(sectors[0][1]))):
        line, mirror, results = 0, None, []
        for (parity, grids, transfers), coarse, pairs in zip(sectors, previous, carry):
            grid = grids.pop()
            # a coarse level's grid is freed once it is assembled
            A = discretize.assemble(grid)
            if parity > 0:
                line = int(np.searchsorted(grid.active[:, 0], 1))
                discretize.fold_operator(A, line)
                # the odd nodes in the order of their mirror images
                mirror = np.argsort(-grid.active[line:, 0], kind="stable")
            results.append(eigensolve.smallest_pairs(
                A, transfers[depth:], k=pairs, tol=tol, seed=seed, coarse=coarse,
                values_only=values_only or depth > 0))
        if not levels and len(results) == 2:
            carry[0] = 1 if results[0].values[1] >= MARGIN * results[1].values[0] else 2
        previous = [res.vectors[:, :pairs] for res, pairs in zip(results, carry)]
        chosen = sorted(((res, i, parity) for (parity, _, _), res in zip(sectors, results)
                         for i in range(len(res.values))), key=lambda c: c[0].values[c[1]])[:k]
        levels.append(eigensolve.EigenResult(
            values=np.array([res.values[i] for res, i, _ in chosen]),
            vectors=np.column_stack([_unfold(res.vectors[:, i], parity, line, mirror)
                                     for res, i, parity in chosen]),
            residuals=np.array([res.residuals[i] for res, i, _ in chosen]),
            iterations=tuple(res.iterations[i] for res, i, _ in chosen),
            inner_iterations=tuple(res.inner_iterations[i] for res, i, _ in chosen)))
    return levels


def _unfold(v, parity, line, mirror):
    """The unit whole-grid vector of a unit sector vector v of the given
    parity: v itself on the whole grid (parity 0); for an even-sector v
    with ``line`` nodes on the line, u = ext(M^(-1/2) v) / sqrt 2; for an
    odd-sector v, ext_odd(v) / sqrt 2 (``discretize.mirror_halves``).  The
    whole grid's lexicographic nodes are the mirror images of the odd
    sector's nodes in the order ``mirror``, then the line, then the odd
    sector's nodes."""
    if not parity:
        return v
    rest = len(mirror)
    u = np.zeros(2 * rest + line)
    if parity > 0:
        u[rest: rest + line] = v[:line]
        v = v[line:]
    u[rest + line:] = v / discretize.SQRT2
    u[:rest] = parity * u[rest + line:][mirror]
    return u
