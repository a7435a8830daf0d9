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
A domain that declares ``mirror_odd`` (the dumbbell) is solved by mirror
sector when its finest grid is its own mirror image under x1 -> -x1
(``discretize.mirror_halves``): every level solves the even sector for
lambda1 and the odd sector for lambda2, each with k = 1 on its own chain,
in place of one k = 2 solve of the whole grid.  The coarsest even solve
takes k = 2 instead, and the split goes on only if its second value lies
at least MARGIN times above the odd sector's first; otherwise the domain is
solved whole.  Either way a level's record is one ``EigenResult`` of the
whole grid, the split's vectors rebuilt from the sectors' by the mirror.
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

# least lambda2(even) / lambda1(odd) on the coarsest level for a solve by
# mirror sector; the ratio is 1.77 or more on dumbbells with eps <= 0.3,
# 1.31-1.34 at eps = 0.7 and 1.09-1.12 at eps = 0.9, and drifts by at most
# 3% between h = 1/8 and 1/32
MARGIN = 1.25


@dataclass(frozen=True)
class DomainSolve:
    """Raw and extrapolated eigenvalue estimates of the domain itself.

    ``levels`` are the ``eigensolve.EigenResult`` of each level, coarse to
    fine, as ``smallest_pairs`` returned them, or, for a domain solved by
    mirror sector, made of its sectors' results: each pair's value,
    residual and iterations from its own sector, and the vectors rebuilt
    on the whole grid.  Level i has spacing ``h_list[i]`` and
    ``len(levels[i].vectors)`` nodes.  ``orders``,
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
    A domain that declares ``mirror_odd`` is solved by mirror sector when
    its finest grid is its own mirror image and the coarsest level shows
    lambda2(even) >= MARGIN * lambda1(odd) (``_solve_sectors``); any other
    is solved whole.
    Returns every level's ``EigenResult`` and the extrapolated values with
    their error budgets.
    """
    hs = halving_levels(h_list)
    grid = discretize.build_grid(domain, hs[-1])
    solve = dict(k=k, tol=tol, seed=seed, values_only=values_only)
    levels = _solve_sectors(grid, len(hs), **solve) if domain.mirror_odd else None
    if levels is None:
        levels = _solve_whole(domain, grid, hs, **solve)

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


def _solve_whole(domain, grid, hs, k, tol, seed, values_only):
    """Each level's ``EigenResult``, coarse to fine, of the k pairs of the
    whole grid."""
    grids, transfers = chain(grid, len(hs))
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
    return levels


def _solve_sectors(grid, count, k, tol, seed, values_only):
    """Each level's ``EigenResult``, coarse to fine, of the k pairs of a
    grid solved by mirror sector (``discretize.mirror_halves``): lambda1
    from the even sector and lambda2 from the odd one, each a k = 1 solve
    on its own chain, except the coarsest even solve, which takes k = 2 to
    show that the second even eigenvalue lies at least MARGIN times above
    the first odd one.  None, before any level finer than the coarsest is
    solved, when the grid is not its own mirror image, a sector has too few
    nodes on the coarsest level, or the margin fails.

    The values, residuals and iterations of each pair are its sector's: a
    sector residual is the whole grid's.  The vectors are the sector
    vectors extended to the whole grid by its mirror, orthonormal.  A
    sector solve that fails raises as it is, so the ``result`` of a
    ``ConvergenceError`` holds the sector's vectors.
    """
    halves = discretize.mirror_halves(grid)
    if halves is None:
        return None
    sectors = [chain(half, count) for half in halves[:k]]
    if any(len(grids) < count for grids, _ in sectors) or sectors[0][0][-1].n < k:
        return None
    lines = [halves[0].n - halves[1].n]  # even-sector nodes on the line, finest first
    for P in sectors[0][1]:
        lines.append(discretize.fold_transfer(P, lines[-1]))
    levels, previous = [], [None] * k
    for depth in reversed(range(count)):
        results = []
        for sector, ((grids, transfers), coarse) in enumerate(zip(sectors, previous)):
            half = grids.pop()
            A = discretize.assemble(half)
            if sector == 0:
                discretize.fold_operator(A, lines[depth])
                # the odd nodes in the order of their mirror images
                mirror = np.argsort(-half.active[lines[depth]:, 0], kind="stable")
            results.append(eigensolve.smallest_pairs(
                A, transfers[depth:], k=k if sector == 0 and not levels else 1, tol=tol,
                seed=seed, coarse=coarse, values_only=values_only or depth > 0))
        if k == 2 and not levels and results[0].values[1] < MARGIN * results[1].values[0]:
            return None
        previous = [res.vectors[:, :1] for res in results]
        levels.append(eigensolve.EigenResult(
            values=np.array([res.values[0] for res in results]),
            vectors=_unfold([v[:, 0] for v in previous], lines[depth], mirror),
            residuals=np.array([res.residuals[0] for res in results]),
            iterations=tuple(res.iterations[0] for res in results),
            inner_iterations=tuple(res.inner_iterations[0] for res in results)))
    return levels


def _unfold(vectors, line, mirror):
    """Whole-grid orthonormal vectors, as columns, of a unit even-sector
    vector with ``line`` nodes on the line and, if given, a unit odd-sector
    vector: the even one is u = ext(M^(-1/2) v) / sqrt 2 and the odd one
    ext_odd(v) / sqrt 2 (``discretize.mirror_halves``).  The whole grid's
    lexicographic nodes are the mirror images of the odd sector's nodes in
    the order ``mirror``, then the line, then the odd sector's nodes."""
    rest = len(mirror)
    u = np.zeros((2 * rest + line, len(vectors)))
    u[rest: rest + line, 0] = vectors[0][:line]
    for column, (v, sign) in enumerate(zip([vectors[0][line:], *vectors[1:]], (1.0, -1.0))):
        u[rest + line:, column] = v / discretize.SQRT2
        u[:rest, column] = sign * u[rest + line:, column][mirror]
    return u
