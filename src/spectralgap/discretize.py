"""Masked-grid five-point Laplacian with homogeneous Dirichlet conditions.

Nodes live on the integer lattice i*h (planar domains only); a node is active
when it lies strictly inside the domain.  The stencil row of an active node
carries 4/h^2 on the diagonal and -1/h^2 for each active lattice neighbor;
neighbors outside the domain contribute nothing, which imposes u = 0 there.
A dumbbell contains its open junction disk, so its grid keeps the
junction nodes, also inside scaled copies and unions, and stays connected.
``build_grid`` finds a domain's active nodes in one ``contains`` pass, and
``lattice_grid``, the one builder of an index map, makes a ``Grid2D`` of any
node set.  ``prolong`` takes a grid to the grid of twice the spacing, its
all-even nodes halved, and the interpolation between the two, both read
from the fine grid's index map, so coarser levels need no second pass.

Masked boundaries degrade the formal O(h^2) convergence of the stencil, so
``extrapolate`` Richardson-extrapolates eigenvalues with an order fitted
from three grid levels instead of an assumed exponent, accepted only inside
ORDER_BAND, and gives each value its error budget.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import contains

__all__ = [
    "GridError",
    "Grid2D",
    "Extrapolation",
    "build_grid",
    "lattice_grid",
    "assemble",
    "prolong",
    "extrapolate",
]


class GridError(RuntimeError):
    """Raised when a grid has no active nodes, or more lattice points than int32 indexes."""


@dataclass(frozen=True)
class Grid2D:
    """Active lattice nodes of a masked uniform grid.

    ``index_map[i - i0, j - j0]`` is the matrix row of lattice node (i, j),
    or -1 when inactive; ``active`` lists lattice indices in lexicographic
    (i, j) order, which fixes the node ordering reproducibly.
    """

    h: float
    i0: int
    j0: int
    index_map: np.ndarray
    active: np.ndarray

    @property
    def n(self) -> int:
        return len(self.active)


def build_grid(domain, h: float) -> Grid2D:
    """Enumerate active lattice nodes of a planar domain at spacing h.

    The lattice nodes of the domain's box, padded by 2h, go through one
    ``contains`` pass, and every node it accepts is active.  Raises
    GridError when nothing is active, or, before allocating, when the box
    has more points than its int32 node indices and flat offsets reach.
    """
    if domain.dim != 2:
        raise ValueError(f"grids are planar only, domain has dim {domain.dim}")
    if h <= 0:
        raise ValueError(f"grid spacing must be > 0, got {h}")
    lo, hi = domain.box()
    i_lo = int(np.floor(lo[0] / h)) - 2
    i_hi = int(np.ceil(hi[0] / h)) + 2
    j_lo = int(np.floor(lo[1] / h)) - 2
    j_hi = int(np.ceil(hi[1] / h)) + 2
    points = (i_hi - i_lo + 1) * (j_hi - j_lo + 1)
    if points > np.iinfo(np.int32).max:
        raise GridError(f"{points} lattice points of spacing {h} in the box {lo} .. {hi}, "
                        f"more than int32 indices reach")
    ii = np.arange(i_lo, i_hi + 1)
    jj = np.arange(j_lo, j_hi + 1)
    gi, gj = np.meshgrid(ii, jj, indexing="ij")
    pts = np.column_stack([gi.ravel() * h, gj.ravel() * h])
    ai, aj = np.nonzero(contains(domain, pts).reshape(gi.shape))
    if len(ai) == 0:
        raise GridError(
            f"no lattice nodes of spacing {h} fall inside the domain "
            f"(bounding box {lo} .. {hi})"
        )
    # row-major = lexicographic in (i, j)
    return lattice_grid(h, np.column_stack([ai + i_lo, aj + j_lo]).astype(np.int32))


def lattice_grid(h: float, active: np.ndarray) -> Grid2D:
    """The grid of spacing h whose active nodes are the lattice indices
    ``active`` (n >= 1 distinct nodes, lexicographic in every grid that
    ``build_grid`` and ``prolong`` make): its index map spans their bounding
    box and a frame of one inactive node on every side."""
    i, j = active.T  # reduced one column at a time: 30x faster than along axis 0
    i0, j0 = int(i.min()) - 1, int(j.min()) - 1
    index_map = np.full((int(i.max()) - i0 + 2, int(j.max()) - j0 + 2), -1, dtype=np.int32)
    index_map[i - i0, j - j0] = np.arange(len(active), dtype=np.int32)
    return Grid2D(h=h, i0=i0, j0=j0, index_map=index_map, active=active)


def assemble(grid: Grid2D):
    """Assemble the five-point operator on the active nodes of a grid: a
    sparse symmetric positive-definite CSR matrix, row i for node
    ``grid.active[i]``.

    The five stencil columns are one gather from the flattened
    ``index_map`` at each active node's flat index plus -width, -1, 0, 1
    and +width: the lexicographic order (i-1, j), (i, j-1), self, (i, j+1),
    (i+1, j), already ascending in every row.  The CSR arrays are built
    straight from them; inactive neighbors are masked out.
    """
    import scipy.sparse as sp  # here, so that commands without grids never load it

    n = grid.n
    h2 = grid.h * grid.h
    width = grid.index_map.shape[1]
    flat = (grid.active[:, 0] - grid.i0) * width + (grid.active[:, 1] - grid.j0)
    # indexed through the transpose of a (5, n) array, so that each stencil
    # column is contiguous
    stencil = grid.index_map.ravel()[(np.array([-width, -1, 0, 1, width])[:, None] + flat).T]
    ok = stencil >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(ok.sum(axis=1), out=indptr[1:])
    data = np.full(int(indptr[-1]), -1.0 / h2)
    data[indptr[:-1] + ok[:, 0] + ok[:, 1]] = 4.0 / h2
    return sp.csr_matrix((data, stencil[ok], indptr), shape=(n, n))


def prolong(grid: Grid2D):
    """Coarsen a grid to the lattice of twice the spacing.

    Returns the grid of spacing 2h whose active nodes are the all-even
    nodes of ``grid``, halved (None when there is no even node), and the
    bilinear interpolation P (CSC, int32 indices) onto ``grid``'s nodes
    from them.  A node with m odd indices takes 2^-m from each of its 2^m
    parents; a parent that is not a coarse node counts as a Dirichlet zero.
    The coarse grid of a domain's grid is the domain's grid at exactly
    twice the spacing, bit for bit.  CSC makes P.T a CSR view of P's
    arrays, so the restriction P^T r runs as a row-wise product with no
    copy of P.

    P is built column by column, with no CSR intermediate: column C holds
    the fine nodes 2C + (a, b), a, b in {-1, 0, 1}, with weight
    2^-(|a| + |b|), all read in one gather from the flattened
    ``grid.index_map`` at flat offsets.  Lexicographic nodes (every grid)
    give ascending rows; other orders are sorted.
    """
    import scipy.sparse as sp

    n = grid.n
    i, j = grid.active.T
    even = ((i | j) & 1) == 0
    coarse = np.compress(even, grid.active, axis=0) >> 1
    if len(coarse) == 0:
        return None, sp.csc_matrix((n, 0))
    width = grid.index_map.shape[1]
    flat = (i - grid.i0) * width + (j - grid.j0)
    # offsets (a, b) in lexicographic order, so the rows of a column ascend
    offsets = (np.array([-width, 0, width])[:, None] + np.array([-1, 0, 1])).ravel()
    weights = np.outer([0.5, 1.0, 0.5], [0.5, 1.0, 0.5]).ravel()
    # indexed through the transpose of a (9, m) array, so that each
    # offset's column is contiguous
    hits = grid.index_map.ravel()[(offsets[:, None] + np.compress(even, flat)).T]
    keep = hits >= 0
    indptr = np.zeros(len(coarse) + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = np.broadcast_to(weights, hits.shape)[keep]
    P = sp.csc_matrix((data, hits[keep], indptr), shape=(n, len(coarse)))
    if (np.diff(flat) > 0).all():  # lexicographic nodes: every column ascends
        P.has_sorted_indices = True
    else:
        P.sort_indices()
    return lattice_grid(2 * grid.h, coarse), P


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

ORDER_BAND = (0.5, 2.5)  # fitted orders accepted; 1 / (2^p - 1) blows up as p -> 0


@dataclass(frozen=True)
class Extrapolation:
    """A grid eigenvalue's extrapolated value, the order it used (None when
    three levels gave none), whether that order was fitted, and its budget."""

    value: float
    order: float | None
    fitted: bool
    error_est: float


def extrapolate(values, tol: float) -> Extrapolation:
    """Richardson extrapolation of one eigenvalue at halving spacings.

    ``values`` are the level values coarse to fine, at least two of them.
    With the last level change ``change``, the value is
    fine + change / (2^p - 1).  Three or more levels fit p = log2(before /
    change) from the last three, ``before`` being the change one level up;
    the order is fitted when the three move the same way with p inside
    ORDER_BAND, or when they are equal.  A non-monotone sequence or an order
    outside the band leaves the finest value unextrapolated.  Two levels
    assume p = 1, which is not a fitted order.

    The error budget sums the extrapolation correction |value - fine| and
    the solver tolerance tol * |value|.  Without a fitted order the
    correction is at least |change|, so the budget does not collapse when
    the extrapolation fails.  One level has no honest budget and raises
    ValueError.
    """
    if len(values) < 2:
        raise ValueError(f"extrapolation needs at least two grid levels, got {len(values)}")
    fine = values[-1]
    change = fine - values[-2]
    if len(values) == 2:
        order, fitted, value = 1.0, False, fine + change
    else:
        before = values[-2] - values[-3]
        order = None if before * change <= 0 else float(np.log2(before / change))
        in_band = order is not None and ORDER_BAND[0] <= order <= ORDER_BAND[1]
        value = fine + change / (2.0**order - 1.0) if in_band else fine
        fitted = in_band or before == change == 0.0
    correction = abs(value - fine)
    if not fitted:
        correction = max(correction, abs(change))
    return Extrapolation(value=value, order=order, fitted=fitted,
                         error_est=correction + tol * abs(value))
