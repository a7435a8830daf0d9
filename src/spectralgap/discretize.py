"""Masked-grid five-point Laplacian with homogeneous Dirichlet conditions.

Nodes live on the integer lattice i*h (planar domains only); a node is active
when it lies strictly inside the domain.  The stencil row of an active node
carries 4/h^2 on the diagonal and -1/h^2 for each active lattice neighbor;
neighbors outside the domain contribute nothing, which imposes u = 0 there.
A dumbbell contains its open junction disk, so its grid keeps the
junction nodes, also inside scaled copies and unions, and stays connected.

Masked boundaries degrade the formal O(h^2) convergence of the stencil, so
eigenvalues are Richardson-extrapolated with an order fitted from three grid
levels instead of an assumed exponent, accepted only inside ORDER_BAND.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import contains

__all__ = [
    "GridError",
    "Grid2D",
    "DiscreteOperator",
    "ExtrapolationResult",
    "build_grid",
    "assemble",
    "prolong",
    "extrapolate",
    "extrapolate_three",
    "fit_order",
]


class GridError(RuntimeError):
    """Raised when a grid has no active nodes for the given spacing."""


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

    def coords(self) -> np.ndarray:
        """Cartesian coordinates of the active nodes, shape (n, 2)."""
        return self.active * self.h


def build_grid(domain, h: float) -> Grid2D:
    """Enumerate active lattice nodes of a planar domain at spacing h.

    The domain's box is padded by 2h, and every node that ``contains``
    accepts is active.  Raises GridError when nothing is active.
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
    ii = np.arange(i_lo, i_hi + 1)
    jj = np.arange(j_lo, j_hi + 1)
    gi, gj = np.meshgrid(ii, jj, indexing="ij")
    pts = np.column_stack([gi.ravel() * h, gj.ravel() * h])
    mask = contains(domain, pts).reshape(gi.shape)
    count = int(mask.sum())
    if count == 0:
        raise GridError(
            f"no lattice nodes of spacing {h} fall inside the domain "
            f"(bounding box {lo} .. {hi})"
        )
    index_map = np.full(mask.shape, -1, dtype=np.int32)
    index_map[mask] = np.arange(count)  # row-major = lexicographic in (i, j)
    ai, aj = np.nonzero(mask)
    active = np.column_stack([ai + i_lo, aj + j_lo]).astype(np.int32)
    return Grid2D(h=h, i0=i_lo, j0=j_lo, index_map=index_map, active=active)


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse symmetric positive-definite masked Laplacian; ``nodes`` holds
    the lattice indices (i, j) of its rows, from which the eigensolver's
    multigrid preconditioner builds its coarse levels and interpolation."""

    matrix: "scipy.sparse.csr_matrix"
    nodes: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble(grid: Grid2D) -> DiscreteOperator:
    """Assemble the five-point operator on the active nodes of a grid.

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
    mat = sp.csr_matrix((data, stencil[ok], indptr), shape=(n, n))
    return DiscreteOperator(matrix=mat, nodes=grid.active)


def prolong(nodes: np.ndarray):
    """Coarsen distinct lattice nodes (n, d) to the lattice of twice the
    spacing.

    Returns the all-even nodes, halved, and the multilinear interpolation P
    (CSC, int32 indices) onto ``nodes`` from them.  A node with m odd
    indices takes 2^-m from each of its 2^m parents; a parent that is not a
    coarse node counts as a Dirichlet zero.  With exactly halved spacings
    the coarse nodes of a grid are the active nodes of the grid before it.
    CSC makes P.T a CSR view of P's arrays, so the restriction P^T r runs
    as a row-wise product with no copy of P.

    P is built column by column, with no CSR intermediate: the fine rows
    sit in a dense map over the nodes' bounding box, and column C holds the
    fine nodes 2C + o, o in {-1, 0, 1}^d, with weight 2^-|o|_1, all read
    in one gather at flat offsets.  Lexicographic nodes (every grid and
    every coarse level) give ascending rows; other orders are sorted.
    """
    import scipy.sparse as sp

    n, dim = nodes.shape
    lattice = np.ascontiguousarray(nodes.T)
    even = ~(lattice & 1).any(axis=0)
    coarse = np.compress(even, nodes, axis=0) >> 1
    if len(coarse) == 0:
        return coarse, sp.csc_matrix((n, 0))
    # fine rows by flat lattice index, with a frame of -1 that catches every
    # neighbor outside the nodes' bounding box
    low = lattice.min(axis=1) - 1
    rows = np.full(lattice.max(axis=1) - low + 2, -1, dtype=np.int32)
    flat = np.ravel_multi_index(lattice - low[:, None], rows.shape)
    strides = np.array(rows.strides) // rows.itemsize
    rows = rows.ravel()
    rows[flat] = np.arange(n, dtype=np.int32)
    # offsets in lexicographic order, so the rows of a column stay ascending
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim)))
    # indexed through the transpose of a (3^d, m) array, so that each
    # offset's column is contiguous
    hits = rows[((offsets @ strides)[:, None] + np.compress(even, flat)).T]
    keep = hits >= 0
    indptr = np.zeros(len(coarse) + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = np.broadcast_to(np.ldexp(1.0, -np.abs(offsets).sum(axis=1)), hits.shape)[keep]
    P = sp.csc_matrix((data, hits[keep], indptr), shape=(n, len(coarse)))
    if (np.diff(flat) > 0).all():  # lexicographic nodes: every column ascends
        P.has_sorted_indices = True
    else:
        P.sort_indices()
    return coarse, P


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

ORDER_BAND = (0.5, 2.5)  # fitted orders accepted; 1 / (2^p - 1) blows up as p -> 0


@dataclass(frozen=True)
class ExtrapolationResult:
    """Extrapolated value with the fitted order; ``monotone=False`` flags a
    level sequence that is not monotone or whose fitted order lies outside
    ORDER_BAND, for which the finest value is returned unextrapolated."""

    value: float
    order: float | None
    monotone: bool


def extrapolate(lambda_h: float, lambda_h2: float, order: float = 2.0) -> float:
    """Two-level Richardson step for spacings in exact ratio 2:

    lambda* ~= lambda_(h/2) + (lambda_(h/2) - lambda_h) / (2^p - 1).
    """
    if order <= 0:
        raise ValueError(f"extrapolation order must be > 0, got {order}")
    return lambda_h2 + (lambda_h2 - lambda_h) / (2.0**order - 1.0)


def fit_order(lambda_h: float, lambda_h2: float, lambda_h4: float):
    """Observed convergence order log2 of successive-difference ratio, or
    None when the sequence is not monotone."""
    d1 = lambda_h - lambda_h2
    d2 = lambda_h2 - lambda_h4
    if d1 * d2 <= 0:
        return None
    return float(np.log2(d1 / d2))


def extrapolate_three(lambda_h: float, lambda_h2: float, lambda_h4: float) -> ExtrapolationResult:
    """Richardson extrapolation of the finest pair with the order fitted
    from three levels at spacings h, h/2, h/4."""
    if lambda_h == lambda_h2 == lambda_h4:
        return ExtrapolationResult(value=lambda_h4, order=None, monotone=True)
    p = fit_order(lambda_h, lambda_h2, lambda_h4)
    if p is None or not ORDER_BAND[0] <= p <= ORDER_BAND[1]:
        return ExtrapolationResult(value=lambda_h4, order=p, monotone=False)
    return ExtrapolationResult(value=extrapolate(lambda_h2, lambda_h4, p), order=p, monotone=True)
