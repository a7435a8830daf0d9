"""Masked-grid five-point Laplacian with homogeneous Dirichlet conditions.

Nodes live on the integer lattice i*h (planar domains only); a node is active
when it lies strictly inside the domain.  The stencil row of an active node
carries 4/h^2 on the diagonal and -1/h^2 for each active lattice neighbor;
neighbors outside the domain contribute nothing, which imposes u = 0 there.
Dumbbell grids keep their junction-disk nodes (interior-of-closure
membership), also inside scaled copies and unions, so the discrete domain
stays connected.

Masked boundaries degrade the formal O(h^2) convergence of the stencil, so
eigenvalues are Richardson-extrapolated with an order fitted from three grid
levels instead of an assumed exponent, accepted only inside ORDER_BAND.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import bounding_box, contains

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


def build_grid(domain, h: float, include_junction: bool = True) -> Grid2D:
    """Enumerate active lattice nodes of a planar domain at spacing h.

    The bounding box is padded by 2h; dumbbell junction nodes are kept by
    default (see module docstring).  Raises GridError when nothing is active.
    """
    if domain.dim != 2:
        raise ValueError(f"grids are planar only, domain has dim {domain.dim}")
    if h <= 0:
        raise ValueError(f"grid spacing must be > 0, got {h}")
    lo, hi = bounding_box(domain)
    i_lo = int(np.floor(lo[0] / h)) - 2
    i_hi = int(np.ceil(hi[0] / h)) + 2
    j_lo = int(np.floor(lo[1] / h)) - 2
    j_hi = int(np.ceil(hi[1] / h)) + 2
    ii = np.arange(i_lo, i_hi + 1)
    jj = np.arange(j_lo, j_hi + 1)
    gi, gj = np.meshgrid(ii, jj, indexing="ij")
    pts = np.column_stack([gi.ravel() * h, gj.ravel() * h])
    mask = contains(domain, pts, include_junction=include_junction).reshape(gi.shape)
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

    matrix: sp.csr_matrix
    h: float
    nodes: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dump_coo(self, path):
        """Write (row, col, value) triplets for external verification."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v:.12g}\n")


def assemble(grid: Grid2D) -> DiscreteOperator:
    """Assemble the five-point operator on the active nodes of a grid.

    The CSR arrays are built straight from the five stencil columns, whose
    lexicographic order (i-1, j), (i, j-1), self, (i, j+1), (i+1, j) is
    already ascending in every row; inactive neighbors are masked out.
    """
    n = grid.n
    h2 = grid.h * grid.h
    imap = grid.index_map
    li = grid.active[:, 0] - grid.i0
    lj = grid.active[:, 1] - grid.j0
    stencil = np.empty((n, 5), dtype=np.int32)
    stencil[:, 0] = imap[li - 1, lj]
    stencil[:, 1] = imap[li, lj - 1]
    stencil[:, 2] = np.arange(n)
    stencil[:, 3] = imap[li, lj + 1]
    stencil[:, 4] = imap[li + 1, lj]
    ok = stencil >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(ok.sum(axis=1), out=indptr[1:])
    data = np.full(int(indptr[-1]), -1.0 / h2)
    data[indptr[:-1] + ok[:, 0] + ok[:, 1]] = 4.0 / h2
    mat = sp.csr_matrix((data, stencil[ok], indptr), shape=(n, n))
    return DiscreteOperator(matrix=mat, h=grid.h, nodes=grid.active)


def _interpolation(nodes, coarse_rows, origin):
    """Multilinear interpolation (CSR, int32 indices) onto the lattice nodes
    ``nodes`` (n, d) from the lattice of twice the spacing, where coarse node
    c sits at fine index 2c and ``coarse_rows[c - origin]`` is its column, or
    -1.  A node with m odd indices takes 2^-m from each of its 2^m parents; a
    parent that is -1 or outside ``coarse_rows`` counts as a Dirichlet zero.
    """
    n, dim = nodes.shape
    # a frame of -1 around coarse_rows catches every parent outside it
    frame = np.pad(coarse_rows, 1, constant_values=-1)
    cols = np.empty((2**dim, n), dtype=np.int32)
    # parents in lexicographic order, so the columns of a row stay ascending
    for col, step in zip(cols, itertools.product((0, 1), repeat=dim)):
        index = []
        for lattice, low, s, size in zip(nodes.T, origin, step, frame.shape):
            i = (lattice >> 1) + (s + 1 - low)
            if s:  # a step along an even index would repeat a parent
                i[(lattice & 1) == 0] = 0
            index.append(np.clip(i, 0, size - 1, out=i))
        col[:] = frame[tuple(index)]
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=0), out=indptr[1:])
    data = np.repeat(np.ldexp(1.0, -(nodes & 1).sum(axis=1)), np.diff(indptr))
    return sp.csr_matrix((data, cols.T[keep.T], indptr), shape=(n, int(coarse_rows.max()) + 1))


def prolong(coarse: Grid2D, fine: Grid2D) -> sp.csr_matrix:
    """Bilinear interpolation (CSR) of node values from a grid to one of half
    the spacing; inactive coarse nodes count as zero.  With exactly halved
    spacings the all-even nodes of ``fine`` are the active nodes of
    ``coarse``, so this is the first interpolation the eigensolver's V-cycle
    would build for ``fine``, and grid continuation passes it on as such."""
    if abs(coarse.h - 2.0 * fine.h) > 1e-12 * coarse.h:
        raise ValueError(f"prolong needs half the spacing, got h = {coarse.h} and {fine.h}")
    return _interpolation(fine.active, coarse.index_map, (coarse.i0, coarse.j0))


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
