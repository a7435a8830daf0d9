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
levels instead of an assumed exponent.
"""

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
    index_map = -np.ones(mask.shape, dtype=np.int64)
    index_map[mask] = np.arange(count)  # row-major = lexicographic in (i, j)
    ai, aj = np.nonzero(mask)
    active = np.column_stack([ai + i_lo, aj + j_lo])
    return Grid2D(h=h, i0=i_lo, j0=j_lo, index_map=index_map, active=active)


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse symmetric positive-definite masked Laplacian; ``nodes`` holds
    the lattice indices (i, j) of its rows, which the eigensolver's
    multigrid preconditioner aggregates."""

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


def prolong(coarse: Grid2D, vec: np.ndarray, fine: Grid2D) -> np.ndarray:
    """Transfer node values from a grid to one of half the spacing.

    Nearest-node injection; good enough as an eigensolver starting guess.
    """
    ic = np.rint(fine.active[:, 0] * fine.h / coarse.h).astype(np.int64) - coarse.i0
    jc = np.rint(fine.active[:, 1] * fine.h / coarse.h).astype(np.int64) - coarse.j0
    ic = np.clip(ic, 0, coarse.index_map.shape[0] - 1)
    jc = np.clip(jc, 0, coarse.index_map.shape[1] - 1)
    src = coarse.index_map[ic, jc]
    out = np.zeros(fine.n)
    ok = src >= 0
    out[ok] = vec[src[ok]]
    return out


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtrapolationResult:
    """Extrapolated value with the fitted order; ``monotone=False`` flags a
    non-monotone level sequence for which the finest value is returned
    unextrapolated."""

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
    if p is None or p <= 0:
        return ExtrapolationResult(value=lambda_h4, order=p, monotone=False)
    return ExtrapolationResult(value=extrapolate(lambda_h2, lambda_h4, p), order=p, monotone=True)
