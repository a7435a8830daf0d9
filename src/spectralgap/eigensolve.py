"""Two smallest eigenpairs of a sparse SPD operator by block LOBPCG.

One block X of k vectors is improved by Rayleigh-Ritz on span[X, W, P]
(Knyazev, SIAM J. Sci. Comput. 23(2), 2001): W holds the preconditioned
residuals M (A x - theta x) of the pairs not yet converged and P the last
update directions.  W and P are projected off X and orthonormalized through
their scaled Gram matrix, which drops nearly dependent directions (Duersch,
Shao, Yang & Gu, SIAM J. Sci. Comput. 40(5), 2018); that covers
rank-deficient subspaces of tiny operators and exactly converged, zero
residuals.  The block resolves degenerate pairs such as two identical
disjoint components.  Starting vectors come from a seeded generator, so runs
are bit-reproducible on one platform.

The preconditioner M is one symmetric aggregation-multigrid V-cycle (Braess,
Computing 55, 1995), built once per call: each level merges the 2 x 2
lattice blocks of its nodes into one unknown, the coarse operator is the
Galerkin product P^T A P of the piecewise-constant prolongation P, damped
Jacobi smooths once before and once after the coarse correction, and the
correction is over-scaled to make up for the too-stiff constant
interpolation.  Levels stop at COARSEST unknowns, which are solved with a
dense inverse.  Block iterations then barely grow as the grid is refined.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ConvergenceError",
    "IndefiniteOperatorError",
    "EigenResult",
    "DEFAULT_SEED",
    "smallest_pairs",
    "rayleigh_residual",
]

DEFAULT_SEED = 2025

COARSEST = 400  # unknowns at or below which a level is inverted densely
OMEGA = 2.0 / 3.0  # damped-Jacobi weight of the smoothing sweeps
OVERCORRECTION = 1.8  # scaling of the piecewise-constant coarse correction
DEPENDENT = 1e-10  # relative Gram eigenvalue below which a direction is dropped


class IndefiniteOperatorError(RuntimeError):
    """The operator is not positive definite."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; the best iterate is attached as .result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class EigenResult:
    """Two smallest eigenpairs: values ascending, orthonormal vectors as
    columns, per-pair residual norms ||A v - lambda v||, the block iterations
    run, the tolerance the solve was run at, and the V-cycles applied to each
    pair's residual."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: tuple
    tol: float
    inner_iterations: tuple = ()


def _as_csr(operator):
    matrix = getattr(operator, "matrix", operator)
    if sp.issparse(matrix):
        return matrix.tocsr()
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator must be square, got shape {arr.shape}")
    return sp.csr_matrix(arr)


def _aggregate(nodes):
    """Merge the 2 x 2 blocks of lattice indices ``nodes``: the aggregate of
    each node, numbered in lexicographic block order, and the block indices
    of each aggregate."""
    half = nodes // 2
    # one integer key per block; the unshifted indices go to the next level,
    # since their parity decides the next merge
    low = half.min(axis=0)
    key = np.ravel_multi_index((half - low).T, half.max(axis=0) - low + 1)
    _, first, agg = np.unique(key, return_index=True, return_inverse=True)
    return agg, half[first]


def _hierarchy(A, nodes):
    """Aggregation levels of the V-cycle for A with lattice indices ``nodes``.

    Returns (levels, coarse_inverse); each level is (A, OMEGA / diag(A),
    aggregate of each row, number of aggregates).
    """
    levels = []
    while A.shape[0] > COARSEST:
        n = A.shape[0]
        agg, nodes = _aggregate(nodes)
        P = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, len(nodes)))
        levels.append((A, OMEGA / A.diagonal(), agg, len(nodes)))
        A = (P.T @ A @ P).tocsr()
        if np.any(A.diagonal() <= 0):
            raise IndefiniteOperatorError("operator is not positive definite on aggregates")
    try:
        coarse = np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError:
        raise IndefiniteOperatorError("coarsest operator is singular") from None
    return levels, 0.5 * (coarse + coarse.T)


def _vcycle(hierarchy, r, depth=0):
    """Apply the symmetric V-cycle preconditioner to r from a zero guess."""
    levels, coarse = hierarchy
    if depth == len(levels):
        return coarse @ r
    A, smoother, agg, n_coarse = levels[depth]
    x = smoother * r
    r_coarse = np.bincount(agg, weights=r - A @ x, minlength=n_coarse)
    x += OVERCORRECTION * _vcycle(hierarchy, r_coarse, depth + 1)[agg]
    x += smoother * (r - A @ x)
    return x


def _orthonormal(Y):
    """Coefficients T such that the rows of T.T @ Y are orthonormal and span
    the rows of Y, less its near-dependent directions.

    The Gram matrix is scaled to a unit diagonal (zero rows stay zero), and
    its eigenvectors with eigenvalues above DEPENDENT times the largest give
    the basis.
    """
    gram = Y @ Y.T
    norms = np.sqrt(np.diag(gram))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    d, U = np.linalg.eigh(scale[:, None] * gram * scale)
    keep = d > DEPENDENT * d.max(initial=0.0)
    return scale[:, None] * U[:, keep] / np.sqrt(d[keep])


def _ritz(A, X):
    """Rayleigh-Ritz in place on the span of the rows of X, which become the
    orthonormal Ritz vectors; returns the ascending Ritz values and the
    residuals A x - theta x as rows."""
    T = _orthonormal(X)
    AX = np.empty_like(X)
    for x, ax in zip(X, AX):
        ax[:] = A @ x
    G = T.T @ (X @ AX.T) @ T
    theta, U = np.linalg.eigh(0.5 * (G + G.T))
    C = T @ U
    X[:] = C.T @ X
    AX[:] = C.T @ AX
    AX -= theta[:, None] * X
    return theta, AX


def smallest_pairs(operator, k: int = 2, tol: float = 1e-8, seed: int | None = None,
                   x0: np.ndarray | None = None, max_outer: int = 200) -> EigenResult:
    """Compute the k (= 1 or 2) smallest eigenpairs of an SPD operator.

    Accepts a DiscreteOperator, a scipy sparse matrix, or a dense array.
    Runs block LOBPCG on k vectors for at most ``max_outer`` iterations.
    Convergence requires, for every pair, both a relative eigenvalue change
    below ``tol`` and an eigenresidual ||A v - lambda v|| <= tol * lambda.
    Optional ``x0`` columns seed the iteration (used for grid continuation);
    otherwise the start is pseudo-random with the given seed.
    """
    if k not in (1, 2):
        raise ValueError(f"only the two smallest pairs are supported, got k={k}")
    A = _as_csr(operator)
    n = A.shape[0]
    if k > n:
        raise ValueError(f"requested {k} pairs from an operator of size {n}")
    if np.any(A.diagonal() <= 0):
        raise IndefiniteOperatorError("operator has nonpositive diagonal entries")
    nodes = getattr(operator, "nodes", None)
    hierarchy = _hierarchy(A, np.arange(n)[:, None] if nodes is None else nodes)
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    # block vectors as rows: X = S[:k], then p update directions P, then the
    # preconditioned residuals W
    S = np.empty((3 * k, n))
    S[:k] = rng.standard_normal((n, k)).T
    if x0 is not None:
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        if x0.shape[0] == n:
            S[: x0.shape[1]] = x0.T
        else:
            S[: x0.shape[0]] = x0
    X = S[:k]
    if _orthonormal(X).shape[1] < k:
        raise ValueError("starting vectors are linearly dependent")

    p = 0
    previous = np.full(k, np.inf)
    inner = np.zeros(k, dtype=int)
    for iteration in range(max_outer + 1):
        theta, R = _ritz(A, X)
        if theta[0] <= 0.0:
            raise IndefiniteOperatorError(f"nonpositive Ritz value {theta[0]:.3e}")
        residuals = np.linalg.norm(R, axis=1)
        done = (np.abs(theta - previous) <= tol * theta) & (residuals <= tol * theta)
        if done.all() or iteration == max_outer:
            result = EigenResult(values=theta, vectors=X.copy().T, residuals=residuals,
                                 iterations=(iteration,) * k, tol=tol,
                                 inner_iterations=tuple(int(i) for i in inner))
            if done.all():
                return result
            raise ConvergenceError(
                f"eigenpairs not converged after {max_outer} iterations (residuals "
                f"{residuals.max():.3e}, tol {tol * theta.max():.3e})", result=result)
        # Rayleigh-Ritz on span[X, P, W]; converged pairs get no new direction
        active = np.flatnonzero(~done)
        inner[active] += 1
        for row, i in zip(S[k + p:], active):
            row[:] = _vcycle(hierarchy, R[i])
        basis = S[k: k + p + len(active)]
        for _ in range(2):  # twice is enough for orthogonality to working precision
            for row in basis:
                row -= (X @ row) @ X
        T = _orthonormal(basis)
        m = k + T.shape[1]
        S[k:m] = T.T @ basis
        gram = np.array([S[:m] @ (A @ s) for s in S[:m]])
        _, C = np.linalg.eigh(0.5 * (gram + gram.T))
        S[:k], S[k: 2 * k] = C[:, :k].T @ S[:m], C[k:m, :k].T @ S[k:m]
        p = k
        previous = theta


def rayleigh_residual(operator, v: np.ndarray):
    """Rayleigh quotient <Av, v>/<v, v> and residual ||Av - qv|| / ||v||."""
    A = _as_csr(operator)
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    Av = A @ v
    quotient = float(v @ Av) / (nv * nv)
    residual = float(np.linalg.norm(Av - quotient * v)) / nv
    return quotient, residual
