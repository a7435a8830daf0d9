"""Two smallest eigenpairs of a sparse SPD operator by block LOBPCG.

One block X of k vectors is improved by one Rayleigh-Ritz per iteration on
span[X, W, P] (Knyazev, SIAM J. Sci. Comput. 23(2), 2001): W holds the
preconditioned residuals M (A x - theta x) of the pairs not yet converged
and P the last update directions.  W and P are projected off X and
orthonormalized through their scaled Gram matrix, which drops nearly
dependent directions (Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput. 40(5),
2018); that covers exactly converged, zero residuals.  A k x k Rayleigh-Ritz
on the updated X (``_ritz``) keeps it orthonormal where span[X, W, P] is
nearly rank-deficient; the A X it computes gives the Rayleigh quotients,
the residuals and the X columns of the next Gram matrix, so A is applied
once to every block vector.  The block resolves degenerate pairs such as
two identical disjoint components.  Starting vectors come from a seeded
generator, so runs are bit-reproducible on one platform.

The preconditioner M is one symmetric geometric-multigrid V-cycle
(Trottenberg, Oosterlee & Schueller, Multigrid, 2001), built once per call
from the lattice indices of the rows (a bare matrix: its row index).  The
coarse nodes of a level are its all-even nodes, halved; P interpolates
multilinearly from them (``discretize._interpolation``), the coarse
operator is P^T A P, and damped Jacobi smooths before and after the coarse
correction.  A caller may pass the first interpolation matrices: grid
continuation passes those ``discretize.prolong`` built to carry eigenvectors
between grid levels, which are the same matrices.  Levels stop at COARSEST
unknowns, or at a level without an all-even node, which is inverted densely.
kappa(MA) stays near 1.8 as h shrinks, and so do the block iterations.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretize import _interpolation

__all__ = [
    "ConvergenceError",
    "IndefiniteOperatorError",
    "EigenResult",
    "DEFAULT_SEED",
    "smallest_pairs",
    "rayleigh_residual",
]

DEFAULT_SEED = 2025

COARSEST = 100  # unknowns at or below which a level is inverted densely
OMEGA = 2.0 / 3.0  # damped-Jacobi weight of the smoothing sweeps
DEPENDENT = 1e-10  # relative Gram eigenvalue below which a direction is dropped
BLOCK = 8192  # columns per block when the block vectors are recombined


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


def _hierarchy(A, nodes, transfers=()):
    """Geometric levels of the V-cycle for A with lattice indices ``nodes``.

    ``transfers`` are the interpolation matrices of the first levels, finest
    first, as ``discretize.prolong`` builds them between grid levels; below
    them the levels coarsen on their own.  Returns (levels, coarse_inverse);
    each level is (A, OMEGA / diag(A), P, and work vectors for the residual
    and the coarse correction).
    """
    levels = []
    while A.shape[0] > COARSEST:
        coarse = nodes[~(nodes & 1).any(axis=1)] >> 1
        if len(coarse) == 0:
            break
        if len(levels) < len(transfers):
            P = transfers[len(levels)]
            if P.shape != (len(nodes), len(coarse)):
                raise ValueError(f"transfer {len(levels)} has shape {P.shape}, the level "
                                 f"needs {(len(nodes), len(coarse))}")
        else:
            low = coarse.min(axis=0)
            rows = np.full(coarse.max(axis=0) - low + 1, -1, dtype=np.int32)
            rows[tuple((coarse - low).T)] = np.arange(len(coarse))
            P = _interpolation(nodes, rows, low)
        coarse_A = (P.T @ A @ P).tocsr()
        levels.append((A, OMEGA / A.diagonal(), P, np.empty(len(nodes)), np.empty(len(coarse))))
        A, nodes = coarse_A, coarse
        if np.any(A.diagonal() <= 0):
            raise IndefiniteOperatorError("operator is not positive definite on a coarse level")
    try:
        inverse = np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError:
        raise IndefiniteOperatorError("coarsest operator is singular") from None
    return levels, 0.5 * (inverse + inverse.T)


def _vcycle(hierarchy, r, x, depth=0):
    """Apply the symmetric V-cycle preconditioner to r from a zero guess,
    writing the result into x."""
    levels, coarse = hierarchy
    if depth == len(levels):
        np.dot(coarse, r, out=x)
        return
    A, smoother, P, residual, correction = levels[depth]
    np.multiply(smoother, r, out=x)
    np.subtract(r, A @ x, out=residual)
    _vcycle(hierarchy, P.T @ residual, correction, depth + 1)
    x += P @ correction
    np.subtract(r, A @ x, out=residual)
    residual *= smoother
    x += residual


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


def _combine(C, Y, out):
    """out = C.T @ Y one column block at a time, so that out may overlap Y and
    no temporary the size of Y is made."""
    for j in range(0, Y.shape[1], BLOCK):
        out[:, j: j + BLOCK] = C.T @ Y[:, j: j + BLOCK]


def _ritz(A, X, AX):
    """Rayleigh-Ritz in place on the span of the rows of X, which become the
    orthonormal Ritz vectors; returns the ascending Ritz values and leaves
    the residuals A x - theta x as the rows of AX."""
    T = _orthonormal(X)
    for x, ax in zip(X, AX):
        ax[:] = A @ x
    G = T.T @ (X @ AX.T) @ T
    theta, U = np.linalg.eigh(0.5 * (G + G.T))
    C = T @ U
    _combine(C, X, X)
    _combine(C, AX, AX)
    AX -= theta[:, None] * X
    return theta


def smallest_pairs(operator, k: int = 2, tol: float = 1e-8, seed: int | None = None,
                   x0: np.ndarray | None = None, max_outer: int = 200,
                   transfers=()) -> EigenResult:
    """Compute the k (= 1 or 2) smallest eigenpairs of an SPD operator.

    Accepts a DiscreteOperator, a scipy sparse matrix, or a dense array.
    Runs block LOBPCG on k vectors for at most ``max_outer`` iterations.
    Convergence requires, for every pair, both a relative eigenvalue change
    below ``tol`` and an eigenresidual ||A v - lambda v|| <= tol * lambda.
    Optional ``x0`` columns seed the iteration (used for grid continuation);
    otherwise the start is pseudo-random with the given seed.  Optional
    ``transfers`` are the first interpolation matrices of the V-cycle,
    finest first (grid continuation passes those of ``discretize.prolong``);
    each must have the shape of the level it replaces.  Returned values are
    the Rayleigh quotients of the returned orthonormal vectors, and the
    residuals their true residuals.
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
    hierarchy = _hierarchy(A, np.arange(n)[:, None] if nodes is None else nodes, transfers)
    # block vectors as rows: X = S[:k], then p update directions P, then the
    # preconditioned residuals W
    S = np.empty((3 * k, n))
    X = S[:k]
    start = 0
    if x0 is not None:
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        if x0.shape[0] == n:
            x0 = x0.T
        start = len(x0)
        X[:start] = x0
        del x0  # a caller that keeps no reference frees the columns here
    if start < k:
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
        X[start:] = rng.standard_normal((n, k)).T[start:]
    if _orthonormal(X).shape[1] < k:
        raise ValueError("starting vectors are linearly dependent")

    R = np.empty_like(X)  # residuals A x - theta x of the rows of X
    theta = _ritz(A, X, R)
    p = 0
    previous = np.full(k, np.inf)
    inner = np.zeros(k, dtype=int)
    for iteration in range(max_outer + 1):
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
            _vcycle(hierarchy, R[i], row)
        basis = S[k: k + p + len(active)]
        for _ in range(2):  # twice is enough for orthogonality to working precision
            for row in basis:
                row -= (X @ row) @ X
        T = _orthonormal(basis)
        m = k + T.shape[1]
        _combine(T, basis, S[k:m])
        # Gram matrix of A on S[:m]; its X columns come from A X = R + theta X,
        # with S[:m] X^T = [I; 0]
        gram = np.empty((m, m))
        gram[:, :k] = S[:m] @ R.T
        gram[:k, :k] += np.diag(theta)
        for j in range(k, m):
            gram[:, j] = S[:m] @ (A @ S[j])
        _, C = np.linalg.eigh(0.5 * (gram + gram.T))
        # new X = C[:, :k]^T S[:m] and P = C[k:m, :k]^T S[k:m] in one pass
        D = np.zeros((m, 2 * k))
        D[:, :k], D[k:, k:] = C[:, :k], C[k:m, :k]
        _combine(D, S[:m], S[: 2 * k])
        p = k
        previous = theta
        theta = _ritz(A, X, R)


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
