"""Two smallest eigenpairs of a sparse SPD operator by block LOBPCG.

One block X of k vectors is improved by one Rayleigh-Ritz per iteration on
span[X, P, W] (Knyazev, SIAM J. Sci. Comput. 23(2), 2001): W holds the
preconditioned residuals M (A x - theta x) of the pairs not yet converged
and P the last update directions.  W is projected off X, and all of
[X; P; W] is orthonormalized through its scaled Gram matrix, which drops
nearly dependent directions (Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput.
40(5), 2018); that covers exactly converged, zero residuals and operators
of size k.  A second buffer carries A times every block vector through the
same coefficient updates, so A is applied once per new direction: k
products per full iteration.  A k x k Rayleigh-Ritz on X alone (``_ritz``)
runs at the start and again whenever the carried residuals say stop, so
the returned values are the Rayleigh quotients of the returned orthonormal
vectors and the residuals their true residuals; if that fresh check fails,
the iteration goes on.  A caller that needs only the eigenvalues, and the
vectors as a start, stops on Temple's estimate instead of the residual
(``values_only``; Temple, Proc. R. Soc. A 119, 1928; Parlett, The Symmetric
Eigenvalue Problem, ch. 10): theta - lambda <= ||r||^2 / gap, the gap taken
from the other Ritz values of the last Rayleigh-Ritz on [X; P; W].  The
block resolves degenerate pairs such as two identical disjoint components.
Starting vectors come from a seeded generator, so runs are bit-reproducible
on one platform.

The preconditioner M is one symmetric geometric-multigrid V-cycle
(Trottenberg, Oosterlee & Schueller, Multigrid, 2001), built once per call
from the lattice indices of the rows (a bare matrix: its row index).  The
coarse nodes of a level are its all-even nodes, halved; P interpolates
multilinearly from them (``discretize.prolong``), the coarse operator is
P^T A P, formed as R (A P), and damped Jacobi smooths before and after the
coarse correction.  Every P is kept in CSC, and each level keeps R = P^T,
taken once: a CSR view of P's arrays, not a copy.  So the V-cycle restricts
with R and prolongs with P in plain compressed-matrix products that make
no matrix object per call.  Levels stop at COARSEST unknowns, or at a level
without an all-even node, which is inverted densely.  Grid continuation
(``coarse=``) reuses the matrices P of the coarser grid's solve, so each
is built once per domain.
kappa(MA) stays near 1.8 as h shrinks, and so do the block iterations.
"""

from dataclasses import dataclass

import numpy as np

from .discretize import prolong

__all__ = [
    "ConvergenceError",
    "IndefiniteOperatorError",
    "EigenResult",
    "DEFAULT_SEED",
    "smallest_pairs",
]

DEFAULT_SEED = 2025

COARSEST = 100  # unknowns at or below which a level is inverted densely
OMEGA = 2.0 / 3.0  # damped-Jacobi weight of the smoothing sweeps
DEPENDENT = 1e-10  # relative Gram eigenvalue below which a direction is dropped
BLOCK = 8192  # columns per block when the block vectors are recombined
CLUSTER = 1e-3  # relative separation within which Ritz values form one cluster
MAX_OUTER = 200  # block iterations before ConvergenceError


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
    run, the tolerance the solve was run at, the V-cycles applied to each
    pair's residual, and the interpolation matrices (CSC) down from its
    lattice, finest first; a continued solve takes them as its lower levels
    and restricts through their transposes, CSR views of the same arrays."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: tuple
    tol: float
    inner_iterations: tuple = ()
    transfers: tuple = ()


def _as_csr(operator):
    import scipy.sparse as sp

    matrix = getattr(operator, "matrix", operator)
    if sp.issparse(matrix):
        return matrix.tocsr()
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator must be square, got shape {arr.shape}")
    return sp.csr_matrix(arr)


def _transfers(nodes):
    """Interpolation matrices of the V-cycle for lattice indices ``nodes``,
    finest first, down to COARSEST nodes or a level without an all-even node."""
    transfers = []
    while len(nodes) > COARSEST:
        nodes, P = prolong(nodes)
        if len(nodes) == 0:
            break
        transfers.append(P)
    return transfers


def _hierarchy(A, transfers):
    """Galerkin levels of the V-cycle for A with the interpolation matrices
    ``transfers`` (CSC), finest first, down to COARSEST unknowns.  Returns
    (levels, coarse_inverse); each level is (A, OMEGA / diag(A), P, the
    restriction R = P^T as a CSR view of P's arrays, and work vectors for
    the residual and the coarse correction).  A level whose diagonal is not
    positive is refused, the finest as a nonpositive operator diagonal.
    """
    levels = []
    diagonal = A.diagonal()
    if np.any(diagonal <= 0):
        raise IndefiniteOperatorError("operator has nonpositive diagonal entries")
    for P in transfers:
        if A.shape[0] <= COARSEST:
            break
        R = P.T
        # the product first: work vectors allocated before it raise a solve's
        # memory peak
        coarse_A = R @ (A @ P)
        coarse_A.sort_indices()
        levels.append((A, OMEGA / diagonal, P, R, np.empty(P.shape[0]),
                       np.empty(P.shape[1])))
        A = coarse_A
        diagonal = A.diagonal()
        if np.any(diagonal <= 0):
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
    A, smoother, P, R, residual, correction = levels[depth]
    np.multiply(smoother, r, out=x)
    np.subtract(r, A @ x, out=residual)
    _vcycle(hierarchy, R @ residual, correction, depth + 1)
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


def _project_off(X, W):
    """Project the rows of W off the orthonormal rows of X in place, twice
    (enough for orthogonality to working precision), one column block at a
    time so that no temporary the size of W is made."""
    for _ in range(2):
        C = W @ X.T
        for j in range(0, W.shape[1], BLOCK):
            W[:, j: j + BLOCK] -= C @ X[:, j: j + BLOCK]


def _rayleigh_ritz(Y, AY, k):
    """All Ritz values of A on the span of the rows of Y, given AY = A Y,
    ascending, and coefficients C such that the rows of C.T @ Y are the
    orthonormal Ritz vectors of the k smallest."""
    T = _orthonormal(Y)
    G = T.T @ (Y @ AY.T) @ T
    theta, U = np.linalg.eigh(0.5 * (G + G.T))
    return theta, T @ U[:, :k]


def _ritz(A, X, AX):
    """Rayleigh-Ritz in place on the span of the rows of X, which become the
    orthonormal Ritz vectors, and A applied to each into the rows of AX;
    returns the ascending Ritz values."""
    for x, ax in zip(X, AX):
        ax[:] = A @ x
    theta, C = _rayleigh_ritz(X, AX, len(X))
    _combine(C, X, X)
    _combine(C, AX, AX)
    return theta


def _gaps(theta, others):
    """Distance from each Ritz value theta_i to the nearest of theta and
    ``others`` outside its cluster (the values within CLUSTER relative),
    capped at theta_i."""
    distance = np.abs(np.concatenate([theta, others])[None, :] - theta[:, None])
    distance[distance <= CLUSTER * theta[:, None]] = np.inf
    return np.minimum(distance.min(axis=1), theta)


def smallest_pairs(operator, k: int = 2, tol: float = 1e-8, seed: int | None = None,
                   coarse: EigenResult | None = None, *,
                   values_only: bool = False) -> EigenResult:
    """Compute the k (= 1 or 2) smallest eigenpairs of an SPD operator.

    Accepts a DiscreteOperator, a scipy sparse matrix, or a dense array.
    Runs block LOBPCG on k vectors for at most MAX_OUTER iterations,
    applying the operator once to each new preconditioned residual and
    carrying its products with the other block vectors.
    Convergence requires, for every pair, both a relative eigenvalue change
    below ``tol`` and an eigenresidual ||A v - lambda v|| <= tol * lambda;
    when the carried residuals meet it, or the budget runs out, a
    Rayleigh-Ritz on the block alone checks it afresh.  With
    ``values_only``, once a Rayleigh-Ritz on [X; P; W] has run, the
    residual need only meet Temple's estimate ||r||^2 <= tol * lambda * gap:
    the gap is the distance to the nearest other Ritz value of that
    Rayleigh-Ritz, its (k+1)-th included, outside the pair's cluster (the
    values within CLUSTER relative), and at most lambda.  It is an estimate,
    not an enclosure, as the Ritz values above the block lie above the
    eigenvalues they approximate.
    The start is pseudo-random with the given seed, unless grid
    continuation passes ``coarse``, the result of the same domain on the
    grid of twice the spacing: the start is then its vectors interpolated
    onto the rows, and the V-cycle reuses its transfers below the one new
    level.  Returned values
    are the Rayleigh quotients of the returned orthonormal vectors, and the
    residuals their true residuals.
    """
    if k not in (1, 2):
        raise ValueError(f"only the two smallest pairs are supported, got k={k}")
    A = _as_csr(operator)
    n = A.shape[0]
    if k > n:
        raise ValueError(f"requested {k} pairs from an operator of size {n}")
    nodes = getattr(operator, "nodes", None)
    nodes = np.arange(n)[:, None] if nodes is None else nodes
    start = None
    if coarse is None:
        transfers = _transfers(nodes)
    else:
        P = prolong(nodes)[1]
        if P.shape[1] != len(coarse.vectors):
            raise ValueError(f"the coarse result has {len(coarse.vectors)} rows, but the "
                             f"operator's lattice coarsens to {P.shape[1]} nodes")
        transfers = [P, *coarse.transfers]
        start = P @ coarse.vectors
    hierarchy = _hierarchy(A, transfers)
    # block vectors as rows: X = S[:k], then p update directions P, then the
    # preconditioned residuals W
    S = np.empty((3 * k, n))
    X = S[:k]
    if start is None:
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
        start = rng.standard_normal((n, k))
    X[:] = start.T
    del start  # freed before the solve's own buffers grow
    if _orthonormal(X).shape[1] < k:
        raise ValueError("starting vectors are linearly dependent")

    AS = np.empty_like(S)  # A times each row of S
    AX = AS[:k]
    theta = _ritz(A, X, AX)
    fresh = True  # theta and AX come from a Rayleigh-Ritz on X alone
    p = 0
    previous = np.full(k, np.inf)
    upper = None  # the Ritz values above X of the last Rayleigh-Ritz on [X; P; W]
    inner = np.zeros(k, dtype=int)
    for iteration in range(MAX_OUTER + 1):
        while True:
            if theta[0] <= 0.0:
                raise IndefiniteOperatorError(f"nonpositive Ritz value {theta[0]:.3e}")
            # residuals A x - theta x of the rows of X, in the W slots of AS
            R = AS[k + p: 2 * k + p]
            np.multiply(theta[:, None], X, out=R)
            np.subtract(AX, R, out=R)
            residuals = np.sqrt(np.einsum("ij,ij->i", R, R))
            if values_only and upper is not None:
                # Temple: theta - lambda <= ||r||^2 / gap
                small = residuals**2 <= tol * theta * _gaps(theta, upper)
            else:
                small = residuals <= tol * theta
            done = (np.abs(theta - previous) <= tol * theta) & small
            stop = done.all() or iteration == MAX_OUTER
            if fresh or not stop:
                break
            theta = _ritz(A, X, AX)
            fresh = True
        if stop:
            del AS, AX, R  # released before the copy of X raises the memory peak
            result = EigenResult(values=theta, vectors=X.copy().T, residuals=residuals,
                                 iterations=(iteration,) * k, tol=tol,
                                 inner_iterations=tuple(int(i) for i in inner),
                                 transfers=tuple(transfers))
            if done.all():
                return result
            raise ConvergenceError(
                f"eigenpairs not converged after {MAX_OUTER} iterations (residuals "
                f"{residuals.max():.3e}, tol {tol * theta.max():.3e})", result=result)
        # Rayleigh-Ritz on span[X, P, W]; converged pairs get no new direction
        active = np.flatnonzero(~done)
        inner[active] += 1
        m = k + p + len(active)
        W = S[k + p: m]
        for row, i in zip(W, active):
            _vcycle(hierarchy, R[i], row)
        _project_off(X, W)
        for j, row in enumerate(W, start=k + p):
            AS[j] = A @ row
        values, C = _rayleigh_ritz(S[:m], AS[:m], k)
        upper = values[k:]
        # new X = C^T S[:m] and P = C[k:]^T S[k:m] in one pass, and so for AS
        D = np.zeros((m, 2 * k))
        D[:, :k], D[k:, k:] = C, C[k:]
        _combine(D, S[:m], S[: 2 * k])
        _combine(D, AS[:m], AS[: 2 * k])
        fresh = False
        p = k
        previous, theta = theta, values[:k]
