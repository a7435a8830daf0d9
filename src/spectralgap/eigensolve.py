"""Two smallest eigenpairs of a sparse SPD operator by inverse iteration.

Plain shift-zero inverse iteration: each outer step solves A y = x with
preconditioned conjugate gradients to 1e-10 relative residual, then
normalizes.  The second vector is re-orthogonalized against the first at
every step (deflation), which also resolves degenerate pairs such as two
identical disjoint components.  Starting vectors come from a seeded
generator, so runs are bit-reproducible on one platform.

The preconditioner is one symmetric aggregation-multigrid V-cycle (Braess,
Computing 55, 1995), built once per call: each level merges the 2 x 2
lattice blocks of its nodes into one unknown, the coarse operator is the
Galerkin product P^T A P of the piecewise-constant prolongation P, damped
Jacobi smooths once before and once after the coarse correction, and the
correction is over-scaled to make up for the too-stiff constant
interpolation.  Levels stop at COARSEST unknowns, which are solved with a
dense inverse.  CG steps per solve then barely grow as the grid is refined.
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


class IndefiniteOperatorError(RuntimeError):
    """The operator is not positive definite."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; the best iterate is attached as .result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class EigenResult:
    """Two smallest eigenpairs: values ascending, unit-norm vectors as
    columns, per-pair residual norms ||A v - lambda v|| and outer iteration
    counts, the tolerance the solve was run at, and the total preconditioned
    CG steps spent on each pair."""

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


def _hierarchy(A, nodes):
    """Aggregation levels of the V-cycle for A with lattice indices ``nodes``.

    Returns (levels, coarse_inverse); each level is (A, OMEGA / diag(A),
    aggregate of each row, number of aggregates).
    """
    levels = []
    while A.shape[0] > COARSEST:
        n = A.shape[0]
        nodes, agg = np.unique(nodes // 2, axis=0, return_inverse=True)
        agg = agg.ravel()
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


def _pcg(A, b, hierarchy, x0=None, rtol=1e-10, max_iter=None):
    """V-cycle-preconditioned CG for SPD systems; returns (x, iterations).

    Raises IndefiniteOperatorError when a search direction has nonpositive
    curvature, which cannot happen for a positive definite matrix.
    """
    n = A.shape[0]
    if max_iter is None:
        max_iter = max(1000, 40 * n)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), 0
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = x0.copy()
        r = b - A @ x
    z = _vcycle(hierarchy, r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while float(np.linalg.norm(r)) > rtol * norm_b and it < max_iter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise IndefiniteOperatorError(
                f"nonpositive curvature p.Ap = {pAp:.3e} in CG step {it}"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = _vcycle(hierarchy, r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    if it >= max_iter:
        raise ConvergenceError(f"CG stalled after {it} iterations")
    return x, it


def smallest_pairs(operator, k: int = 2, tol: float = 1e-8, seed: int | None = None,
                   x0: np.ndarray | None = None, max_outer: int = 200,
                   inner_rtol: float = 1e-10) -> EigenResult:
    """Compute the k (= 1 or 2) smallest eigenpairs of an SPD operator.

    Accepts a DiscreteOperator, a scipy sparse matrix, or a dense array.
    Convergence requires both a relative eigenvalue change below ``tol`` and
    an eigenresidual ||A v - lambda v|| <= tol * lambda.  Optional ``x0``
    columns seed the iteration (used for grid continuation); otherwise the
    start is pseudo-random with the given seed.
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
    starts = rng.standard_normal((n, k))
    if x0 is not None:
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        if x0.shape[0] == n:
            starts[:, : x0.shape[1]] = x0
        else:
            starts[:, : x0.shape[0]] = x0.T

    values = []
    vectors = []
    residuals = []
    iterations = []
    inner_iterations = []
    for pair in range(k):
        # converge the first pair tighter so its residual cannot pollute the
        # deflated second one (the true residual of v2 bottoms out at r1.x)
        pair_tol = tol / 4.0 if (pair == 0 and k > 1) else tol
        # the inner solves must out-resolve the eigenresidual target,
        # otherwise a warm-started CG can return unchanged and stall
        pair_inner_rtol = min(inner_rtol, 0.2 * pair_tol)
        x = starts[:, pair]
        for v in vectors:
            x = x - v * (v @ x)
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            raise ValueError("starting vector lies entirely in the deflated space")
        x /= nx
        lam = None
        converged = False
        warm = None
        inner = 0
        for outer in range(1, max_outer + 1):
            y, steps = _pcg(A, x, hierarchy, x0=warm, rtol=pair_inner_rtol)
            inner += steps
            for v in vectors:
                y = y - v * (v @ y)
            ny = float(np.linalg.norm(y))
            if ny == 0.0:
                raise IndefiniteOperatorError("inverse iteration collapsed to zero")
            lam_new = float(y @ x) / float(y @ y)
            x = y / ny
            resid = float(np.linalg.norm(A @ x - lam_new * x))
            if (
                lam is not None
                and abs(lam_new - lam) <= pair_tol * abs(lam_new)
                and resid <= pair_tol * abs(lam_new)
            ):
                lam = lam_new
                converged = True
                break
            lam = lam_new
            warm = x / lam  # next solve's solution is close to x/lambda
        values.append(lam)
        vectors.append(x)
        residuals.append(resid)
        iterations.append(outer)
        inner_iterations.append(inner)
        if not converged:
            partial = _pack(values, vectors, residuals, iterations, inner_iterations, tol)
            raise ConvergenceError(
                f"eigenpair {pair + 1} not converged after {max_outer} outer "
                f"iterations (residual {resid:.3e}, tol {tol * abs(lam):.3e})",
                result=partial,
            )
    return _pack(values, vectors, residuals, iterations, inner_iterations, tol)


def _pack(values, vectors, residuals, iterations, inner_iterations, tol):
    order = np.argsort(values)
    return EigenResult(
        values=np.array([values[i] for i in order]),
        vectors=np.column_stack([vectors[i] for i in order]),
        residuals=np.array([residuals[i] for i in order]),
        iterations=tuple(iterations[i] for i in order),
        tol=tol,
        inner_iterations=tuple(inner_iterations[i] for i in order),
    )


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
