import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectralgap import discretize as d
from spectralgap import eigensolve as es
from spectralgap import geometry as geo

from conftest import cli_env
from test_discretize import square_mode_values


@pytest.fixture(scope="module")
def disc_op():
    grid = d.build_grid(geo.Ball(), 1 / 16)
    return d.assemble(grid)


@pytest.fixture(scope="module")
def disc_result(disc_op):
    return es.smallest_pairs(disc_op, tol=1e-8)


class TestSmallestPairs:
    def test_hand_diagonalized_2x2(self):
        res = es.smallest_pairs(np.array([[2.0, -1.0], [-1.0, 2.0]]), tol=1e-10)
        assert res.values == pytest.approx([1.0, 3.0], rel=1e-9)

    def test_unit_square_matches_closed_form(self):
        m = 15
        op = d.assemble(d.build_grid(geo.Rectangle(1.0, 1.0), 1.0 / (m + 1)))
        res = es.smallest_pairs(op, tol=1e-9)
        assert res.values == pytest.approx(square_mode_values(m)[:2], rel=1e-8)

    def test_two_balls_degenerate_pair(self):
        op = d.assemble(d.build_grid(geo.TwoBalls(), 1 / 16))
        res = es.smallest_pairs(op, tol=1e-8)
        ratio = res.values[0] / res.values[1]
        assert 1.0 - 5.0 * res.tol <= ratio <= 1.0

    def test_matches_arpack(self, disc_op, disc_result):
        # independent route: shift-invert Lanczos from scipy
        ref = np.sort(spla.eigsh(disc_op.matrix, k=2, sigma=0.0,
                                 return_eigenvectors=False))
        assert disc_result.values == pytest.approx(ref, rel=1e-8)

    def test_residual_contract(self, disc_result):
        assert (disc_result.residuals <= disc_result.tol * disc_result.values).all()

    def test_deflation_orthogonality(self, disc_result):
        v1, v2 = disc_result.vectors.T
        assert abs(v1 @ v2) <= 1e-8

    def test_determinism(self, disc_op):
        a = es.smallest_pairs(disc_op, tol=1e-8, seed=123)
        b = es.smallest_pairs(disc_op, tol=1e-8, seed=123)
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations
        assert a.inner_iterations == b.inner_iterations
        assert all(steps > 0 for steps in a.inner_iterations)
        assert np.array_equal(a.vectors, b.vectors)

    def test_indefinite_rejected(self):
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(es.IndefiniteOperatorError):  # singular
            es.smallest_pairs(np.array([[1.0, 1.0], [1.0, 1.0]]))
        # positive diagonal, but negative on the aggregated pairs
        n = 2 * es.COARSEST
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(sp.diags([-2.0, 1.0, -2.0], [-1, 0, 1], shape=(n, n)))
        # positive diagonal and an invertible coarsest matrix: a Ritz value < 0
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_nonconvergence_reports_best_iterate(self, disc_op):
        with pytest.raises(es.ConvergenceError) as err:
            es.smallest_pairs(disc_op, tol=1e-12, max_outer=2)
        assert err.value.result is not None
        assert err.value.result.values[0] > 0

    def test_exact_start_has_zero_residual(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = es.smallest_pairs(np.diag([1.0, 2.0, 3.0, 4.0]), x0=np.eye(4)[:, :2])
        assert np.array_equal(res.values, [1.0, 2.0])
        assert np.array_equal(res.residuals, [0.0, 0.0])

    def test_k_validation(self):
        with pytest.raises(ValueError):
            es.smallest_pairs(np.eye(4), k=3)
        with pytest.raises(ValueError):
            es.smallest_pairs(np.eye(1), k=2)

    def test_sparse_input(self):
        mat = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1]).tocsr()
        res = es.smallest_pairs(mat, tol=1e-10)
        exact = [2.0 - np.sqrt(2.0), 2.0]
        assert res.values == pytest.approx(exact, rel=1e-9)

    def test_bare_matrix_above_coarsest(self, disc_op, disc_result):
        # without lattice nodes the V-cycle aggregates consecutive rows
        assert disc_op.n > es.COARSEST
        res = es.smallest_pairs(disc_op.matrix, tol=1e-8)
        assert res.values == pytest.approx(disc_result.values, rel=1e-8)
        assert (res.residuals <= res.tol * res.values).all()


@pytest.mark.parametrize("domain, h", [(geo.Dumbbell(0.2), 1 / 32), (geo.TwoBalls(), 1 / 16)])
def test_hard_spectra_match_arpack(domain, h):
    """Nearly and exactly degenerate pairs against shift-invert Lanczos."""
    op = d.assemble(d.build_grid(domain, h))
    res = es.smallest_pairs(op, tol=1e-8)
    ref = np.sort(spla.eigsh(op.matrix, k=2, sigma=0.0, return_eigenvectors=False))
    assert res.values == pytest.approx(ref, rel=1e-8)
    assert (res.residuals <= res.tol * res.values).all()
    assert np.abs(res.vectors.T @ res.vectors - np.eye(2)).max() <= 1e-10


def test_package_leaves_scipy_linalg_unloaded():
    # importing scipy.sparse.linalg alone costs about 9 MB of peak memory
    probe = ("import sys, spectralgap.cli; "
             "print(sorted(m for m in sys.modules if m.startswith("
             "('scipy.sparse.linalg', 'scipy.linalg'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _multigrid(domain, h):
    op = d.assemble(d.build_grid(domain, h))
    return op, es._hierarchy(op.matrix, op.nodes)


class TestVCycle:
    """The preconditioner M r = _vcycle(hierarchy, r) is one V-cycle."""

    def test_levels_coarsen_to_dense_inverse(self):
        op, (levels, coarse) = _multigrid(geo.Ball(), 1 / 32)
        sizes = [level[0].shape[0] for level in levels] + [coarse.shape[0]]
        assert sizes[0] == op.n and len(levels) >= 2
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= es.COARSEST < sizes[-2]

    def test_symmetric_positive_definite(self):
        op, hierarchy = _multigrid(geo.Dumbbell(0.2), 1 / 16)
        assert len(hierarchy[0]) >= 2
        M = np.column_stack([es._vcycle(hierarchy, e) for e in np.eye(op.n)])
        assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal(op.n)
            assert x @ es._vcycle(hierarchy, x) > 0.0

    @pytest.mark.parametrize("domain, limit", [(geo.Ball(), 5.0), (geo.Dumbbell(0.2), 7.0)])
    def test_condition_number(self, domain, limit):
        """kappa(MA) from the extreme eigenvalues of the symmetric pencil
        (A M A, A), which has the spectrum of MA; about 4.0 on the disc and
        6.0 on Dumbbell(0.2) at h = 1/32."""
        op, hierarchy = _multigrid(domain, 1 / 32)
        A = op.matrix
        lu = spla.splu(A.tocsc())
        ama = spla.LinearOperator(
            A.shape, dtype=float,
            matvec=lambda x: A @ es._vcycle(hierarchy, A @ np.ravel(x)))
        a_inv = spla.LinearOperator(A.shape, dtype=float,
                                    matvec=lambda x: lu.solve(np.ravel(x)))
        extremes = [spla.eigsh(ama, k=1, M=A, Minv=a_inv, which=which, v0=np.ones(op.n),
                               return_eigenvectors=False)[0] for which in ("SA", "LA")]
        assert 0.0 < extremes[0] and extremes[1] / extremes[0] <= limit

    @pytest.mark.parametrize("h", [1 / 64, 1 / 128])
    def test_block_iterations_bounded_as_h_halves(self, h):
        op = d.assemble(d.build_grid(geo.Ball(), h))
        res = es.smallest_pairs(op, tol=1e-6, seed=1)
        assert all(iterations <= 40 for iterations in res.iterations)
        for inner, outer in zip(res.inner_iterations, res.iterations):
            assert inner <= outer

    @pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 128), (geo.Dumbbell(0.2), 1 / 64),
                                           (geo.TwoBalls(), 1 / 32)])
    def test_levels_match_row_unique_aggregation(self, domain, h):
        """The integer-key aggregation builds the same levels as merging the
        rows of nodes // 2 with np.unique(axis=0)."""
        op, (levels, coarse) = _multigrid(domain, h)
        A, nodes = op.matrix, op.nodes
        assert len(levels) >= 2
        for A_level, smoother, agg, n_coarse in levels:
            n = A.shape[0]
            nodes, ref_agg = np.unique(nodes // 2, axis=0, return_inverse=True)
            ref_agg = ref_agg.ravel()
            assert A_level.shape == A.shape and (A_level != A).nnz == 0
            assert np.array_equal(smoother, es.OMEGA / A.diagonal())
            assert np.array_equal(agg, ref_agg) and n_coarse == len(nodes)
            P = sp.csr_matrix((np.ones(n), ref_agg, np.arange(n + 1)), shape=(n, len(nodes)))
            A = (P.T @ A @ P).tocsr()
        assert A.shape[0] <= es.COARSEST
        ref_coarse = np.linalg.inv(A.toarray())
        assert np.array_equal(coarse, 0.5 * (ref_coarse + ref_coarse.T))


class TestRayleighResidual:
    def test_exact_eigenvector(self, disc_op, disc_result):
        q, r = es.rayleigh_residual(disc_op, disc_result.vectors[:, 0])
        assert q == pytest.approx(disc_result.values[0], rel=1e-10)
        assert r <= 1e-7

    def test_min_characterization(self, disc_op, disc_result):
        rng = np.random.default_rng(99)
        lam1 = disc_result.values[0]
        for _ in range(100):
            v = rng.standard_normal(disc_op.n)
            q, _ = es.rayleigh_residual(disc_op, v)
            assert q >= lam1 * (1.0 - disc_result.tol)

    def test_zero_vector(self, disc_op):
        with pytest.raises(ValueError):
            es.rayleigh_residual(disc_op, np.zeros(disc_op.n))

    def test_second_value_variational(self, disc_op, disc_result):
        """lambda2 is the smallest quotient over smooth fields orthogonal to
        the first eigenvector: smoothing random vectors twice with A^{-1}
        and deflating v1 must approach it from above, within 5 percent."""
        rng = np.random.default_rng(31)
        lu = spla.splu(disc_op.matrix.tocsc())
        v1 = disc_result.vectors[:, 0]
        lam2 = disc_result.values[1]
        best = np.inf
        for _ in range(100):
            w = rng.standard_normal(disc_op.n)
            w = lu.solve(lu.solve(w))
            w -= v1 * (v1 @ w)
            q, _ = es.rayleigh_residual(disc_op, w)
            assert q >= lam2 * (1.0 - 5.0 * disc_result.tol)
            best = min(best, q)
        assert best <= 1.05 * lam2
