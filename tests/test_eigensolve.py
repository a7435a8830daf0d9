import itertools
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectralgap import discretize as d
from spectralgap import eigensolve as es
from spectralgap import geometry as geo
from spectralgap import pipeline

from conftest import cli_env, grid_problem, row_lattice
from test_discretize import square_mode_values

TOL = 1e-8  # the tolerance of every solve whose checks scale with it


def _path_operator(M):
    """The dense or sparse matrix M and its chain of interpolations on a
    row lattice: row i at lattice node (i, 0)."""
    return sp.csr_matrix(M), pipeline.chain(row_lattice(np.arange(M.shape[0])))[1]


def _grid_problem(domain, h):
    return grid_problem(d.build_grid(domain, h))


@pytest.fixture(scope="module")
def disc_op():
    """The matrix of the disc's grid at h = 1/16 and its chain."""
    return _grid_problem(geo.Ball(), 1 / 16)


@pytest.fixture(scope="module")
def disc_result(disc_op):
    return es.smallest_pairs(*disc_op, tol=TOL)


class TestSmallestPairs:
    def test_hand_diagonalized_2x2(self):
        res = es.smallest_pairs(*_path_operator(np.array([[2.0, -1.0], [-1.0, 2.0]])),
                                 tol=1e-10)
        assert res.values == pytest.approx([1.0, 3.0], rel=1e-9)

    def test_one_by_one(self):
        """n = k: every new direction is dependent on X and is dropped."""
        res = es.smallest_pairs(*_path_operator(np.array([[3.0]])), k=1, tol=1e-10)
        assert res.values == pytest.approx([3.0], rel=1e-12)
        assert res.residuals == pytest.approx([0.0], abs=1e-12)

    def test_unit_square_matches_closed_form(self):
        m = 15
        res = es.smallest_pairs(*_grid_problem(geo.Rectangle(1.0, 1.0), 1.0 / (m + 1)),
                                tol=1e-9)
        assert res.values == pytest.approx(square_mode_values(m)[:2], rel=1e-8)

    def test_two_balls_degenerate_pair(self):
        res = es.smallest_pairs(*_grid_problem(geo.two_balls(), 1 / 16), tol=TOL)
        ratio = res.values[0] / res.values[1]
        assert 1.0 - 5.0 * TOL <= ratio <= 1.0

    def test_matches_arpack(self, disc_op, disc_result):
        # independent route: shift-invert Lanczos from scipy
        ref = np.sort(spla.eigsh(disc_op[0], k=2, sigma=0.0,
                                 return_eigenvectors=False))
        assert disc_result.values == pytest.approx(ref, rel=1e-8)

    def test_residual_contract(self, disc_result):
        assert (disc_result.residuals <= TOL * disc_result.values).all()

    def test_deflation_orthogonality(self, disc_result):
        v1, v2 = disc_result.vectors.T
        assert abs(v1 @ v2) <= 1e-8

    def test_determinism(self, disc_op):
        a = es.smallest_pairs(*disc_op, tol=1e-8, seed=123)
        b = es.smallest_pairs(*disc_op, tol=1e-8, seed=123)
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations
        assert a.inner_iterations == b.inner_iterations
        assert all(steps > 0 for steps in a.inner_iterations)
        assert np.array_equal(a.vectors, b.vectors)

    def test_indefinite_rejected(self):
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(*_path_operator(np.array([[1.0, 0.0], [0.0, -1.0]])))
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(*_path_operator(np.array([[0.0, 1.0], [1.0, 0.0]])))
        with pytest.raises(es.IndefiniteOperatorError):  # singular
            es.smallest_pairs(*_path_operator(np.array([[1.0, 1.0], [1.0, 1.0]])))
        # positive diagonal, but negative on the first coarse level
        n = 2 * es.COARSEST
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(*_path_operator(sp.diags([-2.0, 1.0, -2.0], [-1, 0, 1],
                                                      shape=(n, n))))
        # positive diagonal and an invertible coarsest matrix: a Ritz value < 0
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(*_path_operator(np.array([[1.0, 2.0], [2.0, 1.0]])))
        with pytest.raises(es.IndefiniteOperatorError):
            es.smallest_pairs(*_path_operator(
                np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])))

    @pytest.mark.parametrize("values_only", [False, True])
    def test_tolerance_below_the_rounding_floor_refused(self, disc_op, values_only):
        """On the disc at h = 1/16, tol = 1e-15 puts tol * lambda1 (5.8e-15)
        under eps * ||A||_inf (8 / h^2, so 4.5e-13), where the iteration
        breaks down: the residual and the Temple stop refuse it by name, and
        tol = 1e-12 still converges.  So does the disc solve at 1/32 ...
        1/128 with tol = 1e-11: its finest floor is 2.9e-11, under
        tol * lambda1 = 5.8e-11, which the looser bound 20 / h^2 on ||A||
        (the largest |a_ij| times the most entries in a row, 7.3e-11) would
        refuse."""
        with pytest.raises(ValueError, match="below the rounding floor"):
            es.smallest_pairs(*disc_op, tol=1e-15, values_only=values_only)
        res = es.smallest_pairs(*disc_op, tol=1e-12, values_only=values_only)
        assert values_only or (res.residuals <= 1e-12 * res.values).all()
        finest = pipeline.solve_domain(geo.Ball(), (1 / 32, 1 / 64, 1 / 128), tol=1e-11,
                                       values_only=values_only).levels[-1]
        assert values_only or (finest.residuals <= 1e-11 * finest.values).all()

    def test_norm_is_the_largest_absolute_row_sum(self, disc_op):
        """The rounding floor's ||A||_inf: 8 / h^2 on the five-point
        operator, and the largest row sum of |a_ij| on a matrix with
        positive off-diagonal entries, over more rows than one block."""
        assert es._norm(disc_op[0]) == 8.0 * 16**2
        n = es.BLOCK + 100
        M = sp.random(n, n, density=5.0 / n, format="csr", random_state=1)
        M = (M + M.T + 10.0 * sp.eye(n)).tocsr()
        assert es._norm(M) == pytest.approx(abs(M).sum(axis=1).max(), rel=1e-14)

    def test_nonconvergence_reports_best_iterate(self, disc_op, monkeypatch):
        """The attached result has the Rayleigh quotients and true residuals
        of its vectors, not the values carried through the iteration."""
        monkeypatch.setattr(es, "MAX_OUTER", 2)
        with pytest.raises(es.ConvergenceError) as err:
            es.smallest_pairs(*disc_op, tol=1e-12)
        res = err.value.result
        assert res is not None and res.values[0] > 0 and res.iterations == (2, 2)
        V = res.vectors
        AV = disc_op[0] @ V
        assert res.values == pytest.approx(np.einsum("ij,ij->j", V, AV), rel=1e-14)
        true = np.linalg.norm(AV - V * res.values, axis=0)
        assert res.residuals == pytest.approx(true, rel=1e-6, abs=0)
        assert (res.residuals > 1e-12 * res.values).all()

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_tolerance_outside_zero_to_inf_rejected(self, disc_op, tol):
        # inf would return the random start after 0 iterations; NaN, 0 and
        # -1 would run the whole budget and raise ConvergenceError
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            es.smallest_pairs(*disc_op, tol=tol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_orthonormal_drops_a_zero_row(self):
        """A converged pair's zero residual is a zero row of the block: it
        is dropped without a division by zero, and the rest comes out
        orthonormal."""
        Y = np.array([[3.0, 0.0, 4.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]])
        T = es._orthonormal(Y)
        assert T.shape == (3, 2)
        assert np.array_equal(T[1], [0.0, 0.0])
        Q = T.T @ Y
        assert Q @ Q.T == pytest.approx(np.eye(2), abs=1e-14)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            es.smallest_pairs(*_path_operator(np.eye(4)), k=3)
        with pytest.raises(ValueError):
            es.smallest_pairs(*_path_operator(np.eye(1)), k=2)

    def test_sparse_input(self):
        mat = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1]).tocsr()
        res = es.smallest_pairs(*_path_operator(mat), tol=1e-10)
        exact = [2.0 - np.sqrt(2.0), 2.0]
        assert res.values == pytest.approx(exact, rel=1e-9)

    def test_bare_matrix_refused(self, disc_op):
        # the chain is required: left out, the V-cycle would be a dense
        # inverse of the whole operator
        with pytest.raises(TypeError, match="transfers"):
            es.smallest_pairs(disc_op[0], tol=1e-8)


@pytest.mark.parametrize("domain, h", [(geo.Dumbbell(0.2), 1 / 32), (geo.two_balls(), 1 / 16)])
def test_hard_spectra_match_arpack(domain, h):
    """Nearly and exactly degenerate pairs against shift-invert Lanczos."""
    A, transfers = _grid_problem(domain, h)
    res = es.smallest_pairs(A, transfers, tol=TOL)
    ref = np.sort(spla.eigsh(A, k=2, sigma=0.0, return_eigenvectors=False))
    assert res.values == pytest.approx(ref, rel=1e-8)
    assert (res.residuals <= TOL * res.values).all()
    assert np.abs(res.vectors.T @ res.vectors - np.eye(2)).max() <= 1e-10


@pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 32), (geo.Dumbbell(0.2), 1 / 32),
                                       (geo.two_balls(), 1 / 16)])
def test_values_are_rayleigh_quotients_with_true_residuals(domain, h):
    """The iteration carries A X; the returned pairs are recomputed, also
    when a pair stops on its Temple estimate."""
    A, transfers = _grid_problem(domain, h)
    for k, values_only in itertools.product((1, 2), (False, True)):
        res = es.smallest_pairs(A, transfers, k=k, tol=1e-8, seed=1, values_only=values_only)
        V = res.vectors
        AV = A @ V
        assert V.shape == (A.shape[0], k)
        assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-12
        assert res.values == pytest.approx(np.einsum("ij,ij->j", V, AV), rel=1e-14)
        assert np.all(np.diff(res.values) >= 0.0)
        true = np.linalg.norm(AV - V * res.values, axis=0)
        assert res.residuals == pytest.approx(true, rel=1e-6, abs=0)


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
    """The grid of a domain at spacing h, its matrix and its V-cycle."""
    grid = d.build_grid(domain, h)
    A, transfers = grid_problem(grid)
    return grid, A, es._hierarchy(A, transfers)


def _precondition(hierarchy, r):
    x = np.empty_like(r)
    es._vcycle(hierarchy, r, x)
    return x


def _interior(nodes, radius):
    """Rows whose lattice nodes within ``radius`` in every direction are all
    present in ``nodes``."""
    present = {tuple(ij) for ij in nodes}
    steps = range(-radius, radius + 1)
    return np.array([all((i + a, j + b) in present for a in steps for b in steps)
                     for i, j in nodes])


class TestVCycle:
    """The preconditioner M r = _vcycle(hierarchy, r, x) is one V-cycle."""

    def test_levels_coarsen_to_dense_inverse(self):
        for domain, h in ((geo.Ball(), 1 / 32), (geo.Dumbbell(0.2), 1 / 32),
                          (geo.two_balls(), 1 / 16)):
            grid, _, (levels, coarse) = _multigrid(domain, h)
            sizes = [level[0].shape[0] for level in levels] + [coarse.shape[0]]
            assert sizes[0] == grid.n and len(levels) >= 2
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] <= es.COARSEST < sizes[-2]
            # the columns of P are the all-even nodes of the level
            nodes = grid.active
            for A, smoother, P, R, residual, correction in levels:
                even = ~(nodes & 1).any(axis=1)
                assert P.shape == (len(nodes), even.sum()) == (len(residual), len(correction))
                assert R.shape == P.shape[::-1]
                assert P.indices.dtype == P.indptr.dtype == np.int32
                nodes = nodes[even] // 2

    @pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 64), (geo.Dumbbell(0.2), 1 / 32),
                                           (geo.two_balls(), 1 / 16)])
    def test_restriction_is_a_view_of_the_csc_transfer(self, domain, h):
        _, _, (levels, _) = _multigrid(domain, h)
        for _, _, P, R, _, _ in levels:
            assert P.format == "csc" and R.format == "csr" and P.has_sorted_indices
            for attr in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(R, attr), getattr(P, attr))

    @pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 128), (geo.Dumbbell(0.2), 1 / 64),
                                           (geo.two_balls(), 1 / 32), (geo.Dumbbell(0.2), 0.03)])
    def test_coarse_operators_equal_the_csr_galerkin_products(self, domain, h):
        """Every coarse operator has the arrays of (P^T A P).tocsr() with P
        in CSR: bit for bit at a dyadic h, where every Galerkin sum is
        exact, and to rounding at h = 0.03, where R (A P) adds up in
        another order than (P^T A) P."""
        exact = np.log2(h).is_integer()
        _, A, (levels, coarse) = _multigrid(domain, h)
        for depth, (_, _, P, _, _, _) in enumerate(levels):
            P = P.tocsr()
            A = (P.T @ A @ P).tocsr()
            if depth + 1 < len(levels):
                own = levels[depth + 1][0]
                assert np.array_equal(own.indices, A.indices)
                assert np.array_equal(own.indptr, A.indptr)
                if exact:
                    assert np.array_equal(own.data, A.data)
                else:
                    assert own.data == pytest.approx(A.data, rel=1e-14)
        inverse = np.linalg.inv(A.toarray())
        inverse = 0.5 * (inverse + inverse.T)
        if exact:
            assert np.array_equal(coarse, inverse)
        else:
            assert np.abs(coarse - inverse).max() <= 1e-13 * np.abs(inverse).max()

    @pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 64), (geo.Dumbbell(0.2), 0.03),
                                           (geo.two_balls(), 1 / 16)])
    def test_vcycle_equals_csr_reference(self, domain, h):
        grid, _, hierarchy = _multigrid(domain, h)
        levels, coarse = hierarchy

        def reference(r, depth=0):
            """The V-cycle with each P in CSR and a fresh P.T per restriction."""
            if depth == len(levels):
                return coarse @ r
            A, smoother, P = levels[depth][:3]
            P = P.tocsr()
            x = smoother * r
            x += P @ reference(P.T @ (r - A @ x), depth + 1)
            x += smoother * (r - A @ x)
            return x

        rng = np.random.default_rng(5)
        for _ in range(3):
            r = rng.standard_normal(grid.n)
            assert np.array_equal(_precondition(hierarchy, r), reference(r))

    def test_one_transpose_per_level(self, monkeypatch):
        """The restrictions are taken once, when the hierarchy is built, not
        once per V-cycle."""
        A, transfers = _grid_problem(geo.Ball(), 1 / 64)
        calls = []
        for cls in (sp.csr_matrix, sp.csc_matrix):
            transpose = cls.transpose
            monkeypatch.setattr(cls, "transpose",
                                lambda self, *args, transpose=transpose, **kwargs:
                                calls.append(self.format) or transpose(self, *args, **kwargs))
        built = []
        hierarchy = es._hierarchy
        monkeypatch.setattr(es, "_hierarchy",
                            lambda A, transfers: built.append(hierarchy(A, transfers)) or built[-1])
        res = es.smallest_pairs(A, transfers, tol=1e-6, seed=1)
        (levels, _), = built
        assert len(levels) >= 3 and sum(res.inner_iterations) > 3
        assert calls == ["csc"] * len(levels)

    def test_symmetric_positive_definite(self):
        grid, _, hierarchy = _multigrid(geo.Dumbbell(0.2), 1 / 16)
        assert len(hierarchy[0]) >= 2
        M = np.column_stack([_precondition(hierarchy, e) for e in np.eye(grid.n)])
        assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal(grid.n)
            assert x @ _precondition(hierarchy, x) > 0.0

    @pytest.mark.parametrize("domain", [geo.Ball(), geo.Dumbbell(0.2)])
    def test_condition_number(self, domain):
        """kappa(MA) from the extreme eigenvalues of the symmetric pencil
        (A M A, A), which has the spectrum of MA; about 1.8 on both domains
        at h = 1/32."""
        grid, A, hierarchy = _multigrid(domain, 1 / 32)
        lu = spla.splu(A.tocsc())
        ama = spla.LinearOperator(
            A.shape, dtype=float,
            matvec=lambda x: A @ _precondition(hierarchy, A @ np.ravel(x)))
        a_inv = spla.LinearOperator(A.shape, dtype=float,
                                    matvec=lambda x: lu.solve(np.ravel(x)))
        # the spectrum is clustered in [0.55, 1], where Lanczos needs a
        # tolerance to stop in seconds; 1e-6 moves kappa by far less than
        # the margin
        extremes = [spla.eigsh(ama, k=1, M=A, Minv=a_inv, which=which, v0=np.ones(grid.n),
                               tol=1e-6, return_eigenvectors=False)[0]
                    for which in ("SA", "LA")]
        assert 0.0 < extremes[0] and extremes[1] / extremes[0] <= 2.5

    @pytest.mark.parametrize("h", [1 / 64, 1 / 128])
    def test_block_iterations_bounded_as_h_halves(self, h):
        res = es.smallest_pairs(*_grid_problem(geo.Ball(), h), tol=1e-6, seed=1)
        assert all(iterations <= 16 for iterations in res.iterations)
        for inner, outer in zip(res.inner_iterations, res.iterations):
            assert inner <= outer

    def test_block_iterations_bounded_on_dumbbell(self):
        res = es.smallest_pairs(*_grid_problem(geo.Dumbbell(0.2), 1 / 64), tol=1e-6, seed=1)
        assert all(iterations <= 16 for iterations in res.iterations)


class TestInterpolation:
    """P of the finest level: multilinear interpolation from the all-even
    nodes, with weight 1, 1/2 or 1/4 per parent."""

    @pytest.fixture(scope="class", params=[(geo.Ball(), 1 / 32), (geo.Dumbbell(0.2), 1 / 32),
                                           (geo.two_balls(), 1 / 16)])
    def level(self, request):
        grid, A, (levels, _) = _multigrid(*request.param)
        return grid, A, levels[0][2], levels[1][0] if len(levels) > 1 else None

    def test_even_nodes_are_identity_rows(self, level):
        grid, _, P, _ = level
        even = np.flatnonzero(~(grid.active & 1).any(axis=1))
        assert np.array_equal(P[even].toarray(), np.eye(len(even)))

    def test_weights_and_interior_row_sums(self, level):
        grid, _, P, _ = level
        odd = (grid.active & 1).sum(axis=1)
        rows = P.tocsr()
        for row, m in enumerate(odd):
            weights = rows.data[rows.indptr[row]: rows.indptr[row + 1]]
            assert len(weights) <= 2**m and (weights == 0.5**m).all()
        sums = np.asarray(P.sum(axis=1)).ravel()
        interior = _interior(grid.active, 1)
        assert interior.sum() > grid.n // 2
        assert (sums[interior] == 1.0).all() and (sums <= 1.0).all()

    def test_galerkin_interior_is_nine_point_stencil(self, level):
        grid, A, P, coarse_A = level
        h2 = 4.0 / A[0, 0]  # every diagonal entry is 4/h^2
        expected = np.array([[-0.25, -0.5, -0.25], [-0.5, 3.0, -0.5],
                             [-0.25, -0.5, -0.25]]) / h2
        even = ~(grid.active & 1).any(axis=1)
        nodes = grid.active[even] // 2
        column = {tuple(ij): c for c, ij in enumerate(nodes)}
        # a coarse row is interior when every fine node within 2 of it is present
        rows = np.flatnonzero(_interior(grid.active, 2)[even])
        assert len(rows) > 10
        for c in rows:
            i, j = nodes[c]
            stencil = [[coarse_A[c, column[(i + a, j + b)]] for b in (-1, 0, 1)]
                       for a in (-1, 0, 1)]
            assert stencil == pytest.approx(expected, rel=1e-12)
            assert coarse_A[c].nnz == 9

    def test_no_even_node_ends_hierarchy(self):
        # a path of 150 nodes at odd lattice indices: no coarse node exists,
        # so the whole operator is the dense level
        n = 3 * es.COARSEST // 2
        grid = d.lattice_grid(1.0, np.column_stack([2 * np.arange(n) + 1, np.ones(n, dtype=int)]))
        A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
        grids, transfers = pipeline.chain(grid)
        assert len(grids) == 1 and grids[0] is grid and transfers == []
        levels, coarse = es._hierarchy(A, [])
        assert levels == [] and coarse.shape == (n, n)
        res = es.smallest_pairs(A, [], tol=1e-10)
        exact = 2.0 - 2.0 * np.cos(np.arange(1, 3) * np.pi / (n + 1))
        assert res.values == pytest.approx(exact, rel=1e-9)


class TestTransfers:
    """A solve continued from the result on the grid of twice the spacing
    starts from its vectors interpolated by the first matrix of the chain,
    and the tail of the chain gives the coarser grid its own V-cycle."""

    @pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 128), (geo.Dumbbell(0.2), 1 / 64),
                                           (geo.two_balls(), 1 / 32)])
    def test_passed_transfers_give_the_same_hierarchy(self, domain, h):
        fine, coarse = d.build_grid(domain, h), d.build_grid(domain, 2 * h)
        _, transfers = grid_problem(fine)
        A, own = grid_problem(coarse)
        assert len(transfers) == len(own) + 1 and transfers[0].shape == (fine.n, coarse.n)
        for P, Q in zip(transfers[1:], own):
            assert P.shape == Q.shape
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(P, attr), getattr(Q, attr))
        levels, inverse = es._hierarchy(A, transfers[1:])
        own_levels, own_inverse = es._hierarchy(A, own)
        assert len(levels) == len(own_levels) >= 1
        for level, own_level in zip(levels, own_levels):
            assert all(np.array_equal(getattr(level[0], attr), getattr(own_level[0], attr))
                       for attr in ("data", "indices", "indptr"))
        assert np.array_equal(inverse, own_inverse)

    def test_continued_start_is_the_interpolated_coarse_vectors(self, monkeypatch):
        A, transfers = _grid_problem(geo.Ball(), 1 / 32)
        coarse = es.smallest_pairs(*_grid_problem(geo.Ball(), 1 / 16), tol=1e-3, seed=1)
        starts = []
        orthonormal = es._orthonormal
        monkeypatch.setattr(es, "_orthonormal",
                            lambda Y: starts.append(Y.copy()) or orthonormal(Y))
        es.smallest_pairs(A, transfers, tol=1e-3, coarse=coarse.vectors)
        assert np.array_equal(starts[0], (transfers[0] @ coarse.vectors).T)

    def test_mismatched_transfer_rejected(self):
        A, transfers = _grid_problem(geo.Ball(), 1 / 32)
        other = es.smallest_pairs(A, transfers, tol=1e-3, seed=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            es.smallest_pairs(A, transfers, coarse=other.vectors)


class _CountingMatrix(sp.csr_matrix):
    """CSR matrix that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        if isinstance(other, np.ndarray) and other.ndim == 1:
            type(self).products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("k", [1, 2])
def test_operator_products_per_block_iteration(k, monkeypatch):
    """A is multiplied into the k starting vectors, once into each new
    preconditioned residual W (one per V-cycle, so one per unconverged pair
    and block iteration), and into the k converged vectors by the fresh
    Rayleigh-Ritz that confirms convergence; A X and A P are carried, not
    recomputed.  Each V-cycle adds two products on the finest level:
    2k + 3 V-cycles in all."""
    A, transfers = _grid_problem(geo.Ball(), 1 / 32)
    monkeypatch.setattr(_CountingMatrix, "products", 0)
    res = es.smallest_pairs(_CountingMatrix(A), transfers, k=k, tol=1e-6, seed=1)
    iterations, vcycles = res.iterations[0], sum(res.inner_iterations)
    assert 2 < iterations <= vcycles <= k * iterations
    assert _CountingMatrix.products == 2 * k + 3 * vcycles


def _quotient(A, v):
    """Rayleigh quotient <Av, v> / <v, v>."""
    return float(v @ (A @ v)) / float(v @ v)


class TestRayleighResidual:
    def test_exact_eigenvector(self, disc_op, disc_result):
        A, v = disc_op[0], disc_result.vectors[:, 0]
        q = _quotient(A, v)
        assert q == pytest.approx(disc_result.values[0], rel=1e-10)
        assert np.linalg.norm(A @ v - q * v) / np.linalg.norm(v) <= 1e-7

    def test_min_characterization(self, disc_op, disc_result):
        rng = np.random.default_rng(99)
        lam1 = disc_result.values[0]
        for _ in range(100):
            v = rng.standard_normal(disc_op[0].shape[0])
            q = _quotient(disc_op[0], v)
            assert q >= lam1 * (1.0 - TOL)

    def test_second_value_variational(self, disc_op, disc_result):
        """lambda2 is the smallest quotient over smooth fields orthogonal to
        the first eigenvector: smoothing random vectors twice with A^{-1}
        and deflating v1 must approach it from above, within 5 percent."""
        rng = np.random.default_rng(31)
        lu = spla.splu(disc_op[0].tocsc())
        v1 = disc_result.vectors[:, 0]
        lam2 = disc_result.values[1]
        best = np.inf
        for _ in range(100):
            w = rng.standard_normal(len(v1))
            w = lu.solve(lu.solve(w))
            w -= v1 * (v1 @ w)
            q = _quotient(disc_op[0], w)
            assert q >= lam2 * (1.0 - 5.0 * TOL)
            best = min(best, q)
        assert best <= 1.05 * lam2
