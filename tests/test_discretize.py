import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from spectralgap import discretize as d
from spectralgap import eigensolve as es
from spectralgap import geometry as geo


def square_mode_values(m):
    """Dirichlet eigenvalues of the five-point operator on an m x m interior
    grid with h = 1/(m+1): (4/h^2)(sin^2(i pi h/2) + sin^2(j pi h/2))."""
    h = 1.0 / (m + 1)
    vals = [4.0 / h**2 * (np.sin(i * np.pi * h / 2) ** 2 + np.sin(j * np.pi * h / 2) ** 2)
            for i in range(1, m + 1) for j in range(1, m + 1)]
    return np.sort(vals)


class TestBuildGrid:
    def test_coarse_disc_count(self):
        grid = d.build_grid(geo.Ball(), 0.5)
        assert 5 <= grid.n <= 13

    def test_count_tracks_area(self):
        grid = d.build_grid(geo.Ball(), 0.01)
        assert abs(grid.n * 0.01**2 / np.pi - 1.0) <= 0.02

    def test_empty_grid_raises(self):
        with pytest.raises(d.GridError):
            d.build_grid(geo.Ball(center=(0.26, 0.26), radius=0.2), 0.5)

    def test_nodes_inside_domain(self):
        domain = geo.Dumbbell(0.2)
        grid = d.build_grid(domain, 1 / 16)
        inside = geo.contains(domain, grid.coords())
        assert inside.all()

    def test_lexicographic_order(self):
        grid = d.build_grid(geo.Ball(), 0.25)
        order = [tuple(ij) for ij in grid.active]
        assert order == sorted(order)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            d.build_grid(geo.Ball(dim=3), 0.1)
        with pytest.raises(ValueError):
            d.build_grid(geo.Ball(), -0.1)

    def test_dumbbell_grid_connected(self):
        # junction-disk nodes must couple the two halves
        grid = d.build_grid(geo.Dumbbell(0.1), 1 / 16)
        op = d.assemble(grid)
        n_components, _ = _connected_components(op.matrix)
        assert n_components == 1


def _connected_components(matrix):
    from scipy.sparse.csgraph import connected_components
    return connected_components(matrix, directed=False)


def _coo_assembled(grid):
    """The five-point matrix built the straightforward way, from COO
    triplets, as a reference for the direct CSR assembly."""
    n = grid.n
    h2 = grid.h * grid.h
    li = grid.active[:, 0] - grid.i0
    lj = grid.active[:, 1] - grid.j0
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0 / h2)]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        neighbor = grid.index_map[li + di, lj + dj]
        ok = neighbor >= 0
        rows.append(np.arange(n)[ok])
        cols.append(neighbor[ok])
        vals.append(np.full(int(ok.sum()), -1.0 / h2))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


class TestAssemble:
    @pytest.mark.parametrize("domain, h", [
        (geo.Ball(), 1 / 16), (geo.Dumbbell(0.2), 1 / 16), (geo.two_balls(), 1 / 16),
        (geo.Rectangle(2.0, 1.0), 1 / 16), (geo.Ball(), 0.03), (geo.HalfDumbbell(0.2), 1 / 16),
    ], ids=["domain0", "domain1", "domain2", "domain3", "disc-0.03", "half_dumbbell"])
    def test_csr_equals_coo_build(self, domain, h):
        grid = d.build_grid(domain, h)
        op = d.assemble(grid)
        A, ref = op.matrix, _coo_assembled(grid)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        rows = np.repeat(np.arange(op.n), np.diff(A.indptr))
        assert (np.diff(rows * op.n + A.indices) > 0).all()  # sorted within rows
        assert np.array_equal(op.nodes, grid.active)

    def test_single_node(self):
        grid = d.build_grid(geo.Ball(radius=0.2), 0.5)
        assert grid.n == 1
        op = d.assemble(grid)
        assert op.matrix.toarray() == pytest.approx(np.array([[4.0 / 0.25]]))

    def test_two_adjacent_nodes(self):
        grid = d.build_grid(geo.Ball(center=(0.25, 0.0), radius=0.3), 0.5)
        assert grid.n == 2
        h2 = 0.25
        expected = np.array([[4.0 / h2, -1.0 / h2], [-1.0 / h2, 4.0 / h2]])
        assert d.assemble(grid).matrix.toarray() == pytest.approx(expected)

    def test_unit_square_spectrum(self):
        m = 7
        grid = d.build_grid(geo.Rectangle(1.0, 1.0), 1.0 / (m + 1))
        assert grid.n == m * m
        op = d.assemble(grid)
        vals = np.sort(scipy.linalg.eigvalsh(op.matrix.toarray()))
        assert vals == pytest.approx(square_mode_values(m), rel=1e-10)

    def test_symmetric_and_stencil_values(self):
        grid = d.build_grid(geo.Dumbbell(0.15), 1 / 16)
        A = d.assemble(grid).matrix
        assert (A - A.T).nnz == 0
        h2 = (1 / 16) ** 2
        assert np.allclose(A.diagonal(), 4.0 / h2)
        off = A.tocoo()
        mask = off.row != off.col
        assert np.allclose(off.data[mask], -1.0 / h2)
        rng = np.random.default_rng(4)
        n = A.shape[0]
        for _ in range(1000):
            i, j = rng.integers(0, n, size=2)
            assert A[i, j] == A[j, i]

    def test_positive_definite(self):
        for domain in (geo.Ball(), geo.Dumbbell(0.2), geo.Rectangle(2.0, 1.0)):
            op = d.assemble(d.build_grid(domain, 1 / 8))
            assert np.min(scipy.linalg.eigvalsh(op.matrix.toarray())) > 0.0

    def test_two_balls_block_diagonal(self):
        grid = d.build_grid(geo.two_balls(), 1 / 16)
        A = d.assemble(grid).matrix
        left = grid.coords()[:, 0] < 0
        n_left = int(left.sum())
        # lexicographic ordering puts the left ball first
        assert left[:n_left].all() and not left[n_left:].any()
        assert abs(A[:n_left, n_left:]).sum() == 0.0
        block_l = A[:n_left, :n_left].toarray()
        block_r = A[n_left:, n_left:].toarray()
        assert block_l == pytest.approx(block_r)


def _csr_prolong(nodes):
    """The interpolation built row by row, as a reference for the direct
    column build: each node's parents from a map of the coarse nodes, in
    lexicographic order, give the CSR rows, converted to CSC at the end."""
    n, dim = nodes.shape
    coarse = nodes[~(nodes & 1).any(axis=1)] >> 1
    if len(coarse) == 0:
        return coarse, sp.csc_matrix((n, 0))
    low = coarse.min(axis=0)
    rows = np.full(coarse.max(axis=0) - low + 3, -1, dtype=np.int32)
    rows[tuple((coarse - low + 1).T)] = np.arange(len(coarse))
    cols = np.empty((2**dim, n), dtype=np.int32)
    for col, step in zip(cols, itertools.product((0, 1), repeat=dim)):
        index = []
        for lattice, lo, s, size in zip(nodes.T, low, step, rows.shape):
            i = (lattice >> 1) + (s + 1 - lo)
            if s:  # a step along an even index would repeat a parent
                i[(lattice & 1) == 0] = 0
            index.append(np.clip(i, 0, size - 1, out=i))
        col[:] = rows[tuple(index)]
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=0), out=indptr[1:])
    data = np.repeat(np.ldexp(1.0, -(nodes & 1).sum(axis=1)), np.diff(indptr))
    P = sp.csr_matrix((data, cols.T[keep.T], indptr), shape=(n, len(coarse)))
    return coarse, P.tocsc()


def _assert_prolong_matches_csr_build(nodes):
    """prolong(nodes) equals the reference array for array, dtypes included;
    returns the coarse nodes."""
    coarse, P = d.prolong(nodes)
    want_coarse, want = _csr_prolong(nodes)
    assert coarse.dtype == want_coarse.dtype and coarse.shape == want_coarse.shape
    assert np.array_equal(coarse, want_coarse)
    assert P.format == "csc" and P.shape == want.shape
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(P, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert P.has_sorted_indices
    return coarse


class TestProlong:
    """Coarse nodes and bilinear interpolation from the grid of twice the
    spacing."""

    @pytest.mark.parametrize("domain, h", [
        (geo.Ball(), 1 / 32), (geo.Ball(), 1 / 64), (geo.Ball(), 1 / 128),
        (geo.Dumbbell(0.2), 1 / 64), (geo.two_balls(), 1 / 32), (geo.HalfDumbbell(0.2), 1 / 64),
        (geo.Ellipse(1.5, 0.7), 0.02), (geo.Ball(), 0.03),
    ])
    def test_equals_csr_build_on_every_level(self, domain, h):
        nodes = d.build_grid(domain, h).active
        levels = 0
        while len(nodes) > 1:
            nodes = _assert_prolong_matches_csr_build(nodes)
            levels += 1
        assert levels >= 4

    @pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 32), (geo.Dumbbell(0.2), 1 / 16)])
    def test_equals_csr_build_on_shuffled_nodes(self, domain, h):
        nodes = d.build_grid(domain, h).active
        shuffled = nodes[np.random.default_rng(3).permutation(len(nodes))]
        _assert_prolong_matches_csr_build(shuffled)
        _assert_prolong_matches_csr_build(shuffled[:, ::-1])

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
    def test_equals_csr_build_on_a_1d_lattice(self, n):
        nodes = np.arange(n)[:, None]  # the lattice of a bare matrix
        while len(nodes) > 1:
            nodes = _assert_prolong_matches_csr_build(nodes)
        _assert_prolong_matches_csr_build(nodes)  # the one node 0 is its own parent
        _assert_prolong_matches_csr_build(np.arange(-n, 2 * n, 3)[:, None])

    def test_equals_csr_build_on_a_3d_lattice(self):
        cube = np.array(list(itertools.product(range(-3, 6), repeat=3)))
        nodes = cube[np.random.default_rng(5).random(len(cube)) < 0.7]
        _assert_prolong_matches_csr_build(nodes)

    @staticmethod
    def _bilinear(xy):
        x, y = xy.T
        return 1.0 + 2.0 * x - 3.0 * y + 0.5 * x * y

    def test_exact_for_bilinear_fields(self):
        coarse = d.build_grid(geo.Ellipse(1.5, 1.0), 1 / 8)
        fine = d.build_grid(geo.Ellipse(1.5, 1.0), 1 / 16)
        nodes, P = d.prolong(fine.active)
        assert np.array_equal(nodes, coarse.active)
        f = self._bilinear
        values = P @ np.column_stack([f(coarse.coords()), -f(coarse.coords())])
        assert values.shape == (fine.n, 2)
        # parents: the coarse nodes at floor and ceil of half the lattice index
        half = fine.active / 2.0
        corners = [np.column_stack([lo(half[:, 0]), hi(half[:, 1])]).astype(int)
                   for lo in (np.floor, np.ceil) for hi in (np.floor, np.ceil)]
        active = np.all([coarse.index_map[c[:, 0] - coarse.i0, c[:, 1] - coarse.j0] >= 0
                         for c in corners], axis=0)
        assert active.sum() > fine.n // 2
        exact = f(fine.coords()[active])
        assert values[active, 0] == pytest.approx(exact, rel=1e-14, abs=1e-14)
        assert np.array_equal(values[:, 1], -values[:, 0])
        # a missing parent counts as zero: boundary values fall short of the field
        ones = P @ np.ones(coarse.n)
        assert (ones[active] == 1.0).all() and (ones[~active] < 1.0).all()

    def test_even_nodes_copy_their_coarse_node(self):
        coarse = d.build_grid(geo.Dumbbell(0.2), 1 / 8)
        fine = d.build_grid(geo.Dumbbell(0.2), 1 / 16)
        nodes, P = d.prolong(fine.active)
        vec = np.arange(1.0, len(nodes) + 1.0)
        values = P @ vec
        even = ~(fine.active % 2).any(axis=1)
        rows = coarse.index_map[fine.active[even, 0] // 2 - coarse.i0,
                                fine.active[even, 1] // 2 - coarse.j0]
        assert np.array_equal(values[even][rows >= 0], vec[rows[rows >= 0]])
        assert (values[even][rows < 0] == 0.0).all()

    @pytest.mark.parametrize("domain", [geo.Ball(), geo.Dumbbell(0.2), geo.two_balls(),
                                        geo.Scaled(1.0, geo.Dumbbell(0.2))])
    def test_coarse_nodes_are_the_grid_of_twice_the_spacing(self, domain):
        for h in (1 / 8, 1 / 16, 1 / 32):
            nodes, P = d.prolong(d.build_grid(domain, h).active)
            assert np.array_equal(nodes, d.build_grid(domain, 2 * h).active)
            assert P.indices.dtype == P.indptr.dtype == np.int32

    def test_needs_half_the_spacing(self):
        fine = d.build_grid(geo.Ball(), 1 / 32)
        nodes, P = d.prolong(fine.active)
        assert P.shape == (fine.n, d.build_grid(geo.Ball(), 1 / 16).n)
        assert np.array_equal(d.prolong(nodes)[0], d.build_grid(geo.Ball(), 1 / 8).active)
        # a continuation must start from the grid of twice the spacing, not four times
        far = es.smallest_pairs(d.assemble(d.build_grid(geo.Ball(), 1 / 8)), tol=1e-3, seed=1)
        with pytest.raises(ValueError, match=f"to {P.shape[1]} nodes"):
            es.smallest_pairs(d.assemble(fine), coarse=far)

    def test_no_even_node_gives_no_coarse_node(self):
        odd = np.array([[1, 1], [1, 3], [3, 2]])
        nodes, P = d.prolong(odd)
        assert nodes.shape == (0, 2) and P.shape == (3, 0)
        _assert_prolong_matches_csr_build(odd)


class TestExtrapolate:
    def test_equal_values_fixed_point(self):
        assert d.extrapolate(3.7, 3.7, order=2.0) == 3.7

    def test_exact_power_law(self):
        lam_star, c = 5.0, 2.3
        vals = [lam_star + c * h**2 for h in (0.1, 0.05, 0.025)]
        res = d.extrapolate_three(*vals)
        assert res.value == pytest.approx(lam_star, abs=1e-12)
        assert res.order == pytest.approx(2.0, abs=1e-9)
        assert res.monotone

    def test_fit_order_fractional(self):
        vals = [1.0 + 0.5 * h**1.3 for h in (0.2, 0.1, 0.05)]
        assert d.fit_order(*vals) == pytest.approx(1.3, abs=1e-9)

    def test_non_monotone_flagged(self):
        res = d.extrapolate_three(1.0, 1.2, 1.1)
        assert not res.monotone
        assert res.value == 1.1  # falls back to the finest value

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            d.extrapolate(1.0, 2.0, order=0.0)


class TestDiscMonotonicity:
    def test_disc_lambda1_monotone_under_refinement(self):
        from spectralgap.eigensolve import smallest_pairs
        vals = []
        for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
            op = d.assemble(d.build_grid(geo.Ball(), h))
            vals.append(smallest_pairs(op, k=1, tol=1e-8).values[0])
        diffs = np.diff(vals)
        assert (diffs > 0).all() or (diffs < 0).all()
