import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from spectralgap import discretize as d
from spectralgap import eigensolve as es
from spectralgap import geometry as geo

from conftest import assert_same_grid, grid_problem, row_lattice


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
        inside = geo.contains(domain, grid.active * grid.h)
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

    @pytest.mark.parametrize("height, points", [(1e9, 112000000035), (1.95e7, 2184000035),
                                                (1.9e7, None)])
    def test_box_beyond_int32_refused_before_allocating(self, height, points, monkeypatch):
        """A box of more lattice points than int32 node indices reach is
        refused, with its point count and spacing, before any lattice array
        is made; one under the limit goes on to make them."""
        def allocate(*args, **kwargs):
            raise MemoryError("lattice allocated")

        monkeypatch.setattr(np, "arange", allocate)
        if points is None:
            context = pytest.raises(MemoryError, match="lattice allocated")
        else:
            context = pytest.raises(d.GridError, match=f"^{points} lattice points of spacing "
                                                       f"0.0625 in the box ")
        with context:
            d.build_grid(geo.Rectangle(1e-9, height), 1 / 16)

    def test_dumbbell_grid_connected(self):
        # junction-disk nodes must couple the two halves
        grid = d.build_grid(geo.Dumbbell(0.1), 1 / 16)
        n_components, _ = _connected_components(d.assemble(grid))
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
        A, ref = d.assemble(grid), _coo_assembled(grid)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        rows = np.repeat(np.arange(grid.n), np.diff(A.indptr))
        assert (np.diff(rows * grid.n + A.indices) > 0).all()  # sorted within rows

    def test_single_node(self):
        grid = d.build_grid(geo.Ball(radius=0.2), 0.5)
        assert grid.n == 1
        assert d.assemble(grid).toarray() == pytest.approx(np.array([[4.0 / 0.25]]))

    def test_two_adjacent_nodes(self):
        grid = d.build_grid(geo.Ball(center=(0.25, 0.0), radius=0.3), 0.5)
        assert grid.n == 2
        h2 = 0.25
        expected = np.array([[4.0 / h2, -1.0 / h2], [-1.0 / h2, 4.0 / h2]])
        assert d.assemble(grid).toarray() == pytest.approx(expected)

    def test_unit_square_spectrum(self):
        m = 7
        grid = d.build_grid(geo.Rectangle(1.0, 1.0), 1.0 / (m + 1))
        assert grid.n == m * m
        vals = np.sort(scipy.linalg.eigvalsh(d.assemble(grid).toarray()))
        assert vals == pytest.approx(square_mode_values(m), rel=1e-10)

    def test_symmetric_and_stencil_values(self):
        grid = d.build_grid(geo.Dumbbell(0.15), 1 / 16)
        A = d.assemble(grid)
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
            A = d.assemble(d.build_grid(domain, 1 / 8))
            assert np.min(scipy.linalg.eigvalsh(A.toarray())) > 0.0

    def test_two_balls_block_diagonal(self):
        grid = d.build_grid(geo.two_balls(), 1 / 16)
        A = d.assemble(grid)
        left = grid.active[:, 0] * grid.h < 0
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


def _assert_prolong_matches_csr_build(grid):
    """prolong(grid) equals the reference on the grid's nodes array for
    array, dtypes included, its coarse grid being the one ``lattice_grid``
    makes of the reference's coarse nodes; returns the coarse grid."""
    coarse, P = d.prolong(grid)
    want_coarse, want = _csr_prolong(grid.active)
    if len(want_coarse) == 0:
        assert coarse is None
    else:
        assert_same_grid(coarse, d.lattice_grid(2 * grid.h, want_coarse))
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
        grid = d.build_grid(domain, h)
        levels = 0
        while grid is not None and grid.n > 1:
            grid = _assert_prolong_matches_csr_build(grid)
            levels += 1
        assert levels >= 4

    @pytest.mark.parametrize("domain, h", [(geo.Ball(), 1 / 32), (geo.Dumbbell(0.2), 1 / 16)])
    def test_equals_csr_build_on_shuffled_nodes(self, domain, h):
        nodes = d.build_grid(domain, h).active
        shuffled = nodes[np.random.default_rng(3).permutation(len(nodes))]
        _assert_prolong_matches_csr_build(d.lattice_grid(h, shuffled))
        _assert_prolong_matches_csr_build(d.lattice_grid(h, shuffled[:, ::-1]))

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
    def test_equals_csr_build_on_a_1d_lattice(self, n):
        grid = row_lattice(np.arange(n))  # the 1-d lattice of a bare matrix, as row (i, 0)
        while grid.n > 1:
            grid = _assert_prolong_matches_csr_build(grid)
        _assert_prolong_matches_csr_build(grid)  # the one node 0 is its own parent
        _assert_prolong_matches_csr_build(row_lattice(np.arange(-n, 2 * n, 3)))

    @staticmethod
    def _bilinear(xy):
        x, y = xy.T
        return 1.0 + 2.0 * x - 3.0 * y + 0.5 * x * y

    def test_exact_for_bilinear_fields(self):
        coarse = d.build_grid(geo.Ellipse(1.5, 1.0), 1 / 8)
        fine = d.build_grid(geo.Ellipse(1.5, 1.0), 1 / 16)
        grid, P = d.prolong(fine)
        assert_same_grid(grid, coarse)
        f = self._bilinear
        xy = coarse.active * coarse.h
        values = P @ np.column_stack([f(xy), -f(xy)])
        assert values.shape == (fine.n, 2)
        # parents: the coarse nodes at floor and ceil of half the lattice index
        half = fine.active / 2.0
        corners = [np.column_stack([lo(half[:, 0]), hi(half[:, 1])]).astype(int)
                   for lo in (np.floor, np.ceil) for hi in (np.floor, np.ceil)]
        active = np.all([coarse.index_map[c[:, 0] - coarse.i0, c[:, 1] - coarse.j0] >= 0
                         for c in corners], axis=0)
        assert active.sum() > fine.n // 2
        exact = f(fine.active[active] * fine.h)
        assert values[active, 0] == pytest.approx(exact, rel=1e-14, abs=1e-14)
        assert np.array_equal(values[:, 1], -values[:, 0])
        # a missing parent counts as zero: boundary values fall short of the field
        ones = P @ np.ones(coarse.n)
        assert (ones[active] == 1.0).all() and (ones[~active] < 1.0).all()

    def test_even_nodes_copy_their_coarse_node(self):
        coarse = d.build_grid(geo.Dumbbell(0.2), 1 / 8)
        fine = d.build_grid(geo.Dumbbell(0.2), 1 / 16)
        grid, P = d.prolong(fine)
        vec = np.arange(1.0, grid.n + 1.0)
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
            grid, P = d.prolong(d.build_grid(domain, h))
            assert_same_grid(grid, d.build_grid(domain, 2 * h))
            assert P.indices.dtype == P.indptr.dtype == np.int32

    def test_needs_half_the_spacing(self):
        fine = d.build_grid(geo.Ball(), 1 / 32)
        grid, P = d.prolong(fine)
        assert P.shape == (fine.n, d.build_grid(geo.Ball(), 1 / 16).n)
        assert_same_grid(d.prolong(grid)[0], d.build_grid(geo.Ball(), 1 / 8))
        # a continuation must start from the grid of twice the spacing, not four times
        far = es.smallest_pairs(*grid_problem(d.build_grid(geo.Ball(), 1 / 8)), tol=1e-3, seed=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            es.smallest_pairs(*grid_problem(fine), coarse=far.vectors)

    def test_no_even_node_gives_no_coarse_node(self):
        odd = d.lattice_grid(1.0, np.array([[1, 1], [1, 3], [3, 2]]))
        grid, P = d.prolong(odd)
        assert grid is None and P.shape == (3, 0)
        _assert_prolong_matches_csr_build(odd)


POWER_2 = [5.0 + 2.3 * h**2 for h in (0.1, 0.05, 0.025)]
POWER_13 = [1.0 + 0.5 * h**1.3 for h in (0.2, 0.1, 0.05)]


# level values coarse to fine -> value, order, fitted, and the correction
# that the budget adds to tol * |value|
@pytest.mark.parametrize("values, value, order, fitted, correction", [
    pytest.param(POWER_2, 5.0, 2.0, True, 2.3 * 0.025**2, id="power_law_order_2"),
    pytest.param(POWER_13, 1.0, 1.3, True, 0.5 * 0.05**1.3, id="power_law_order_1.3"),
    # turns back on the finest level: the finest value, budgeted by the last change
    pytest.param((1.0, 1.2, 1.1), 1.1, None, False, 0.1, id="non_monotone"),
    # raw lambda1 of Dumbbell(0.3) at h = 1/64, 1/128, 1/256 fits order 0.03,
    # where 1 / (2^p - 1) would add 0.85 to the finest value
    pytest.param((4.0860, 4.1028, 4.1193), 4.1193, 0.026, False, 0.0165,
                 id="dumbbell_0.3_order_below_band"),
    pytest.param((3.7, 3.7, 3.7), 3.7, None, True, 0.0, id="three_equal"),
    # an assumed order 1 is not a fitted one: the correction is at least the change
    pytest.param((5.0, 5.1), 5.2, 1.0, False, 0.1, id="two_levels"),
    pytest.param((-1.0, *POWER_2), 5.0, 2.0, True, 2.3 * 0.025**2, id="four_levels_last_three"),
])
def test_extrapolate(values, value, order, fitted, correction):
    tol = 1e-6
    fit = d.extrapolate(values, tol)
    assert fit.value == pytest.approx(value, abs=1e-12)
    assert fit.order is None if order is None else fit.order == pytest.approx(order, abs=1e-4)
    assert fit.fitted is fitted
    assert fit.error_est == pytest.approx(correction + tol * abs(value), rel=1e-9)


def test_extrapolate_refuses_one_level():
    with pytest.raises(ValueError, match="at least two grid levels"):
        d.extrapolate([5.0], 1e-6)


class TestExtrapolate:
    def test_non_monotone_flagged(self):
        fit = d.extrapolate((1.0, 1.2, 1.1), 1e-6)
        assert not fit.fitted
        assert fit.value == 1.1  # falls back to the finest value


class TestDiscMonotonicity:
    def test_disc_lambda1_monotone_under_refinement(self):
        from spectralgap.eigensolve import smallest_pairs
        vals = []
        for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
            problem = grid_problem(d.build_grid(geo.Ball(), h))
            vals.append(smallest_pairs(*problem, k=1, tol=1e-8).values[0])
        diffs = np.diff(vals)
        assert (diffs > 0).all() or (diffs < 0).all()
