import math
import tracemalloc
import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from spectralgap import geometry as geo
from spectralgap import testfn as tf
from spectralgap.analytic import ball_spectrum
from spectralgap.attainable import DEFAULT_EPS_GRID
from spectralgap.geometry import junction_radius
from spectralgap.pipeline import solve_domain

from conftest import (
    assert_odd_reflection, ball_ground_state_field, grid_problem, mirror_correlation,
)
from oracle import Lemma1Function, Lemma2Function, bound_components, rayleigh_quotient

LAM1_DISC = 5.783185962946785


def sample_dumbbell_points(eps, n, rng, half=False):
    """Rejection-sample interior points of the (half) dumbbell."""
    lo = np.array([0.0 if half else -(2.0 - eps), -1.0])
    hi = np.array([2.0 - eps, 1.0])
    domain = geo.HalfDumbbell(eps) if half else geo.Dumbbell(eps)
    pts = []
    while len(pts) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, 2))
        keep = geo.contains(domain, cand)
        pts.extend(cand[keep])
    return np.array(pts[:n])


class TestLemma1Function:
    def test_continuity_across_cone_surface(self):
        eps = 0.1
        f = Lemma1Function(eps)
        a = junction_radius(eps)
        rng = np.random.default_rng(5)
        x1 = rng.uniform(1e-6, a - 1e-6, size=200)
        pts = np.column_stack([x1, a - x1])  # on the surface, x' > 0 side
        vals, _ = f.field(pts)
        # pure ball branch at the same points
        r = np.sqrt((x1 - (1.0 - eps)) ** 2 + (a - x1) ** 2)
        from spectralgap.analytic import radial_profile
        u = radial_profile(2)[0](np.minimum(r, 1.0))
        assert np.max(np.abs(vals - u)) <= 1e-10

    def test_dominates_ball_state(self):
        eps = 0.1
        f = Lemma1Function(eps)
        rng = np.random.default_rng(6)
        pts = sample_dumbbell_points(eps, 1000, rng, half=True)
        vals, _ = f.field(pts)
        r = np.sqrt((pts[:, 0] - (1.0 - eps)) ** 2 + pts[:, 1] ** 2)
        from spectralgap.analytic import radial_profile
        u = radial_profile(2)[0](np.minimum(r, 1.0))
        assert (vals >= u - 1e-14).all()

    def test_even_symmetry(self):
        eps = 0.15
        f = Lemma1Function(eps)
        rng = np.random.default_rng(7)
        pts = sample_dumbbell_points(eps, 500, rng, half=True)
        vals_p, grads_p = f.field(pts)
        mirrored = pts * np.array([-1.0, 1.0])
        vals_m, grads_m = f.field(mirrored)
        assert np.array_equal(vals_p, vals_m)
        assert np.array_equal(grads_p[:, 1], grads_m[:, 1])
        assert np.array_equal(grads_p[:, 0], -grads_m[:, 0])

    def test_center_is_flat_maximum(self):
        eps = 0.1
        vals, grads = Lemma1Function(eps).field(np.array([1.0 - eps, 0.0])[None])
        assert vals[0] == pytest.approx(ball_spectrum(2).norm_const, rel=1e-12)
        assert np.abs(grads[0]).max() == 0.0

    def test_gradient_near_junction(self):
        # close to the junction the corrected gradient approaches
        # (kappa/2, -kappa/2 sign(x')), up to O(sqrt(eps))
        eps = 0.05
        kappa = ball_spectrum(2).kappa
        _, grads = Lemma1Function(eps).field(np.array([1e-3, 1e-3])[None])
        target = np.array([0.5 * kappa, -0.5 * kappa])
        assert np.linalg.norm(grads[0] - target) <= kappa * math.sqrt(eps)

    def test_axis_gradient_direction_independent(self):
        # on the cone axis the corrector direction is a convention; the
        # squared gradient must match its limit from either side
        f = Lemma1Function(0.1)
        _, grads = f.field(np.array([[0.1, 0.0], [0.1, 1e-9], [0.1, -1e-9]]))
        sq = np.sum(grads * grads, axis=1)
        assert sq[1:] == pytest.approx(np.full(2, sq[0]), rel=1e-8)

    def test_outside_domain_rejected(self):
        f = Lemma1Function(0.1)
        with pytest.raises(ValueError):
            f.field(np.array([2.5, 0.0])[None])

    def test_gradient_matches_finite_differences(self):
        eps = 0.1
        f = Lemma1Function(eps)
        a = junction_radius(eps)
        rng = np.random.default_rng(8)
        pts = sample_dumbbell_points(eps, 3000, rng)
        # exclusions: junction plane, cone surface, cone axis, outer boundary
        x1, x2 = np.abs(pts[:, 0]), pts[:, 1]
        r = np.sqrt((x1 - (1.0 - eps)) ** 2 + x2**2)
        keep = (
            (np.abs(pts[:, 0]) > 1e-3)
            & (np.abs(a - x1 - np.abs(x2)) > 1e-4)
            & (np.abs(x2) > 1e-4)
            & (r < 1.0 - 1e-3)
        )
        pts = pts[keep][:500]
        assert len(pts) == 500
        _, grads = f.field(pts)
        step = 1e-6
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = step
            fd = (f.field(pts + shift)[0] - f.field(pts - shift)[0]) / (2 * step)
            denom = np.maximum(np.abs(grads[:, axis]), 1e-3)
            assert np.max(np.abs(fd - grads[:, axis]) / denom) <= 1e-5


class TestLemma2Function:
    def test_cutoff_properties(self):
        eps = 0.1
        f = Lemma2Function(eps)
        rng = np.random.default_rng(9)
        x1 = rng.uniform(-0.1, 2.0, size=2000)
        xi = f.cutoff(x1)
        assert ((0.0 <= xi) & (xi <= 1.0)).all()
        assert (f.cutoff(np.array([eps, 0.5, 1.0])) == 1.0).all()
        assert f.cutoff(0.0) == 0.0
        assert (np.abs(f.cutoff_gradient(x1)) <= 1.0 / eps).all()

    def test_vanishes_on_junction_disk(self):
        eps = 0.1
        f = Lemma2Function(eps)
        a = junction_radius(eps)
        pts = np.column_stack([np.zeros(50), np.linspace(-0.9 * a, 0.9 * a, 50)])
        vals, _ = f.field(pts)
        assert np.max(np.abs(vals)) == 0.0

    def test_gradient_matches_finite_differences(self):
        eps = 0.1
        f = Lemma2Function(eps)
        rng = np.random.default_rng(10)
        pts = sample_dumbbell_points(eps, 3000, rng, half=True)
        x1, x2 = pts[:, 0], pts[:, 1]
        r = np.sqrt((x1 - (1.0 - eps)) ** 2 + x2**2)
        keep = (x1 > 1e-3) & (np.abs(x1 - eps) > 1e-4) & (r < 1.0 - 1e-3)
        pts = pts[keep][:500]
        assert len(pts) == 500
        _, grads = f.field(pts)
        step = 1e-6
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = step
            fd = (f.field(pts + shift)[0] - f.field(pts - shift)[0]) / (2 * step)
            denom = np.maximum(np.abs(grads[:, axis]), 1e-3)
            assert np.max(np.abs(fd - grads[:, axis]) / denom) <= 1e-5


class TestLemma1Rayleigh:
    def test_dips_below_ball_value(self):
        bound = tf.lemma1_rayleigh(0.1)
        assert bound.quotient < LAM1_DISC
        assert bound.deficit > 0
        assert bound.quotient == pytest.approx(LAM1_DISC - bound.deficit, rel=1e-12)

    def test_matches_generic_chart_quadrature(self):
        eps = 0.1
        bound = tf.lemma1_rayleigh(eps)
        field = Lemma1Function(eps).field
        quotient, rel_err = rayleigh_quotient(geo.Dumbbell(eps), field, rel_tol=1e-7)
        assert quotient == pytest.approx(bound.quotient, rel=1e-6)
        assert rel_err < 1e-5

    def test_rate_smoke(self):
        eps = [0.02, 0.04, 0.08]
        defs = [tf.lemma1_rayleigh(e).deficit for e in eps]
        slope = np.polyfit(np.log(eps), np.log(defs), 1)[0]
        assert 0.8 <= slope <= 1.25

    def test_deficit_over_rate_bounded(self):
        kappa2 = ball_spectrum(2).kappa ** 2
        for e in (0.005, 0.02, 0.08):
            ratio = tf.lemma1_rayleigh(e).deficit / (kappa2 * e)
            assert 1.0 <= ratio <= 2.0

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            tf.lemma1_rayleigh(0.0)
        with pytest.raises(ValueError):
            tf.lemma1_rayleigh(0.35)

    def test_3d(self):
        bound = tf.lemma1_rayleigh(0.05, dim=3)
        assert bound.quotient < ball_spectrum(3).lambda1
        # leading order C_N kappa^2 eps^{3/2} with C_3 = (pi/3) sqrt(2)
        lead = (math.pi / 3.0) * math.sqrt(2.0) * ball_spectrum(3).kappa ** 2 * 0.05**1.5
        assert lead <= bound.deficit <= 2.5 * lead


class TestLemma2Rayleigh:
    def test_excess_positive(self):
        bound = tf.lemma2_rayleigh(0.1)
        assert bound.excess > 0
        assert bound.quotient == pytest.approx(LAM1_DISC + bound.excess, rel=1e-12)

    def test_rate_smoke(self):
        eps = [0.02, 0.04, 0.08]
        exc = [tf.lemma2_rayleigh(e).excess for e in eps]
        slope = np.polyfit(np.log(eps), np.log(exc), 1)[0]
        assert 1.3 <= slope <= 1.7

    def test_matches_generic_chart_quadrature(self):
        eps = 0.1
        bound = tf.lemma2_rayleigh(eps)
        field = Lemma2Function(eps).field
        quotient, rel_err = rayleigh_quotient(geo.HalfDumbbell(eps), field, rel_tol=1e-7)
        assert quotient == pytest.approx(bound.quotient, rel=1e-6)

    def test_3d(self):
        bound = tf.lemma2_rayleigh(0.05, dim=3)
        assert 0 < bound.excess < 1.0


class TestRayleighQuotient:
    def test_exact_ground_state_gives_lambda1(self):
        quotient, rel_err = rayleigh_quotient(geo.Ball(), ball_ground_state_field())
        assert quotient == pytest.approx(LAM1_DISC, rel=1e-8)
        assert rel_err <= 1e-7

    def test_homogeneity(self):
        q1, _ = rayleigh_quotient(geo.Ball(), ball_ground_state_field())
        q2, _ = rayleigh_quotient(geo.Ball(), ball_ground_state_field(scale=3.7))
        assert q2 == pytest.approx(q1, rel=5e-13)

    def test_interpolated_discrete_eigenvector(self):
        from spectralgap import discretize as d, eigensolve as es
        h = 1 / 16
        grid = d.build_grid(geo.Ball(), h)
        res = es.smallest_pairs(*grid_problem(grid), k=1, tol=1e-8)
        vec = res.vectors[:, 0]
        imap = grid.index_map
        ni, nj = imap.shape

        def field(pts):
            pts = np.atleast_2d(pts)
            gi = pts[:, 0] / h - grid.i0
            gj = pts[:, 1] / h - grid.j0
            i0 = np.clip(np.floor(gi).astype(int), 0, ni - 2)
            j0 = np.clip(np.floor(gj).astype(int), 0, nj - 2)
            fx = gi - i0
            fy = gj - j0

            def node(ii, jj):
                idx = imap[ii, jj]
                out = np.zeros(len(idx))
                ok = idx >= 0
                out[ok] = vec[idx[ok]]
                return out

            v00, v10 = node(i0, j0), node(i0 + 1, j0)
            v01, v11 = node(i0, j0 + 1), node(i0 + 1, j0 + 1)
            vals = ((1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10
                    + (1 - fx) * fy * v01 + fx * fy * v11)
            gx = ((1 - fy) * (v10 - v00) + fy * (v11 - v01)) / h
            gy = ((1 - fx) * (v01 - v00) + fx * (v11 - v10)) / h
            return vals, np.column_stack([gx, gy])

        quotient, _ = rayleigh_quotient(geo.Ball(), field, rel_tol=1e-3, max_panels=20000)
        # the interpolant spills at most h past the disc, so compare against
        # the slightly inflated ball
        assert quotient >= LAM1_DISC * (1.0 - 2.0 * h) - 0.05

    def test_zero_denominator(self):
        def null_field(pts):
            pts = np.atleast_2d(pts)
            return np.zeros(len(pts)), np.zeros_like(pts)

        with pytest.raises(ValueError):
            rayleigh_quotient(geo.Ball(), null_field)


class TestOddExtension:
    H = (1 / 8, 1 / 16, 1 / 32)

    @pytest.fixture(scope="class")
    def pair(self):
        return (solve_domain(geo.Dumbbell(0.2), self.H, tol=1e-6),
                solve_domain(geo.HalfDumbbell(0.2), self.H, tol=1e-6, k=1))

    def test_cheap_dumbbell(self, pair):
        dumbbell, half = pair
        assert_odd_reflection(dumbbell, half)
        budget = dumbbell.error_est_raw[1] + half.error_est_raw[0]
        assert abs(half.lambda_x[0] - dumbbell.lambda_x[1]) <= budget

    @pytest.mark.parametrize("budgets, holds", [(1.9, True), (2.1, False)])
    def test_lambda2_within_twice_the_summed_budgets(self, pair, budgets, holds):
        dumbbell, half = pair
        budget = dumbbell.error_est_raw[1] + half.error_est_raw[0]
        lam = dumbbell.lambda_x.copy()
        lam[1] = half.lambda_x[0] + budgets * budget
        with nullcontext() if holds else pytest.raises(AssertionError, match="odd reflection"):
            assert_odd_reflection(replace(dumbbell, lambda_x=lam), half)

    @pytest.mark.parametrize("target, holds", [(0.995, True), (0.985, False), (-1.0, False)])
    def test_second_mode_must_be_odd(self, pair, target, holds):
        # cos(phi) v2 + sin(phi) v1 mixes the odd mode with the even ground
        # state; its mirror correlation is about cos(2 phi)
        dumbbell, half = pair
        phi = 0.5 * math.acos(target)
        finest = dumbbell.levels[-1]
        vectors = finest.vectors.copy()
        vectors[:, 1] = math.cos(phi) * vectors[:, 1] + math.sin(phi) * vectors[:, 0]
        mixed = replace(dumbbell, levels=(*dumbbell.levels[:-1], replace(finest, vectors=vectors)))
        assert mirror_correlation(mixed) == pytest.approx(target, abs=2e-3)
        with nullcontext() if holds else pytest.raises(AssertionError, match="symmetry"):
            assert_odd_reflection(mixed, half)

    def test_two_balls_limit(self):
        # fully separated components: the two smallest values coincide
        from spectralgap import discretize as d, eigensolve as es
        problem = grid_problem(d.build_grid(geo.two_balls(), 1 / 16))
        tol = 1e-8
        res = es.smallest_pairs(*problem, tol=tol)
        assert abs(res.values[1] - res.values[0]) <= 5 * tol * res.values[0]


# (lemma1 quotient, lemma1 error_est, lemma2 quotient, lemma2 error_est) as
# the bounds path computed them with U evaluated together with U'; every
# estimate but lemma2's at (3, 0.08) is the floor 2 * ZERO_RTOL * lambda_1(ball)
PINNED_BOUNDS = {
    (2, 0.001): (5.781231982520764, 1.1566371925893578e-13,
                 5.78344492439945, 1.1566371925893578e-13),
    (2, 0.08): (5.539939026296202, 1.1566371925893578e-13,
                5.9756112542774575, 1.1566371925893578e-13),
    (3, 0.001): (9.869525718869673, 1.9739208802178784e-13,
                 9.869616753345252, 1.9739208802178784e-13),
    (3, 0.08): (9.775369212537173, 1.9739208802178784e-13,
                9.95427878517063, 2.6716008856403507e-12),
}


@pytest.mark.parametrize("dim, eps", sorted(PINNED_BOUNDS))
def test_bounds_bit_identical(dim, eps):
    """U alone takes one profile series per point; the bounds keep every bit."""
    b1 = tf.lemma1_rayleigh(eps, dim=dim)
    b2 = tf.lemma2_rayleigh(eps, dim=dim)
    assert (b1.quotient, b1.error_est, b2.quotient, b2.error_est) == PINNED_BOUNDS[(dim, eps)]


@pytest.mark.parametrize("eps", [1e-3, 5e-3])
@pytest.mark.parametrize("dim", [2, 3])
def test_lemma1_budget_covers_the_ball_eigenvalue_error(dim, eps):
    """The quotient is lambda_1(ball) - deficit, so its budget covers the
    error of lambda_1(ball) itself: j01^2 from scipy in N = 2, pi^2 in N = 3."""
    oracle = special.jn_zeros(0, 1)[0] ** 2 if dim == 2 else math.pi**2
    error = abs(ball_spectrum(dim).lambda1 - oracle)
    assert error > 0
    assert tf.lemma1_rayleigh(eps, dim=dim).error_est >= error


@pytest.mark.parametrize("eps", [1e-8, 1e-9])
@pytest.mark.parametrize("dim", [2, 3])
def test_tiny_eps_bounds_are_finite_and_signed(dim, eps):
    """Far below the default grid the bounds still come out: one fixed panel
    per integral, no refinement that could run out of panels."""
    b1 = tf.lemma1_rayleigh(eps, dim=dim)
    b2 = tf.lemma2_rayleigh(eps, dim=dim)
    assert all(math.isfinite(x) for x in (b1.quotient, b1.error_est, b2.quotient, b2.error_est))
    assert b1.deficit > 0 and b2.excess > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_eps_regime_ends_where_one_over_eps_squared_is_finite(dim):
    """Below EPS_MIN both bounds refuse eps, since 1/eps^2 in the cutoff's
    slab terms overflows near 1.5e-154; at EPS_MIN both come out finite,
    without a floating-point warning, and the deficit and the excess lie
    within their budgets."""
    for rayleigh in (tf.lemma1_rayleigh, tf.lemma2_rayleigh):
        with pytest.raises(ValueError, match="1e-150 <= eps <= 0.3, got 1e-155"):
            rayleigh(1e-155, dim=dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b1 = tf.lemma1_rayleigh(tf.EPS_MIN, dim=dim)
        b2 = tf.lemma2_rayleigh(tf.EPS_MIN, dim=dim)
    assert all(math.isfinite(x) for x in (b1.quotient, b1.error_est, b2.quotient, b2.error_est))
    assert 0 < b1.deficit <= b1.error_est
    assert 0 <= b2.excess <= b2.error_est


@pytest.mark.parametrize("eps", [1e-8, 0.005, 0.3])
@pytest.mark.parametrize("dim", [2, 3])
def test_bounds_within_their_estimates_of_mpmath_references(dim, eps, monkeypatch):
    """The deficit and the excess, built with testfn's own formulas from
    30-digit references of the cap, cone and slab integrals, lie within the
    bounds' error estimates of the computed ones.  The components alone are
    not compared: there |K15 - G7| can miss the integrand's rounding, which
    only the bound's floor 2 * ZERO_RTOL * lambda_1(ball) covers."""
    b1 = tf.lemma1_rayleigh(eps, dim=dim)
    b2 = tf.lemma2_rayleigh(eps, dim=dim)
    cap, cone, slab = bound_components(eps, dim)
    # the 24-point Gauss-Legendre references agree with the 12-point ones
    for fine, coarse in zip(cone + slab, sum(bound_components(eps, dim, degree=3)[1:], [])):
        assert abs(fine - coarse) <= 1e-20 * abs(fine)
    cap, cone, slab = ([float(x) for x in part] for part in (cap, cone, slab))
    # each chart's (value, error), one row per component, for the batch of one eps
    for chart, part in (("_cap_integrals", cap), ("_cone_integrals", cone),
                        ("_slab_integrals", slab)):
        monkeypatch.setattr(tf, chart, lambda e, d, part=part: (
            np.array(part)[:, None], np.zeros((len(part), 1))))
    assert abs(b1.deficit - tf.lemma1_rayleigh(eps, dim=dim).deficit) <= b1.error_est
    assert abs(b2.excess - tf.lemma2_rayleigh(eps, dim=dim).excess) <= b2.error_est


@pytest.mark.parametrize("dim", [2, 3])
def test_sequence_equals_scalar_calls(dim):
    """A sequence of eps gives a tuple of the bounds that one call per eps
    gives, field for field; an empty sequence gives an empty tuple."""
    grid = sorted({*DEFAULT_EPS_GRID, tf.EPS_MIN, 1e-8, tf.EPS_MAX})
    for rayleigh in (tf.lemma1_rayleigh, tf.lemma2_rayleigh):
        assert rayleigh(grid, dim=dim) == tuple(rayleigh(eps, dim=dim) for eps in grid)
        assert rayleigh([], dim=dim) == ()


def test_chunked_sequence_equals_scalar_calls(monkeypatch):
    """A sequence longer than CHUNK runs chunk by chunk, one quadrature per
    chart and chunk, and still gives the scalar calls' bounds."""
    grid = sorted({*DEFAULT_EPS_GRID, tf.EPS_MIN, 1e-8, tf.EPS_MAX})
    calls = []
    cap = tf._cap_integrals
    monkeypatch.setattr(tf, "_cap_integrals", lambda eps, dim: calls.append(len(eps))
                        or cap(eps, dim))
    monkeypatch.setattr(tf, "CHUNK", 4)
    for rayleigh in (tf.lemma1_rayleigh, tf.lemma2_rayleigh):
        calls.clear()
        assert rayleigh(grid) == tuple(rayleigh(eps) for eps in grid)
        assert calls == [4, 4, 4, 3] + [1] * len(grid)


def test_long_sequence_peak_memory():
    """1000 eps in chunks of CHUNK = 200: the tracemalloc peak of
    lemma2_rayleigh, the larger of the two, was 7.6 MB, against 36.8 MB for
    the 1000 in one batch."""
    eps = np.geomspace(1e-7, tf.EPS_MAX, 1000)
    tf.lemma2_rayleigh(eps[:2])  # the cached ball spectrum, outside the trace
    tracemalloc.start()
    try:
        bounds = tf.lemma2_rayleigh(eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bounds) == 1000 and peak <= 8e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("bad", [0.5, 1e-155, -0.1, math.nan])
def test_sequence_with_an_eps_outside_the_regime_is_refused(bad):
    for rayleigh in (tf.lemma1_rayleigh, tf.lemma2_rayleigh):
        with pytest.raises(ValueError) as scalar:
            rayleigh(bad)
        with pytest.raises(ValueError) as batch:
            rayleigh([0.1, bad, 0.2])
        assert str(batch.value) == str(scalar.value)
