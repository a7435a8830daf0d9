import math

import numpy as np
import pytest
from scipy import special

from spectralgap import geometry as geo
from spectralgap import testfn as tf
from spectralgap.analytic import ball_spectrum
from spectralgap.geometry import junction_radius
from spectralgap.pipeline import solve_domain

from conftest import ball_ground_state_field

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
        f = tf.Lemma1Function(eps)
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
        f = tf.Lemma1Function(eps)
        rng = np.random.default_rng(6)
        pts = sample_dumbbell_points(eps, 1000, rng, half=True)
        vals, _ = f.field(pts)
        r = np.sqrt((pts[:, 0] - (1.0 - eps)) ** 2 + pts[:, 1] ** 2)
        from spectralgap.analytic import radial_profile
        u = radial_profile(2)[0](np.minimum(r, 1.0))
        assert (vals >= u - 1e-14).all()

    def test_even_symmetry(self):
        eps = 0.15
        f = tf.Lemma1Function(eps)
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
        vals, grads = tf.Lemma1Function(eps).field(np.array([1.0 - eps, 0.0])[None])
        assert vals[0] == pytest.approx(ball_spectrum(2).norm_const, rel=1e-12)
        assert np.abs(grads[0]).max() == 0.0

    def test_gradient_near_junction(self):
        # close to the junction the corrected gradient approaches
        # (kappa/2, -kappa/2 sign(x')), up to O(sqrt(eps))
        eps = 0.05
        kappa = ball_spectrum(2).kappa
        _, grads = tf.Lemma1Function(eps).field(np.array([1e-3, 1e-3])[None])
        target = np.array([0.5 * kappa, -0.5 * kappa])
        assert np.linalg.norm(grads[0] - target) <= kappa * math.sqrt(eps)

    def test_axis_gradient_direction_independent(self):
        # on the cone axis the corrector direction is a convention; the
        # squared gradient must match its limit from either side
        f = tf.Lemma1Function(0.1)
        _, grads = f.field(np.array([[0.1, 0.0], [0.1, 1e-9], [0.1, -1e-9]]))
        sq = np.sum(grads * grads, axis=1)
        assert sq[1:] == pytest.approx(np.full(2, sq[0]), rel=1e-8)

    def test_outside_domain_rejected(self):
        f = tf.Lemma1Function(0.1)
        with pytest.raises(ValueError):
            f.field(np.array([2.5, 0.0])[None])

    def test_gradient_matches_finite_differences(self):
        eps = 0.1
        f = tf.Lemma1Function(eps)
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
        f = tf.Lemma2Function(eps)
        rng = np.random.default_rng(9)
        x1 = rng.uniform(-0.1, 2.0, size=2000)
        xi = f.cutoff(x1)
        assert ((0.0 <= xi) & (xi <= 1.0)).all()
        assert (f.cutoff(np.array([eps, 0.5, 1.0])) == 1.0).all()
        assert f.cutoff(0.0) == 0.0
        assert (np.abs(f.cutoff_gradient(x1)) <= 1.0 / eps).all()

    def test_vanishes_on_junction_disk(self):
        eps = 0.1
        f = tf.Lemma2Function(eps)
        a = junction_radius(eps)
        pts = np.column_stack([np.zeros(50), np.linspace(-0.9 * a, 0.9 * a, 50)])
        vals, _ = f.field(pts)
        assert np.max(np.abs(vals)) == 0.0

    def test_gradient_matches_finite_differences(self):
        eps = 0.1
        f = tf.Lemma2Function(eps)
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
        field = tf.Lemma1Function(eps).field
        quotient, rel_err = tf.rayleigh_quotient(geo.Dumbbell(eps), field,
                                                 rel_tol=1e-7)
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
        field = tf.Lemma2Function(eps).field
        quotient, rel_err = tf.rayleigh_quotient(geo.HalfDumbbell(eps), field,
                                                 rel_tol=1e-7)
        assert quotient == pytest.approx(bound.quotient, rel=1e-6)

    def test_3d(self):
        bound = tf.lemma2_rayleigh(0.05, dim=3)
        assert 0 < bound.excess < 1.0


class TestRayleighQuotient:
    def test_exact_ground_state_gives_lambda1(self):
        quotient, rel_err = tf.rayleigh_quotient(geo.Ball(), ball_ground_state_field())
        assert quotient == pytest.approx(LAM1_DISC, rel=1e-8)
        assert rel_err <= 1e-7

    def test_homogeneity(self):
        q1, _ = tf.rayleigh_quotient(geo.Ball(), ball_ground_state_field())
        q2, _ = tf.rayleigh_quotient(geo.Ball(), ball_ground_state_field(scale=3.7))
        assert q2 == pytest.approx(q1, rel=5e-13)

    def test_interpolated_discrete_eigenvector(self):
        from spectralgap import discretize as d, eigensolve as es
        h = 1 / 16
        grid = d.build_grid(geo.Ball(), h)
        res = es.smallest_pairs(d.assemble(grid), k=1, tol=1e-8)
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

        quotient, _ = tf.rayleigh_quotient(geo.Ball(), field,
                                           rel_tol=1e-3, max_panels=20000)
        # the interpolant spills at most h past the disc, so compare against
        # the slightly inflated ball
        assert quotient >= LAM1_DISC * (1.0 - 2.0 * h) - 0.05

    def test_zero_denominator(self):
        def null_field(pts):
            pts = np.atleast_2d(pts)
            return np.zeros(len(pts)), np.zeros_like(pts)

        with pytest.raises(ValueError):
            tf.rayleigh_quotient(geo.Ball(), null_field)


class TestOddExtension:
    H = (1 / 8, 1 / 16, 1 / 32)

    def test_cheap_dumbbell(self):
        rep = tf.odd_extension_check(
            solve_domain(geo.Dumbbell(0.2), self.H, tol=1e-6),
            solve_domain(geo.HalfDumbbell(0.2), self.H, tol=1e-6, k=1))
        assert rep.epsilon == 0.2
        assert rep.upper_bound_ok
        assert rep.symmetry_ok
        assert rep.symmetry_correlation >= 0.99
        assert abs(rep.gap) <= rep.tolerance

    def test_refuses_a_mismatched_half(self):
        dumbbell = solve_domain(geo.Dumbbell(0.3), self.H, tol=1e-6)
        disc = solve_domain(geo.Ball(), self.H, tol=1e-6, k=1)
        for half in (solve_domain(geo.HalfDumbbell(0.1), self.H, tol=1e-6, k=1),
                     solve_domain(geo.HalfDumbbell(0.3), self.H[:2], tol=1e-6, k=1), disc):
            with pytest.raises(ValueError, match="is not of the half of Dumbbell"):
                tf.odd_extension_check(dumbbell, half)
        with pytest.raises(ValueError, match="not of a dumbbell"):
            tf.odd_extension_check(disc, disc)

    def test_two_balls_limit(self):
        # fully separated components: the two smallest values coincide
        from spectralgap import discretize as d, eigensolve as es
        op = d.assemble(d.build_grid(geo.two_balls(), 1 / 16))
        res = es.smallest_pairs(op, tol=1e-8)
        assert abs(res.values[1] - res.values[0]) <= 5 * res.tol * res.values[0]


# (lemma1 quotient, lemma1 error_est, lemma2 quotient, lemma2 error_est) as
# the bounds path computed them with U evaluated together with U'; the lemma1
# estimates are the floor 2 * ZERO_RTOL * lambda_1(ball)
PINNED_BOUNDS = {
    (2, 0.001): (5.781231982520764, 1.1566371925893578e-13,
                 5.78344492439945, 3.66379218991368e-12),
    (2, 0.08): (5.539939026296202, 1.1566371925893578e-13,
                5.9756112542774575, 4.91504211707954e-13),
    (3, 0.001): (9.869525718869673, 1.9739208802178784e-13,
                 9.869616753345252, 2.6021035381358006e-13),
    (3, 0.08): (9.775369212537173, 1.9739208802178784e-13,
                9.95427878517063, 8.570187968536485e-12),
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
