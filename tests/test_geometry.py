import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import qmc

from spectralgap import geometry as geo
from spectralgap.analytic import unit_ball_volume

# frozen from an independent scipy.integrate.quad run of the cap formula
DUMBBELL_MEASURE_01 = 6.165733493424383      # eps = 0.1, N = 2
T_FACTOR_005 = 0.709473275947743             # eps = 0.05, N = 2


def sobol_fraction(domain, lo, hi, n_log2=21, seed=20250808):
    """Quasi-random membership fraction; (estimate, bernoulli standard error)."""
    sampler = qmc.Sobol(d=2, scramble=True, seed=seed)
    pts = qmc.scale(sampler.random_base2(n_log2), lo, hi)
    inside = geo.contains(domain, pts)
    n = len(pts)
    p = inside.mean()
    area_box = float(np.prod(np.asarray(hi) - np.asarray(lo)))
    return p * area_box, math.sqrt(max(p * (1 - p), 1e-12) / n) * area_box


class TestContains:
    def test_dumbbell_right_center(self):
        assert geo.contains(geo.Dumbbell(0.1), np.array([0.9, 0.0]))

    @pytest.mark.parametrize("domain, a", [
        (geo.Dumbbell(0.1), geo.junction_radius(0.1)),
        (geo.Scaled(2.5, geo.Dumbbell(0.1)), 2.5 * geo.junction_radius(0.1)),
        (geo.DisjointUnion((geo.Dumbbell(0.1), geo.Ball(center=(5.0, 0.0)))),
         geo.junction_radius(0.1)),
    ], ids=["bare", "scaled", "union"])
    def test_dumbbell_contains_its_open_junction(self, domain, a):
        """(0, y) is inside for |y| < a, the junction radius, and outside for
        |y| > a, bare and as part of a larger domain."""
        for y in (0.0, 0.9 * a, -0.9 * a):
            assert geo.contains(domain, np.array([0.0, y]))
        for y in (1.1 * a, -1.1 * a):
            assert not geo.contains(domain, np.array([0.0, y]))

    def test_halfdumbbell_excludes_the_cut_plane(self):
        h = geo.HalfDumbbell(0.1)
        a = geo.junction_radius(0.1)
        for y in (0.0, 0.5 * a, -0.5 * a):
            assert not geo.contains(h, np.array([0.0, y]))
        assert geo.contains(h, np.array([1e-9, 0.0]))

    def test_ball_interior_point(self):
        assert geo.contains(geo.Ball(), np.array([0.5, 0.5]))
        assert not geo.contains(geo.Ball(), np.array([1.0, 0.0]))  # boundary is out

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            geo.contains(geo.Ball(), np.array([0.1, 0.2, 0.3]))

    def test_batch_shape(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.3, -0.4]])
        inside = geo.contains(geo.Ball(), pts)
        assert inside.tolist() == [True, False, True]

    def test_halfdumbbell_is_right_part(self):
        h = geo.HalfDumbbell(0.1)
        assert geo.contains(h, np.array([0.9, 0.0]))
        assert not geo.contains(h, np.array([-0.9, 0.0]))

    def test_scaled_equivalence_sampled(self):
        rng = np.random.default_rng(11)
        inner = geo.Dumbbell(0.15)
        for _ in range(1000):
            t = float(rng.uniform(0.2, 3.0))
            x = rng.uniform(-3.0, 3.0, size=2)
            assert geo.contains(geo.Scaled(t, inner), x) == geo.contains(inner, x / t)


class TestMeasure:
    def test_ball(self):
        assert geo.Ball().measure() == pytest.approx(math.pi, rel=1e-14)
        assert geo.Ball(radius=2.0, dim=3).measure() == pytest.approx(
            8.0 * unit_ball_volume(3), rel=1e-14)

    def test_dumbbell_caps_vanish(self):
        assert geo.Dumbbell(1e-9).measure() == pytest.approx(2.0 * math.pi, rel=1e-10)

    def test_dumbbell_frozen_value(self):
        assert geo.Dumbbell(0.1).measure() == pytest.approx(DUMBBELL_MEASURE_01, rel=1e-9)

    @pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.1, 0.3, 0.5, 0.9, 0.999])
    def test_cap_volume_matches_closed_form(self, eps):
        """One fixed panel carries the cap to rounding level for every height."""
        with mp.workdps(30):
            e = mp.mpf(eps)
            exact = {2: mp.acos(1 - e) - (1 - e) * mp.sqrt(2 * e - e * e),
                     3: mp.pi * e * e * (3 - e) / 3}
            for dim in (2, 3):
                assert abs(geo.cap_volume(eps, dim) - exact[dim]) <= 1e-14 * exact[dim]

    def test_dumbbell_monte_carlo(self):
        d = geo.Dumbbell(0.1)
        lo, hi = d.box()
        est, se = sobol_fraction(d, lo, hi)
        assert abs(est - d.measure()) <= 3.0 * se

    def test_scaled_measure(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = float(rng.uniform(0.1, 5.0))
            m = geo.Scaled(t, geo.Dumbbell(0.2)).measure()
            assert m == pytest.approx(t**2 * geo.Dumbbell(0.2).measure(), rel=1e-9)

    def test_monotone_in_eps(self):
        grid = np.linspace(0.01, 0.3, 30)
        vals = [geo.Dumbbell(e).measure() for e in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_cap_expansion_rate_bounded(self):
        # (2 omega - measure)/eps^{3/2} stays inside a fixed positive window
        for eps in np.geomspace(1e-3, 0.1, 12):
            ratio = (2.0 * math.pi - geo.Dumbbell(eps).measure()) / eps**1.5
            assert 3.6 <= ratio <= 3.9

    def test_union_and_rectangle(self):
        u = geo.DisjointUnion((geo.Ball(center=(-3.0, 0.0)), geo.Ball(center=(3.0, 0.0))))
        assert u.measure() == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert geo.Rectangle(2.0, 0.5).measure() == 1.0
        assert geo.Ellipse(2.0, 1.0).measure() == pytest.approx(2.0 * math.pi)


class TestRescale:
    def test_unit_ball_identity(self):
        t = geo.normalization(geo.Ball())[1]
        assert t == pytest.approx(1.0, abs=1e-15)

    def test_two_balls(self):
        t = geo.normalization(geo.two_balls())[1]
        assert t == pytest.approx(2.0 ** (-0.5), rel=1e-14)

    def test_dumbbell_frozen(self):
        dumbbell = geo.Dumbbell(0.05)
        t = geo.normalization(dumbbell)[1]
        assert t == pytest.approx(T_FACTOR_005, rel=1e-9)
        assert geo.Scaled(t, dumbbell).measure() == pytest.approx(math.pi, rel=1e-10)

    def test_3d(self):
        union = geo.two_balls(dim=3)
        t = geo.normalization(union)[1]
        assert t == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-14)
        assert geo.Scaled(t, union).measure() == pytest.approx(unit_ball_volume(3), rel=1e-10)


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_dumbbell_range(self, bad):
        with pytest.raises(ValueError):
            geo.Dumbbell(bad)

    def test_two_balls_overlap(self):
        with pytest.raises(ValueError):
            geo.two_balls(separation=1.9)

    def test_union_overlap(self):
        with pytest.raises(ValueError):
            geo.DisjointUnion((geo.Ball(), geo.Ball(center=(1.5, 0.0))))

    def test_scaled_factor(self):
        with pytest.raises(ValueError):
            geo.Scaled(0.0, geo.Ball())

    def test_rectangle_planar_only(self):
        with pytest.raises(ValueError):
            geo.Rectangle(1.0, 1.0, dim=3)


def shape_types(cls=geo.Domain):
    """Every subclass of cls, recursively."""
    for sub in cls.__subclasses__():
        yield sub
        yield from shape_types(sub)


# instances of every shape, each with a point strictly inside it
SHAPES = [
    (geo.Ball(center=(0.5, -1.0), radius=2.0), (0.5, -1.0)),
    (geo.two_balls(separation=5.0), (-2.5, 0.5)),
    (geo.Dumbbell(0.07), (0.0, 0.3)),  # on the junction disk, radius 0.367
    (geo.HalfDumbbell(0.2, dim=3), (0.9, 0.5, -0.5)),
    (geo.Scaled(0.5, geo.Dumbbell(0.1)), (-0.45, 0.0)),
    (geo.DisjointUnion((geo.Ball(center=(-4.0, 0.0)), geo.Rectangle(1.0, 1.0))), (0.4, 0.4)),
    (geo.Ellipse(2.0, 1.0), (1.5, 0.5)),
    (geo.Rectangle(2.0, 0.5), (-0.9, 0.2)),
    (geo.Dumbbell(0.1, dim=3), (0.0, 0.2, 0.2)),
]


class TestShapeContract:
    def test_every_shape_has_a_case(self):
        assert set(shape_types()) <= {type(d) for d, _ in SHAPES}

    @pytest.mark.parametrize("domain, point", SHAPES)
    def test_box_and_membership(self, domain, point):
        """Box corners are outside, the known point inside, and every inside
        point of a Sobol sample of twice the box lies in the box."""
        lo, hi = domain.box()
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        assert not geo.contains(domain, corners).any()
        assert geo.contains(domain, np.array(point))
        sampler = qmc.Sobol(d=domain.dim, scramble=True, seed=7)
        pts = qmc.scale(sampler.random_base2(14), 1.5 * lo - 0.5 * hi, 1.5 * hi - 0.5 * lo)
        inside = pts[geo.contains(domain, pts)]
        assert len(inside) > 0
        assert ((lo <= inside) & (inside <= hi)).all()


class TestSerialization:
    @pytest.mark.parametrize("domain", [d for d, _ in SHAPES])
    def test_roundtrip(self, domain):
        assert geo.domain_from_dict(geo.domain_to_dict(domain)) == domain

    # one valid params document per kind
    PARAMS = {
        "ball": {"center": [1.0, 0.0], "radius": 2.0},
        "two_balls": {"separation": 5.0, "radius": 1.0},
        "dumbbell": {"epsilon": 0.1},
        "half_dumbbell": {"epsilon": 0.1},
        "scaled": {"factor": 2.0, "inner": {"kind": "ball", "N": 2}},
        "disjoint_union": {"parts": [{"kind": "ball", "N": 2}]},
        "rectangle": {"width": 1.0, "height": 2.0},
        "ellipse": {"semi_x": 1.0, "semi_y": 2.0},
    }

    def test_every_kind_has_params(self):
        assert set(self.PARAMS) == set(geo.KINDS)

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_unknown_key_refused(self, kind):
        params = self.PARAMS[kind]
        geo.domain_from_dict({"kind": kind, "N": 2, "params": params})
        first = next(iter(params))
        misspelled = {(k[:-1] if k == first else k): v for k, v in params.items()}
        for bad, key in ((misspelled, first[:-1]), ({**params, "extra": 1.0}, "extra"),
                         ({**params, "dim": 2}, "dim")):
            with pytest.raises(ValueError, match=f"^malformed domain document: kind "
                                                 f"'{kind}' has no parameter '{key}'"):
                geo.domain_from_dict({"kind": kind, "N": 2, "params": bad})

    @pytest.mark.parametrize("kind, params, message", [
        ("ball", {"radius": True}, "param 'radius' must be a number, got True"),
        ("ball", {"radius": "2"}, "param 'radius' must be a number, got '2'"),
        ("ball", {"radius": None}, "param 'radius' must be a number, got None"),
        ("ball", {"center": 5}, "param 'center' must be a list, got 5"),
        ("ball", {"center": [0, "1"]}, "an item of kind 'ball' param 'center' must be a number"),
        ("disjoint_union", {"parts": 5}, "param 'parts' must be a list, got 5"),
        ("disjoint_union", {"parts": [5]},
         "an item of kind 'disjoint_union' param 'parts' must be a domain document, got 5"),
        ("scaled", {"factor": 2, "inner": 5}, "param 'inner' must be a domain document"),
        ("scaled", {"factor": [2], "inner": {"kind": "ball", "N": 2}},
         "param 'factor' must be a number, got [2]"),
        ("two_balls", {"separation": False}, "param 'separation' must be a number"),
    ])
    def test_wrong_type_names_param_and_kind(self, kind, params, message):
        with pytest.raises(ValueError) as info:
            geo.domain_from_dict({"kind": kind, "N": 2, "params": params})
        assert str(info.value).startswith("malformed domain document: ")
        assert message in str(info.value)
        assert f"kind {kind!r}" in str(info.value)

    def test_malformed(self):
        with pytest.raises(ValueError):
            geo.domain_from_dict({"kind": "pentagon", "N": 2, "params": {}})
        with pytest.raises(ValueError):
            geo.domain_from_dict({"N": 2})
