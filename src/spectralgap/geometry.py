"""Symbolic planar/spatial domains with exact membership and measures.

Domains are constructive descriptions (balls, dumbbells cut from
overlapping balls, scaled copies, disjoint unions, rectangles and ellipses),
not meshes.  The two-ball point Theta has no type of its own: ``two_balls``
(JSON kind ``"two_balls"``, CLI names ``theta`` and ``two_balls``) is an
alias that builds the ``DisjointUnion`` of two equal balls.  Membership uses
strict inequalities, so boundary points test False.  The dumbbell with
junction parameter eps consists of the two half-balls

    {x1 > 0, (x1 - 1 + eps)^2 + |x'|^2 < 1}  and its mirror in {x1 < 0},

which meet along the open disk {x1 = 0, |x'| < sqrt(2 eps - eps^2)}.  That
disk belongs to the interior of the closure; ``contains`` excludes it by
default and includes it under ``include_junction=True`` (the convention the
grid builder uses so the discrete domain stays connected).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import unit_ball_volume
from .quadrature import quad_adaptive

__all__ = [
    "Domain",
    "Ball",
    "two_balls",
    "Dumbbell",
    "HalfDumbbell",
    "Scaled",
    "DisjointUnion",
    "Rectangle",
    "Ellipse",
    "contains",
    "measure",
    "normalization",
    "junction_radius",
    "bounding_box",
    "bounding_ball",
    "domain_to_dict",
    "domain_from_dict",
]


@dataclass(frozen=True)
class Domain:
    """Base class carrying the ambient dimension."""

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class Ball(Domain):
    center: tuple | None = None  # defaults to the origin of the ambient space
    radius: float = 1.0
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.radius <= 0:
            raise ValueError(f"ball radius must be > 0, got {self.radius}")
        center = (0.0,) * self.dim if self.center is None else self.center
        if len(center) != self.dim:
            raise ValueError(f"center has {len(center)} coordinates, dim is {self.dim}")
        object.__setattr__(self, "center", tuple(float(c) for c in center))


@dataclass(frozen=True)
class Dumbbell(Domain):
    """Two unit balls pushed distance eps past tangency, each cut by {x1 = 0}."""

    epsilon: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.epsilon < 1:
            raise ValueError(f"dumbbell parameter must satisfy 0 < eps < 1, got {self.epsilon}")


@dataclass(frozen=True)
class HalfDumbbell(Domain):
    """The x1 > 0 half of the dumbbell: a unit ball cut by the plane {x1 = 0}."""

    epsilon: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.epsilon < 1:
            raise ValueError(f"dumbbell parameter must satisfy 0 < eps < 1, got {self.epsilon}")


@dataclass(frozen=True)
class Scaled(Domain):
    factor: float
    inner: Domain
    dim: int = field(init=False, default=2)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.inner.dim)
        super().__post_init__()
        if self.factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {self.factor}")


@dataclass(frozen=True)
class DisjointUnion(Domain):
    parts: tuple
    dim: int = field(init=False, default=2)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("disjoint union needs at least one part")
        object.__setattr__(self, "dim", self.parts[0].dim)
        super().__post_init__()
        if any(p.dim != self.dim for p in self.parts):
            raise ValueError("disjoint union parts must share a dimension")
        balls = [bounding_ball(p) for p in self.parts]
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                (ci, ri), (cj, rj) = balls[i], balls[j]
                dist = math.dist(ci, cj)
                if dist <= ri + rj:
                    raise ValueError(
                        f"disjoint union parts {i} and {j} have overlapping bounding "
                        f"balls (distance {dist:.6g} <= {ri + rj:.6g})"
                    )


@dataclass(frozen=True)
class Rectangle(Domain):
    """Axis-aligned open rectangle centered at the origin (planar only)."""

    width: float
    height: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 2:
            raise ValueError("rectangles are planar (dim = 2)")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be > 0")


@dataclass(frozen=True)
class Ellipse(Domain):
    """Axis-aligned open ellipse centered at the origin (planar only)."""

    semi_x: float
    semi_y: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 2:
            raise ValueError("ellipses are planar (dim = 2)")
        if self.semi_x <= 0 or self.semi_y <= 0:
            raise ValueError("ellipse semi-axes must be > 0")


def two_balls(separation: float = 4.0, radius: float = 1.0, dim: int = 2):
    """Two equal balls centered at (+-separation/2, 0, ...), the + ball first.

    The default separation 2(radius + 1) keeps the closures disjoint with a
    margin; the union rejects any separation <= 2 radius.
    """
    rest = (0.0,) * (dim - 1)
    return DisjointUnion(parts=tuple(Ball(center=(x1,) + rest, radius=radius, dim=dim)
                                     for x1 in (0.5 * separation, -0.5 * separation)))


def junction_radius(epsilon: float) -> float:
    """Half-width sqrt(2 eps - eps^2) of the dumbbell junction disk."""
    return math.sqrt(2.0 * epsilon - epsilon * epsilon)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _as_points(x, dim):
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != dim:
        raise ValueError(f"point has {pts.shape[1]} coordinates, domain dimension is {dim}")
    return pts, scalar


def _sqdist(pts, center):
    d = pts - np.asarray(center, dtype=float)
    return np.sum(d * d, axis=1)


def contains(domain, x, include_junction: bool = False):
    """Strict membership test; x is one point (N,) or a batch (m, N).

    ``include_junction=True`` adds the open junction disk {x1 = 0} of
    dumbbells, i.e. tests the interior of the closure.
    """
    pts, scalar = _as_points(x, domain.dim)
    inside = _contains(domain, pts, include_junction)
    return bool(inside[0]) if scalar else inside


def _contains(domain, pts, junction):
    if isinstance(domain, Ball):
        return _sqdist(pts, domain.center) < domain.radius**2
    if isinstance(domain, (Dumbbell, HalfDumbbell)):
        eps = domain.epsilon
        x1 = pts[:, 0]
        s2 = np.sum(pts[:, 1:] ** 2, axis=1)
        plus = (x1 > 0) & ((x1 - 1.0 + eps) ** 2 + s2 < 1.0)
        if isinstance(domain, HalfDumbbell):
            return plus
        minus = (x1 < 0) & ((x1 + 1.0 - eps) ** 2 + s2 < 1.0)
        inside = plus | minus
        if junction:
            inside |= (x1 == 0.0) & (s2 < 2.0 * eps - eps * eps)
        return inside
    if isinstance(domain, Scaled):
        return _contains(domain.inner, pts / domain.factor, junction)
    if isinstance(domain, DisjointUnion):
        inside = np.zeros(len(pts), dtype=bool)
        for part in domain.parts:
            inside |= _contains(part, pts, junction)
        return inside
    if isinstance(domain, Rectangle):
        return (np.abs(pts[:, 0]) < 0.5 * domain.width) & (np.abs(pts[:, 1]) < 0.5 * domain.height)
    if isinstance(domain, Ellipse):
        return (pts[:, 0] / domain.semi_x) ** 2 + (pts[:, 1] / domain.semi_y) ** 2 < 1.0
    raise TypeError(f"unknown domain type {type(domain).__name__}")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def cap_volume(epsilon: float, dim: int) -> float:
    """Volume of the spherical cap of height eps cut from a unit ball.

    V = int_0^eps omega_(N-1) (2t - t^2)^((N-1)/2) dt; the substitution
    t = s^2 removes the t^(1/2)-type behavior at t = 0.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"cap height must satisfy 0 <= eps < 1, got {epsilon}")
    if epsilon == 0:
        return 0.0
    om = unit_ball_volume(dim - 1)
    power = 0.5 * (dim - 1)

    def integrand(s):
        return 2.0 * om * s * (s * s * (2.0 - s * s)) ** power

    return quad_adaptive(integrand, 0.0, math.sqrt(epsilon), rel_tol=1e-12).value


def measure(domain) -> float:
    """Lebesgue measure; closed forms everywhere except the dumbbell caps,
    which use adaptive quadrature to 1e-12 relative accuracy."""
    if isinstance(domain, Ball):
        return unit_ball_volume(domain.dim) * domain.radius**domain.dim
    if isinstance(domain, Dumbbell):
        return 2.0 * (unit_ball_volume(domain.dim) - cap_volume(domain.epsilon, domain.dim))
    if isinstance(domain, HalfDumbbell):
        return unit_ball_volume(domain.dim) - cap_volume(domain.epsilon, domain.dim)
    if isinstance(domain, Scaled):
        return domain.factor**domain.dim * measure(domain.inner)
    if isinstance(domain, DisjointUnion):
        return sum(measure(p) for p in domain.parts)
    if isinstance(domain, Rectangle):
        return domain.width * domain.height
    if isinstance(domain, Ellipse):
        return math.pi * domain.semi_x * domain.semi_y
    raise TypeError(f"unknown domain type {type(domain).__name__}")


def normalization(domain):
    """(|domain|, t, factor) for the unit-measure copy Scaled(t, domain).

    t = (omega_N / |domain|)^(1/N) scales lengths, and eigenvalues of the
    copy are those of the domain times factor = (|domain| / omega_N)^(2/N).
    """
    vol = measure(domain)
    if not vol > 0 or not math.isfinite(vol):
        raise ValueError(f"cannot normalize degenerate measure {vol}")
    omega = unit_ball_volume(domain.dim)
    return vol, (omega / vol) ** (1.0 / domain.dim), (vol / omega) ** (2.0 / domain.dim)


# ---------------------------------------------------------------------------
# bounding regions
# ---------------------------------------------------------------------------

def bounding_box(domain):
    """Axis-aligned (lo, hi) arrays enclosing the domain."""
    n = domain.dim
    if isinstance(domain, Ball):
        c = np.asarray(domain.center)
        return c - domain.radius, c + domain.radius
    if isinstance(domain, Dumbbell):
        lo = np.full(n, -1.0)
        hi = np.full(n, 1.0)
        lo[0] = -(2.0 - domain.epsilon)
        hi[0] = 2.0 - domain.epsilon
        return lo, hi
    if isinstance(domain, HalfDumbbell):
        lo = np.full(n, -1.0)
        hi = np.full(n, 1.0)
        lo[0] = 0.0
        hi[0] = 2.0 - domain.epsilon
        return lo, hi
    if isinstance(domain, Scaled):
        lo, hi = bounding_box(domain.inner)
        return domain.factor * lo, domain.factor * hi
    if isinstance(domain, DisjointUnion):
        boxes = [bounding_box(p) for p in domain.parts]
        return (np.min([b[0] for b in boxes], axis=0),
                np.max([b[1] for b in boxes], axis=0))
    if isinstance(domain, Rectangle):
        h = np.array([0.5 * domain.width, 0.5 * domain.height])
        return -h, h
    if isinstance(domain, Ellipse):
        h = np.array([domain.semi_x, domain.semi_y])
        return -h, h
    raise TypeError(f"unknown domain type {type(domain).__name__}")


def bounding_ball(domain):
    """(center, radius) of a ball enclosing the domain.

    Exact for balls and their scaled copies, box-circumscribed otherwise.
    """
    if isinstance(domain, Ball):
        return domain.center, domain.radius
    if isinstance(domain, Scaled):
        c, r = bounding_ball(domain.inner)
        return tuple(domain.factor * ci for ci in c), domain.factor * r
    lo, hi = bounding_box(domain)
    center = 0.5 * (lo + hi)
    radius = 0.5 * float(np.linalg.norm(hi - lo))
    return tuple(center), radius


# ---------------------------------------------------------------------------
# JSON round trip; exact field names are part of the CLI contract
# ---------------------------------------------------------------------------

def domain_to_dict(domain) -> dict:
    if isinstance(domain, Ball):
        params = {"center": list(domain.center), "radius": domain.radius}
        kind = "ball"
    elif isinstance(domain, Dumbbell):
        params = {"epsilon": domain.epsilon}
        kind = "dumbbell"
    elif isinstance(domain, HalfDumbbell):
        params = {"epsilon": domain.epsilon}
        kind = "half_dumbbell"
    elif isinstance(domain, Scaled):
        params = {"factor": domain.factor, "inner": domain_to_dict(domain.inner)}
        kind = "scaled"
    elif isinstance(domain, DisjointUnion):
        params = {"parts": [domain_to_dict(p) for p in domain.parts]}
        kind = "disjoint_union"
    elif isinstance(domain, Rectangle):
        params = {"width": domain.width, "height": domain.height}
        kind = "rectangle"
    elif isinstance(domain, Ellipse):
        params = {"semi_x": domain.semi_x, "semi_y": domain.semi_y}
        kind = "ellipse"
    else:
        raise TypeError(f"unknown domain type {type(domain).__name__}")
    return {"kind": kind, "N": domain.dim, "params": params}


def domain_from_dict(doc: dict):
    try:
        kind = doc["kind"]
        dim = int(doc["N"])
        params = doc.get("params", {})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed domain document: {exc}") from exc
    if kind == "ball":
        center = tuple(params.get("center", (0.0,) * dim))
        return Ball(center=center, radius=float(params.get("radius", 1.0)), dim=dim)
    if kind == "two_balls":
        return two_balls(separation=float(params.get("separation", 4.0)),
                         radius=float(params.get("radius", 1.0)), dim=dim)
    if kind == "dumbbell":
        return Dumbbell(epsilon=float(params["epsilon"]), dim=dim)
    if kind == "half_dumbbell":
        return HalfDumbbell(epsilon=float(params["epsilon"]), dim=dim)
    if kind == "scaled":
        return Scaled(factor=float(params["factor"]), inner=domain_from_dict(params["inner"]))
    if kind == "disjoint_union":
        return DisjointUnion(parts=tuple(domain_from_dict(p) for p in params["parts"]))
    if kind == "rectangle":
        return Rectangle(width=float(params["width"]), height=float(params["height"]), dim=dim)
    if kind == "ellipse":
        return Ellipse(semi_x=float(params["semi_x"]), semi_y=float(params["semi_y"]), dim=dim)
    raise ValueError(f"unknown domain kind {kind!r}")
