"""Symbolic planar/spatial domains with exact membership and measures.

Domains are constructive descriptions (balls, dumbbells cut from
overlapping balls, scaled copies, disjoint unions, rectangles and ellipses),
not meshes.  Each shape is one frozen dataclass that owns its behaviour:
``inside(pts)`` tests an (m, N) batch of points, ``measure()`` is its
Lebesgue measure, ``box()`` its axis-aligned bounding box,
``bounding_ball()`` an enclosing ball, ``KIND`` its JSON kind, and its init
fields its JSON params.  The two-ball point Theta has no type of its own:
``two_balls`` (JSON kind ``"two_balls"``, CLI names ``theta`` and
``two_balls``) is an alias that builds the ``DisjointUnion`` of two equal
balls.  Membership uses strict inequalities, so boundary points test False.
The dumbbell with junction parameter eps is the open set made of the two
half-balls

    {x1 > 0, (x1 - 1 + eps)^2 + |x'|^2 < 1}  and its mirror in {x1 < 0}

and the open junction disk {x1 = 0, |x'| < sqrt(2 eps - eps^2)} where they
meet, so it is connected; the half dumbbell excludes the plane {x1 = 0}.
A shape declares no symmetry: the grid solve finds a mirror on the grid
itself (``discretize.mirror_halves``), so every shape that is its own
mirror image under x1 -> -x1, the dumbbell and the two-ball point among
them, is solved by mirror sector.
"""

import inspect
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .analytic import unit_ball_volume
from .quadrature import kronrod

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
    "normalization",
    "junction_radius",
    "domain_to_dict",
    "domain_from_dict",
    "KINDS",
]


@dataclass(frozen=True)
class Domain:
    """Base class carrying the ambient dimension.

    A shape defines ``inside(pts)`` for a validated (m, N) batch, ``measure()``,
    ``box()`` as (lo, hi) arrays, and the class attribute ``KIND``.  It
    declares no symmetry: a grid solve reads its mirror from the grid
    (``discretize.mirror_halves``).
    """

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")

    def bounding_ball(self):
        """(center, radius) of a ball enclosing the domain: the ball
        circumscribing ``box()`` unless a shape knows an exact one."""
        lo, hi = self.box()
        return tuple(0.5 * (lo + hi)), 0.5 * float(np.linalg.norm(hi - lo))


@dataclass(frozen=True)
class Ball(Domain):
    KIND = "ball"
    center: tuple[float, ...] | None = None  # defaults to the origin of the ambient space
    radius: float = 1.0
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.radius < math.inf:
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")
        center = (0.0,) * self.dim if self.center is None else self.center
        if len(center) != self.dim:
            raise ValueError(f"center has {len(center)} coordinates, dim is {self.dim}")
        center = tuple(float(c) for c in center)
        if not all(map(math.isfinite, center)):
            raise ValueError(f"ball center must be finite, got {center}")
        object.__setattr__(self, "center", center)

    def inside(self, pts):
        d = pts - np.asarray(self.center, dtype=float)
        return np.sum(d * d, axis=1) < self.radius**2

    def measure(self):
        return unit_ball_volume(self.dim) * self.radius**self.dim

    def box(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def bounding_ball(self):
        return self.center, self.radius


def _check_epsilon(epsilon):
    if not 0 < epsilon < 1:
        raise ValueError(f"dumbbell parameter must satisfy 0 < eps < 1, got {epsilon}")


def _half_ball(x1, s2, epsilon):
    """Membership of {x1 > 0, (x1 - 1 + eps)^2 + |x'|^2 < 1}, given s2 = |x'|^2."""
    return (x1 > 0) & ((x1 - 1.0 + epsilon) ** 2 + s2 < 1.0)


@dataclass(frozen=True)
class Dumbbell(Domain):
    """Two unit balls pushed distance eps past tangency, each cut by {x1 = 0},
    joined through their open junction disk.

    It is its own mirror image under x1 -> -x1: lambda1 is the even ground
    state, and lambda2 the odd mode whose nodal line is {x1 = 0}, i.e. the
    ground state of ``HalfDumbbell`` reflected oddly, while the second even
    eigenvalue lies above it (1.8 times above at eps = 0.2, 1.1 times at
    eps = 0.9)."""

    KIND = "dumbbell"
    epsilon: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        _check_epsilon(self.epsilon)

    def inside(self, pts):
        eps = self.epsilon
        x1 = pts[:, 0]
        s2 = np.sum(pts[:, 1:] ** 2, axis=1)
        return (_half_ball(x1, s2, eps) | _half_ball(-x1, s2, eps)
                | ((x1 == 0.0) & (s2 < 2.0 * eps - eps * eps)))

    def measure(self):
        return 2.0 * HalfDumbbell(self.epsilon, self.dim).measure()

    def box(self):
        hi = HalfDumbbell(self.epsilon, self.dim).box()[1]
        return -hi, hi


@dataclass(frozen=True)
class HalfDumbbell(Domain):
    """The x1 > 0 half of the dumbbell: a unit ball cut by the plane {x1 = 0}."""

    KIND = "half_dumbbell"
    epsilon: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        _check_epsilon(self.epsilon)

    def inside(self, pts):
        return _half_ball(pts[:, 0], np.sum(pts[:, 1:] ** 2, axis=1), self.epsilon)

    def measure(self):
        return unit_ball_volume(self.dim) - cap_volume(self.epsilon, self.dim)

    def box(self):
        lo, hi = np.full(self.dim, -1.0), np.ones(self.dim)
        lo[0], hi[0] = 0.0, 2.0 - self.epsilon
        return lo, hi


@dataclass(frozen=True)
class Scaled(Domain):
    KIND = "scaled"
    factor: float
    inner: Domain
    dim: int = field(init=False, default=2)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.inner.dim)
        super().__post_init__()
        if not 0 < self.factor < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {self.factor}")

    def inside(self, pts):
        return self.inner.inside(pts / self.factor)

    def measure(self):
        return self.factor**self.dim * self.inner.measure()

    def box(self):
        lo, hi = self.inner.box()
        return self.factor * lo, self.factor * hi

    def bounding_ball(self):
        c, r = self.inner.bounding_ball()
        return tuple(self.factor * ci for ci in c), self.factor * r


@dataclass(frozen=True)
class DisjointUnion(Domain):
    KIND = "disjoint_union"
    parts: tuple[Domain, ...]
    dim: int = field(init=False, default=2)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("disjoint union needs at least one part")
        object.__setattr__(self, "dim", self.parts[0].dim)
        super().__post_init__()
        if any(p.dim != self.dim for p in self.parts):
            raise ValueError("disjoint union parts must share a dimension")
        balls = [p.bounding_ball() for p in self.parts]
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                (ci, ri), (cj, rj) = balls[i], balls[j]
                dist = math.dist(ci, cj)
                if dist <= ri + rj:
                    raise ValueError(
                        f"disjoint union parts {i} and {j} have overlapping bounding "
                        f"balls (distance {dist:.6g} <= {ri + rj:.6g})"
                    )

    def inside(self, pts):
        inside = np.zeros(len(pts), dtype=bool)
        for part in self.parts:
            inside |= part.inside(pts)
        return inside

    def measure(self):
        return sum(p.measure() for p in self.parts)

    def box(self):
        boxes = [p.box() for p in self.parts]
        return (np.min([b[0] for b in boxes], axis=0),
                np.max([b[1] for b in boxes], axis=0))


@dataclass(frozen=True)
class Rectangle(Domain):
    """Axis-aligned open rectangle centered at the origin (planar only)."""

    KIND = "rectangle"
    width: float
    height: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 2:
            raise ValueError("rectangles are planar (dim = 2)")
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"rectangle sides must be positive and finite, "
                             f"got {self.width} x {self.height}")

    def inside(self, pts):
        return (np.abs(pts[:, 0]) < 0.5 * self.width) & (np.abs(pts[:, 1]) < 0.5 * self.height)

    def measure(self):
        return self.width * self.height

    def box(self):
        h = np.array([0.5 * self.width, 0.5 * self.height])
        return -h, h


@dataclass(frozen=True)
class Ellipse(Domain):
    """Axis-aligned open ellipse centered at the origin (planar only)."""

    KIND = "ellipse"
    semi_x: float
    semi_y: float
    dim: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 2:
            raise ValueError("ellipses are planar (dim = 2)")
        if not (0 < self.semi_x < math.inf and 0 < self.semi_y < math.inf):
            raise ValueError(f"ellipse semi-axes must be positive and finite, "
                             f"got {self.semi_x} and {self.semi_y}")

    def inside(self, pts):
        return (pts[:, 0] / self.semi_x) ** 2 + (pts[:, 1] / self.semi_y) ** 2 < 1.0

    def measure(self):
        return math.pi * self.semi_x * self.semi_y

    def box(self):
        h = np.array([self.semi_x, self.semi_y])
        return -h, h


def two_balls(separation: float = 4.0, radius: float = 1.0, dim: int = 2):
    """Two equal balls centered at (+-separation/2, 0, ...), the + ball first.

    The default separation 2(radius + 1) keeps the closures disjoint with a
    margin; the union rejects any separation <= 2 radius.
    """
    rest = (0.0,) * (dim - 1)
    return DisjointUnion(parts=tuple(Ball(center=(x1,) + rest, radius=radius, dim=dim)
                                     for x1 in (0.5 * separation, -0.5 * separation)))


# JSON kind -> what builds it: each shape class under its KIND, and the
# two_balls alias; a document's params are the builder's keyword arguments
KINDS = {cls.KIND: cls for cls in (Ball, Dumbbell, HalfDumbbell, Scaled, DisjointUnion,
                                   Rectangle, Ellipse)} | {"two_balls": two_balls}


def junction_radius(epsilon):
    """Half-width sqrt(2 eps - eps^2) of the dumbbell junction disk, for one
    eps or elementwise for an array."""
    return np.sqrt(2.0 * epsilon - epsilon * epsilon)


def contains(domain, x):
    """Strict membership test; x is one point (N,) or a batch (m, N)."""
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != domain.dim:
        raise ValueError(f"point has {pts.shape[1]} coordinates, domain dimension is {domain.dim}")
    inside = domain.inside(pts)
    return bool(inside[0]) if scalar else inside


@lru_cache(maxsize=256)
def cap_volume(epsilon: float, dim: int) -> float:
    """Volume of the spherical cap of height eps cut from a unit ball.

    V = int_0^eps omega_(N-1) (2t - t^2)^((N-1)/2) dt; the substitution
    t = s^2 removes the t^(1/2)-type behavior at t = 0 and leaves an
    integrand smooth enough for one fixed Gauss-Kronrod panel.  Cached, so
    that a dumbbell record's measure and its bound-path ratio
    (``asymptotics.ratio_curve``) integrate its cap once.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"cap height must satisfy 0 <= eps < 1, got {epsilon}")
    if epsilon == 0:
        return 0.0
    om = unit_ball_volume(dim - 1)
    power = 0.5 * (dim - 1)

    def integrand(s):
        return 2.0 * om * s * (s * s * (2.0 - s * s)) ** power

    return kronrod(integrand, 0.0, math.sqrt(epsilon))[0]


def normalization(domain):
    """(|domain|, t, factor) for the unit-measure copy Scaled(t, domain).

    t = (omega_N / |domain|)^(1/N) scales lengths, and eigenvalues of the
    copy are those of the domain times factor = (|domain| / omega_N)^(2/N).
    The dumbbell caps take one 15-point Gauss-Kronrod panel, within 4e-15
    relative of the closed form at every cap height; every other measure is
    closed-form.
    """
    vol = domain.measure()
    if not vol > 0 or not math.isfinite(vol):
        raise ValueError(f"cannot normalize degenerate measure {vol}")
    omega = unit_ball_volume(domain.dim)
    return vol, (omega / vol) ** (1.0 / domain.dim), (vol / omega) ** (2.0 / domain.dim)


# ---------------------------------------------------------------------------
# JSON round trip; exact field names are part of the CLI contract
# ---------------------------------------------------------------------------

def domain_to_dict(domain) -> dict:
    """{"kind", "N", "params"}: every init field but dim is a param of the
    same name, nested domains as documents and tuples as lists."""
    def encode(value):
        if isinstance(value, Domain):
            return domain_to_dict(value)
        return [encode(v) for v in value] if isinstance(value, tuple) else value

    return {"kind": domain.KIND, "N": domain.dim,
            "params": {f.name: encode(getattr(domain, f.name))
                       for f in fields(domain) if f.init and f.name != "dim"}}


def _decode(value, hint, where: str):
    """A param value decoded as its annotation ``hint`` asks: a domain from a
    document, a tuple from a list of items of the tuple's item type, and a
    float from a JSON number (not a boolean, string or null).  A value of
    another shape raises TypeError naming ``where``, the param and kind."""
    if type(None) in getattr(hint, "__args__", ()):  # optional: null is not a value
        hint = hint.__args__[0]
    if hint is Domain:
        if isinstance(value, dict):
            return domain_from_dict(value)
        expected = "a domain document"
    elif getattr(hint, "__origin__", None) is tuple:
        if isinstance(value, list):
            return tuple(_decode(item, hint.__args__[0], f"an item of {where}")
                         for item in value)
        expected = "a list"
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    else:
        expected = "a number"
    raise TypeError(f"{where} must be {expected}, got {value!r}")


def domain_from_dict(doc: dict):
    """``KINDS[kind]`` called with the decoded params, and N as ``dim`` if
    the kind takes one.  A document of the wrong shape, with a param the
    kind does not take (``dim`` too: it is N), whose N is not an integer,
    or whose N is not the built domain's dimension, raises ValueError."""
    try:
        kind, dim, params = doc["kind"], doc["N"], doc.get("params", {})
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError(f"N must be an integer, got {dim!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown domain kind {kind!r}")
        build = KINDS[kind]
        takes = inspect.signature(build).parameters
        for key in params.keys():
            if key == "dim" or key not in takes:
                names = ", ".join(n for n in takes if n != "dim")
                raise TypeError(f"kind {kind!r} has no parameter {key!r} "
                                f"(its params: {names}; the dimension is N)")
        kwargs = {key: _decode(value, takes[key].annotation, f"kind {kind!r} param {key!r}")
                  for key, value in params.items()}
        if "dim" in takes:
            kwargs["dim"] = dim
        domain = build(**kwargs)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed domain document: {exc}") from exc
    if domain.dim != dim:
        raise ValueError(f"malformed domain document: N is {dim}, but the "
                         f"{kind} domain has dimension {domain.dim}")
    return domain
