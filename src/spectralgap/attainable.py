"""Domain-family sweeps onto the (lambda1, lambda2) plane.

Each record normalizes a domain to unit measure omega_N and carries grid
eigenvalues (raw per level, extrapolated, normalized) plus, for dumbbells,
the normalized quadrature bounds from the two trial-field constructions.
Region checks test the sharp inclusions satisfied by every unit-measure
domain: lambda1 >= lambda1(ball) (ball minimizes lambda1), lambda2 >=
lambda2(two half balls) (that pair minimizes lambda2), and
1 <= lambda2/lambda1 <= lambda2(ball)/lambda1(ball).
"""

from dataclasses import dataclass, replace

import numpy as np

from .analytic import ball_spectrum, theta_spectrum
from .geometry import Ball, DisjointUnion, Dumbbell, Ellipse, Rectangle, normalization
from .pipeline import solve_domain
from .testfn import lemma1_rayleigh, lemma2_rayleigh

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "RegionReport",
    "DEFAULT_EPS_GRID",
    "DEFAULT_FAMILIES",
    "sweep",
    "default_sweep",
    "region_check",
]

# half-decade (factor sqrt(2)) grid from 5e-3 to 0.2; rates are fitted on
# the sub-decade [5e-3, 0.1]
DEFAULT_EPS_GRID = tuple(0.005 * 2.0 ** (k / 2.0) for k in range(11)) + (0.2,)
RATE_FIT_WINDOW = (0.005, 0.1)

DEFAULT_FAMILIES = {
    "ball": (1.0,),
    "two_balls_ratio": (0.8, 1.0),
    "rectangles": (1.0, 2.0, 3.0),
    "ellipses": (1.5, 2.0),
    "dumbbell": DEFAULT_EPS_GRID,
}

@dataclass(frozen=True)
class SweepConfig:
    h_list: tuple = (1 / 32, 1 / 64, 1 / 128)
    tol: float = 1e-6
    seed: int | None = None
    grid_eps_min: float = 0.1  # dumbbells below this carry bounds only
    jobs: int = 1
    dim: int = 2  # ambient dimension of the dumbbell family

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("solver tolerance must be > 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class SweepRecord:
    """One normalized point of the attainable cloud."""

    family: str
    param: float
    h_list: tuple = ()
    lambda1_raw: tuple = ()
    lambda2_raw: tuple = ()
    lambda1_x: float | None = None
    lambda2_x: float | None = None
    measure: float = float("nan")
    t_factor: float = float("nan")
    lambda1_norm: float | None = None
    lambda2_norm: float | None = None
    bound1: float | None = None
    bound2: float | None = None
    error_est: float = 0.0
    failure: str | None = None

    def normalized_pair(self):
        """(lambda1, lambda2) of the unit-measure copy: the grid pair when
        available, otherwise the quadrature bound pair."""
        if self.lambda1_norm is not None and self.lambda2_norm is not None:
            return self.lambda1_norm, self.lambda2_norm
        if self.bound1 is not None and self.bound2 is not None:
            return self.bound1, self.bound2
        return None


def _family_domain(family: str, param: float, dim: int):
    if family == "ball":
        return Ball(radius=param)
    if family == "dumbbell":
        return Dumbbell(epsilon=param, dim=dim)
    if family == "two_balls_ratio":
        if not 0 < param <= 1:
            raise ValueError(f"radius ratio must be in (0, 1], got {param}")
        gap = 2.0
        half = 0.5 * (1.0 + param + gap)
        return DisjointUnion(parts=(
            Ball(center=(-half, 0.0), radius=1.0),
            Ball(center=(half, 0.0), radius=param),
        ))
    if family == "rectangles":
        return Rectangle(width=param, height=1.0)
    if family == "ellipses":
        return Ellipse(semi_x=param, semi_y=1.0)
    raise ValueError(f"unknown sweep family {family!r}")


def _solve_one(family: str, param: float, config: SweepConfig) -> SweepRecord:
    domain = _family_domain(family, param, config.dim)
    vol, t, norm_factor = normalization(domain)
    record = SweepRecord(family=family, param=param, measure=vol, t_factor=t)

    if family == "dumbbell":
        b1 = lemma1_rayleigh(param, dim=domain.dim)
        b2 = lemma2_rayleigh(param, dim=domain.dim)
        quad_err = (b1.error_est + b2.error_est) * norm_factor
        record = replace(record,
                         bound1=b1.quotient * norm_factor,
                         bound2=b2.quotient * norm_factor,
                         error_est=record.error_est + quad_err)
        if param < config.grid_eps_min:
            return record

    solve = solve_domain(domain, config.h_list, tol=config.tol, seed=config.seed)
    return replace(
        record,
        h_list=solve.h_list,
        lambda1_raw=tuple(solve.raw(0)),
        lambda2_raw=tuple(solve.raw(1)),
        lambda1_x=float(solve.lambda_x[0]),
        lambda2_x=float(solve.lambda_x[1]),
        lambda1_norm=float(solve.lambda_norm[0]),
        lambda2_norm=float(solve.lambda_norm[1]),
        error_est=record.error_est + float(np.max(solve.error_est)),
    )


def _solve_one_guarded(args):
    family, param, config = args
    try:
        return _solve_one(family, param, config)
    except Exception as exc:  # record inline, sweep continues; no values, no budget
        return SweepRecord(family=family, param=param, error_est=float("nan"),
                           failure=f"{type(exc).__name__}: {exc}")


def sweep(family: str, params, config: SweepConfig = SweepConfig()) -> list:
    """Compute one SweepRecord per parameter; failures are recorded inline.

    Records are deterministic for a fixed config and are returned sorted by
    parameter regardless of the number of worker processes.  At most one
    process per parameter is started, and a single one runs in-process.
    An unknown family is a configuration error and raises instead.
    """
    if family not in DEFAULT_FAMILIES:
        raise ValueError(f"unknown sweep family {family!r}; known: "
                         f"{sorted(DEFAULT_FAMILIES)}")
    tasks = [(family, float(p), config) for p in params]
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_solve_one_guarded, tasks))
    else:
        records = [_solve_one_guarded(t) for t in tasks]
    return sorted(records, key=lambda r: r.param)


def default_sweep(config: SweepConfig = SweepConfig(), families=None) -> list:
    """The full default suite over all families, concatenated."""
    chosen = DEFAULT_FAMILIES if families is None else {
        f: DEFAULT_FAMILIES[f] for f in families
    }
    records = []
    for family, params in chosen.items():
        records.extend(sweep(family, params, config))
    return records


# ---------------------------------------------------------------------------
# region inclusion checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionReport:
    """Margins of the three sharp inclusions, each with its pass flag.

    Margins are signed distances into the admissible region; the tolerance
    is the record's own error budget.
    """

    faber_krahn_margin: float
    faber_krahn_ok: bool
    krahn_szego_margin: float
    krahn_szego_ok: bool
    ratio: float
    ratio_low_margin: float
    ratio_high_margin: float
    ashbaugh_benguria_ok: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.faber_krahn_ok and self.krahn_szego_ok and self.ashbaugh_benguria_ok


def region_check(record: SweepRecord, dim: int = 2) -> RegionReport:
    """Check a normalized record against the universal inclusions."""
    pair = record.normalized_pair()
    if pair is None:
        raise ValueError(f"record for {record.family}({record.param}) has no usable values: "
                         f"{record.failure}")
    lam1, lam2 = pair
    spec = ball_spectrum(dim)
    lam_theta = theta_spectrum(dim)[0]
    ab_limit = spec.lambda2 / spec.lambda1
    tol = record.error_est
    ratio = lam2 / lam1
    ratio_tol = 2.0 * tol / lam1
    return RegionReport(
        faber_krahn_margin=lam1 - spec.lambda1,
        faber_krahn_ok=lam1 >= spec.lambda1 - tol,
        krahn_szego_margin=lam2 - lam_theta,
        krahn_szego_ok=lam2 >= lam_theta - tol,
        ratio=ratio,
        ratio_low_margin=ratio - 1.0,
        ratio_high_margin=ab_limit - ratio,
        ashbaugh_benguria_ok=(1.0 - ratio_tol <= ratio <= ab_limit + ratio_tol),
        tolerance=tol,
    )

