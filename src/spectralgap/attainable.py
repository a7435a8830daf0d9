"""Domain-family sweeps onto the (lambda1, lambda2) plane.

Each record normalizes a domain to unit measure omega_N, once, and carries
grid eigenvalues (raw per level and extrapolated from ``solve_domain``, and
normalized) plus, for dumbbells, the normalized quadrature bounds from the
two trial-field constructions and the unnormalized deficit and excess they
carry, from which ``asymptotics.ratio_curve`` forms the bound-path ratio.  A failed record keeps the values before it.
A record holds no vectors or residuals, so its grid solve stops every level,
the finest included, on Temple's estimate (``solve_domain(values_only=True)``):
the values lie within tol * lambda of a residual-stopped solve's, in fewer
block iterations on the finest level.
"""

from dataclasses import dataclass, replace

import numpy as np

from .eigensolve import DEFAULT_SEED
from .geometry import Ball, DisjointUnion, Dumbbell, Ellipse, Rectangle, normalization
from .pipeline import halving_levels, solve_domain
from .testfn import check_epsilon, lemma1_rayleigh, lemma2_rayleigh

__all__ = ["SweepConfig", "SweepRecord", "DEFAULT_EPS_GRID", "DEFAULT_FAMILIES", "sweep"]

# half-decade (factor sqrt(2)) grid from 5e-3 to 0.2; rates are fitted on
# the sub-decade [5e-3, 0.1] (asymptotics.RATE_FIT_WINDOW)
DEFAULT_EPS_GRID = tuple(0.005 * 2.0 ** (k / 2.0) for k in range(11)) + (0.2,)

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
    seed: int = DEFAULT_SEED
    grid_eps_min: float = 0.1  # dumbbells below this carry bounds only
    jobs: int = 1
    dim: int = 2  # ambient dimension of every family's domains

    def __post_init__(self):
        # the spacings solve_domain will use: a list it would refuse is refused here
        object.__setattr__(self, "h_list", tuple(halving_levels(self.h_list)))
        if not 0 < self.tol < np.inf:
            raise ValueError(f"solver tolerance must be finite and > 0, got {self.tol}")
        if np.isnan(self.grid_eps_min):  # compares false: every dumbbell would be grid-solved
            raise ValueError(f"grid_eps_min must be a number, got {self.grid_eps_min}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
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
    deficit: float | None = None
    excess: float | None = None
    error_est: float = 0.0
    failure: str | None = None


def _family_domain(family: str, param: float, dim: int):
    """The family's domain at ``param`` in R^dim; the planar shapes refuse
    dim != 2 themselves."""
    if family == "ball":
        return Ball(radius=param, dim=dim)
    if family == "dumbbell":
        return Dumbbell(epsilon=param, dim=dim)
    if family == "two_balls_ratio":
        if not 0 < param <= 1:
            raise ValueError(f"radius ratio must be in (0, 1], got {param}")
        gap = 2.0
        half = 0.5 * (1.0 + param + gap)
        rest = (0.0,) * (dim - 1)
        return DisjointUnion(parts=(
            Ball(center=(-half, *rest), radius=1.0, dim=dim),
            Ball(center=(half, *rest), radius=param, dim=dim),
        ))
    if family == "rectangles":
        return Rectangle(width=param, height=1.0, dim=dim)
    return Ellipse(semi_x=param, semi_y=1.0, dim=dim)  # "ellipses"


def _solve_one(task) -> SweepRecord:
    """The record of one (family, param, bounds, config) task; ``bounds`` is
    a dumbbell's (Lemma1Bound, Lemma2Bound) pair, or the exception that
    refused it, and None for other families.  A failure is recorded
    inline and keeps the values computed before it: the measure and t, and
    for a dumbbell its bounds, whose budget is then the record's."""
    family, param, bounds, config = task
    record = SweepRecord(family=family, param=param)
    try:
        domain = _family_domain(family, param, config.dim)
        vol, t, norm_factor = normalization(domain)
        record = replace(record, measure=vol, t_factor=t)

        if family == "dumbbell":
            if isinstance(bounds, Exception):
                raise bounds
            b1, b2 = bounds
            record = replace(record,
                             bound1=b1.quotient * norm_factor,
                             bound2=b2.quotient * norm_factor,
                             deficit=b1.deficit, excess=b2.excess,
                             error_est=(b1.error_est + b2.error_est) * norm_factor)
            if param < config.grid_eps_min:
                return record

        solve = solve_domain(domain, config.h_list, tol=config.tol, seed=config.seed,
                             values_only=True)
    except Exception as exc:  # record inline, sweep continues
        budget = record.error_est if record.bound1 is not None else float("nan")
        return replace(record, error_est=budget, failure=f"{type(exc).__name__}: {exc}")
    lambda_norm = solve.lambda_x * norm_factor
    return replace(
        record,
        h_list=solve.h_list,
        lambda1_raw=tuple(solve.raw(0)),
        lambda2_raw=tuple(solve.raw(1)),
        lambda1_x=float(solve.lambda_x[0]),
        lambda2_x=float(solve.lambda_x[1]),
        lambda1_norm=float(lambda_norm[0]),
        lambda2_norm=float(lambda_norm[1]),
        error_est=record.error_est + float(np.max(solve.error_est_raw * norm_factor)),
    )


def _dumbbell_bounds(params, dim) -> dict:
    """{eps: (Lemma1Bound, Lemma2Bound)} from one call of each lemma over
    every accepted eps of ``params``, and {eps: exception} for each eps the
    bounds refuse, so that one refused eps fails only its own record."""
    refused = {}
    for eps in params:
        try:
            check_epsilon(eps)
        except ValueError as exc:
            refused[eps] = exc
    accepted = [eps for eps in params if eps not in refused]
    try:
        pairs = list(zip(lemma1_rayleigh(accepted, dim=dim), lemma2_rayleigh(accepted, dim=dim)))
    except Exception as exc:  # a batch that fails as a whole, e.g. on dim, fails each record
        pairs = [exc] * len(accepted)
    return {**dict(zip(accepted, pairs)), **refused}


def sweep(families: dict, config: SweepConfig = SweepConfig()) -> list:
    """One SweepRecord per parameter of ``{family: params}``, in family
    order and each family's sorted by parameter; failures are recorded inline.

    Records are deterministic for a fixed config whatever the number of
    workers.  The dumbbells' bounds are computed first, in this process,
    one batch per lemma; then all tasks share one pool of at most one
    process per task, and a single worker runs in-process.  An unknown
    family is a configuration error and raises instead.
    """
    for family in families:
        if family not in DEFAULT_FAMILIES:
            raise ValueError(f"unknown sweep family {family!r}; known: "
                             f"{sorted(DEFAULT_FAMILIES)}")
    params = {family: sorted(map(float, values)) for family, values in families.items()}
    bounds = _dumbbell_bounds(params["dumbbell"], config.dim) if "dumbbell" in params else {}
    tasks = [(family, p, bounds.get(p) if family == "dumbbell" else None, config)
             for family, values in params.items() for p in values]
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_solve_one, tasks))
    return [_solve_one(t) for t in tasks]
