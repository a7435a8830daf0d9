"""Power-law rate fits and the horizontal-tangent verdict.

The normalized dumbbell family approaches the two-ball point P from inside
the attainable region; its trajectory has horizontal tangent at P exactly
when

    ratio(eps) = (lambda2_norm(eps) - lambda2(P)) / (lambda1(P) - lambda1_norm(eps))

vanishes as eps -> 0.  The numerator is controlled from above by the cutoff
bound (~ eps^((N+1)/2)) and the denominator from below by the cone-corrected
bound (~ eps^(N/2)), so the bound-path ratio decays like sqrt(eps).  The
verdict checks monotone decay toward small eps, a factor-two endpoint
contraction, and a positive fitted exponent, all on the quadrature (bound)
path; grid eigenvalues only cross-check the large-eps end, where desk-scale
resolution suffices.  ``ratio_curve`` is the one place the ratio is formed:
its table holds both paths' ratios, one row per dumbbell record with
bounds, and the verdict and every ratio output read that table.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ball_spectrum, theta_spectrum, unit_ball_volume
from .geometry import cap_volume

# thresholds of the horizontal-tangent verdict; the exponent is fitted on
# RATE_FIT_WINDOW, the window the lemma rates are fitted on, beyond which
# higher-order corrections visibly bend the bound-path curve
RATE_FIT_WINDOW = (0.005, 0.1)
MAX_INVERSIONS = 1
ENDPOINT_FACTOR = 0.5
MIN_EXPONENT = 0.3

__all__ = [
    "SlopeFit",
    "CheckResult",
    "TheoremVerdict",
    "fit_slope",
    "ratio_curve",
    "verify_theorem",
]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power law y = gamma * eps^p on log-log axes."""

    exponent: float
    prefactor: float
    r_squared: float
    window: tuple
    n_points: int


def fit_slope(pairs, window=None) -> SlopeFit:
    """Fit (eps, y) pairs with y > 0 by ordinary least squares in log-log.

    ``window`` restricts to eps in [lo, hi]; at least 4 points must remain.
    Nonpositive y values are an error and are reported with their eps.
    """
    pts = [(float(e), float(y)) for e, y in pairs]
    if window is not None:
        lo, hi = window
        pts = [(e, y) for e, y in pts if lo - 1e-15 <= e <= hi + 1e-15]
    bad = [e for e, y in pts if y <= 0]
    if bad:
        raise ValueError(f"power-law fit requires positive values; nonpositive at eps = {bad}")
    if len(pts) < 4:
        raise ValueError(f"power-law fit needs >= 4 points, got {len(pts)}")
    logx = np.log([e for e, _ in pts])
    logy = np.log([y for _, y in pts])
    design = np.column_stack([logx, np.ones_like(logx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, logy, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((logy - predicted) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        r_squared=float(r2),
        window=(min(e for e, _ in pts), max(e for e, _ in pts)),
        n_points=len(pts),
    )


def _ratio(lam1, lam2, lam_p):
    """The grid-path ratio (lam2 - lam_p) / (lam_p - lam1), or None when a
    value is missing or the denominator is <= 0 (eps outside the asymptotic
    regime)."""
    if lam1 is None or lam2 is None or lam_p - lam1 <= 0:
        return None
    return (lam2 - lam_p) / (lam_p - lam1)


def _bound_ratio(rec, lam, dim):
    """The bound-path ratio of a dumbbell record without cancellation, or
    None when its denominator is <= 0.

    With the normalization factor 2^(2/N) g, g = (1 - c)^(2/N) and c the
    cap's share |cap| / omega_N of the unit ball, the quotients are
    2^(2/N) g (lam - d) and 2^(2/N) g (lam + x) and lambda(P) = 2^(2/N) lam,
    so the ratio is (lam (g - 1) + x g) / (d g - lam (g - 1)): no O(1)
    numbers are subtracted, as g - 1 = expm1((2/N) log1p(-c)) is formed
    directly.
    """
    c = cap_volume(rec.param, dim) / unit_ball_volume(dim)
    g1 = math.expm1(2.0 / dim * math.log1p(-c))
    den = rec.deficit * (1.0 + g1) - lam * g1
    if den <= 0:
        return None
    return (lam * g1 + rec.excess * (1.0 + g1)) / den


def ratio_curve(records, dim: int = 2) -> tuple:
    """The horizontal-tangent ratio table of dumbbell sweep records: one row
    (eps, bound_ratio, grid_ratio) per dumbbell record with bounds, in
    ascending eps.

    Bound path: numerator bounded above by the cutoff quotient, denominator
    bounded below by the cone quotient, formed from the record's deficit
    and excess (``_bound_ratio``).  Grid path: the ratio of the
    extrapolated normalized eigenvalues, where present.  A missing ratio,
    or one whose denominator is <= 0, is None.
    """
    lam, lam_p = ball_spectrum(dim).lambda1, theta_spectrum(dim)[0]
    dumbbells = sorted((r for r in records if r.family == "dumbbell" and r.bound1 is not None),
                       key=lambda r: r.param)
    return tuple((rec.param, _bound_ratio(rec, lam, dim),
                  _ratio(rec.lambda1_norm, rec.lambda2_norm, lam_p)) for rec in dumbbells)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class TheoremVerdict:
    """The three checks, the ``ratio_curve`` table they read, and the fit."""

    passed: bool
    checks: tuple
    ratios: tuple
    fit: SlopeFit


def verify_theorem(records, dim: int = 2) -> TheoremVerdict:
    """PASS when the bound-path ratio (a) decreases toward small eps with at
    most MAX_INVERSIONS exceptions, (b) contracts by ENDPOINT_FACTOR from the
    largest to the smallest eps, and (c) fits a positive power law with
    exponent >= MIN_EXPONENT."""
    table = ratio_curve(records, dim=dim)
    ratios = [(eps, bound) for eps, bound, _ in table if bound is not None]
    if len(ratios) < 4:
        raise ValueError(f"theorem verdict needs >= 4 bound-path ratios, got {len(ratios)}")
    values = [r for _, r in ratios]

    inversions = sum(1 for a, b in zip(values, values[1:]) if a >= b)
    check_a = CheckResult(
        name="monotone_decay",
        passed=inversions <= MAX_INVERSIONS,
        detail=f"{inversions} inversions along {len(values)} points "
               f"(allowed {MAX_INVERSIONS})",
    )
    contraction = values[0] / values[-1]
    check_b = CheckResult(
        name="endpoint_contraction",
        passed=values[0] <= ENDPOINT_FACTOR * values[-1],
        detail=f"ratio({ratios[0][0]:.6g}) / ratio({ratios[-1][0]:.6g}) = {contraction:.4f} "
               f"(required <= {ENDPOINT_FACTOR})",
    )
    fit = fit_slope(ratios, window=RATE_FIT_WINDOW)
    check_c = CheckResult(
        name="fitted_exponent",
        passed=fit.exponent >= MIN_EXPONENT,
        detail=f"exponent {fit.exponent:.4f} over window {fit.window} "
               f"(required >= {MIN_EXPONENT}, r2 = {fit.r_squared:.6f})",
    )
    checks = (check_a, check_b, check_c)
    return TheoremVerdict(
        passed=all(c.passed for c in checks),
        checks=checks,
        ratios=table,
        fit=fit,
    )
