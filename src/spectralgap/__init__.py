"""Spectral toolkit for the first two Dirichlet-Laplacian eigenvalues of
planar domains: exact ball spectra, masked-grid eigensolves with fitted-order
extrapolation, certified trial-field upper bounds near the two-ball point of
the attainable set, and the horizontal-tangent verdict."""

from .analytic import (
    BallSpectrum, ball_eigenfunction, ball_spectrum, bessel_j, bessel_zero,
    rescale_eigenvalue, theta_spectrum, unit_ball_volume,
)
from .asymptotics import SlopeFit, fit_slope, ratio_curve, verify_theorem
from .attainable import (
    SweepConfig, SweepRecord, cone_construction, default_sweep, lower_boundary,
    records_to_csv, region_check, sweep,
)
from .discretize import (
    DiscreteOperator, Grid2D, assemble, build_grid, extrapolate,
    extrapolate_three, fit_order,
)
from .eigensolve import EigenResult, rayleigh_residual, smallest_pairs
from .geometry import (
    Ball, ConeRegion, DisjointUnion, Dumbbell, Ellipse, HalfDumbbell,
    Rectangle, Scaled, cone_volume, contains, domain_from_dict, domain_to_dict,
    measure, normalization, rescale_to_unit_measure, two_balls,
)
from .pipeline import DomainSolve, solve_domain
from .testfn import (
    Lemma1Function, Lemma2Function, QuadConfig, lemma1_rayleigh,
    lemma1_value_and_gradient, lemma2_rayleigh, odd_extension_check,
    rayleigh_quotient,
)

__version__ = "0.1.0"
