"""Spectral toolkit for the first two Dirichlet-Laplacian eigenvalues of
planar domains: exact ball spectra, masked-grid eigensolves with fitted-order
extrapolation, variational trial-field upper bounds with estimated quadrature
error near the two-ball point of the attainable set, and the
horizontal-tangent verdict."""

from .analytic import (
    BallSpectrum, ball_spectrum, bessel_j, bessel_zero, rescale_eigenvalue,
    theta_spectrum, unit_ball_volume,
)
from .asymptotics import SlopeFit, fit_slope, ratio_curve, verify_theorem
from .attainable import SweepConfig, SweepRecord, default_sweep, region_check, sweep
from .discretize import DiscreteOperator, Grid2D, assemble, build_grid, extrapolate
from .eigensolve import EigenResult, smallest_pairs
from .geometry import (
    Ball, DisjointUnion, Dumbbell, Ellipse, HalfDumbbell, Rectangle, Scaled,
    contains, domain_from_dict, domain_to_dict, normalization, two_balls,
)
from .pipeline import DomainSolve, solve_domain
from .testfn import (
    Lemma1Function, Lemma2Function, lemma1_rayleigh, lemma2_rayleigh,
    odd_extension_check, rayleigh_quotient,
)

__version__ = "0.1.0"
