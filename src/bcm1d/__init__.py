"""Boundary-control reconstruction of a damping perturbation in 1D.

The package simulates Neumann-to-Dirichlet measurements for the damped wave
equation on an interval, synthesizes exact boundary controls by time
reversal, evaluates the boundary identities that turn those measurements
into interior moments of the damping perturbation, and assembles the
truncated Fourier reconstruction together with its error metrics.
"""

from .control import ControlBundle, ControlReport, build_control, verify_control
from .core import (
    BoundaryTrace,
    ConfigurationError,
    FourierCoeffs,
    GridMismatchError,
    GridSpec,
    MediumSpec,
    UnsupportedRegimeError,
    discrete_sobolev_norm,
)
from .extension import (
    AnalyticProfile,
    cosine_profile,
    sine_profile,
)
from .identity import (
    ControlData,
    IdentityReport,
    StabilityReport,
    linearized_rhs,
    nonlinear_identity_residual,
    stability_bound_check,
    weighted_volume_pairing,
)
from .recon import (
    LINEARIZED,
    NONLINEAR_DIFFERENCE,
    ReconResult,
    ReconSettings,
    acquire_clean_pair_data,
    add_noise,
    apply_measurement_noise,
    assemble_coefficients,
    fourier_targets,
    projection_truth,
    reconstruct,
    reconstruct_from_data,
    synthesize,
)
from .solver import (
    SolveOutput,
    linearized_nd_map_many,
    solve_many,
    transfer_difference_nd_map,
    transfer_linearized_nd_map,
)

__version__ = "0.1.0"
