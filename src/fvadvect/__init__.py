"""Finite-volume scalar advection with FCT-limited high-order fluxes."""

from .analysis import (
    max_stable_sigma,
    phase_dissipation_curve,
    rk4_amplification,
    stability_table,
    stencil_eigenvalue,
)
from .driver import NumericsError, RunResult, integrate
from .fct import fct_advance
from .grid import Grid, Workspace, conserved_sum, flux_divergence, neighbour_apply
from .problems import (
    ErrorRecord,
    ProblemSpec,
    convergence_study,
    exact_solution,
    initial_condition,
    max_norm_error,
    standard_problem,
)
from .schemes import (
    SCHEME_NAMES,
    FaceFlow,
    default_product_order,
    face_flow,
    scheme_coefficients,
)
from .velocity import (
    ConstantDiagonal,
    SolidBodyRotation,
    cell_average_velocity,
    face_average_velocity,
    make_velocity,
    max_speed,
)

__version__ = "0.1.0"
