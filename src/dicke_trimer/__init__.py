"""Mean-field solver for a three-site Dicke lattice with photon and atom hopping.

Computes ground states (normal, normal-superradiant, frustrated-superradiant),
excitation spectra via symplectic diagonalization, critical points, and full
phase diagrams, with an independent brute-force verification oracle.
"""

__version__ = "0.1.0"

from .model import (
    ModelParams,
    CriticalCouplings,
    RegionLabel,
    ParameterError,
    hopping_matrix,
    x_from_alpha,
    alpha_from_x,
    critical_couplings,
    dividing_curve,
    first_order_point,
    classify_region,
)
from .meanfield import (
    DomainError,
    MeanFieldState,
    PhaseResult,
    energy,
    gradient,
    hessian,
    state_from_x,
    asymptotic_fsp,
    solve_ground_state,
    root_structure,
    solve_atom_only,
)
from .spectrum import (
    SpectrumResult,
    excitation_spectrum,
    analytic_np_spectrum,
    soft_mode_gap,
    fit_critical_exponent,
)
from .oracle import OracleConfig, brute_force_minimize, detect_transitions
