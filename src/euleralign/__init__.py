"""Pseudospectral simulation and frequency-analysis toolkit for the
compressible Euler-alignment system with fractional-Laplacian velocity
alignment."""

from .grid import Grid, GridError, SpectralField
from .operators import (
    ParameterError,
    dealias,
    divergence,
    fractional_laplacian,
    gradient,
    heat_semigroup,
    lambda_inv_div,
    leray_project,
    physical_product,
    spectral_derivative,
)
from .lp import LPDecomp, chi_profile, phi_profile
from .besov import (
    DataError,
    NormSpec,
    NormTrace,
    besov_norm,
    bony_decompose,
    chemin_lerner,
)
from .model import (
    ModelParams,
    State,
    VacuumError,
    alignment_commutator,
    alignment_direct,
    frac_laplacian_constant,
    h_of_sigma,
    rho_from_sigma,
    rhs,
    rhs_conservative,
    scaling_check,
    sigma_from_rho,
)
from .linear import (
    DELTA,
    LinearEnergyParams,
    energy_Yj,
    kernel_bound_check,
    mode_eigenvalues,
    mode_matrix,
    propagate_pair_field,
    rate_floor,
    regime_classify,
)
from .simulation import (
    DecaySpec,
    Recorder,
    SimConfig,
    decay_fit,
    fractional_heat_trace,
    initial_state,
    linear_exact_flow,
    run,
    step,
    z_norms,
)
from .config import ConfigError, parse_config, parse_config_file
from .snapshot import SnapshotError, read_snapshot, write_snapshot

__version__ = "0.1.0"
