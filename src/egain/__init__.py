"""Minimal entropy gain of bosonic Gaussian channels.

Exact phase-space computations (closed-form gain, Gibbs-state sweeps,
Gaussian extremality) cross-checked by a truncated Fock-space oracle, plus
a classical counterexample with unbounded entropy gain.
"""

from .errors import (
    HypothesisViolationError,
    InadmissibleInputError,
    NonRegularChannelError,
)
from .symplectic import (
    DEFAULT_TOL,
    HermitianCert,
    PhaseSpace,
    WilliamsonDecomposition,
    canonical_form,
    check_hermitian_psd,
    symplectic_eigenvalues,
    williamson,
)
from .gaussian import (
    GaussianState,
    GibbsState,
    QuadraticHamiltonian,
    entropy_matrix_form,
    entropy_of_covariance,
    gaussian_entropy,
    gaussian_state,
    gibbs_covariance,
    gibbs_state,
    log_partition,
    mean_energy,
    mode_entropy,
    quadratic_hamiltonian,
)
from .channels import (
    GainReport,
    GaussianChannel,
    apply_to_covariance,
    default_beta_grid,
    gain_beta_sweep,
    gaussian_gain,
    make_channel,
    minimal_entropy_gain,
    preset_channel,
    tensor_channels,
)
from .fock import (
    DilationChannel,
    FockDensityMatrix,
    apply_channel,
    build_dilation,
    covariance_of,
    fock_density,
    lower_bound_campaign,
    random_low_support_state,
    thermal_state,
    verify_lower_bound,
    verify_extremality,
    von_neumann_entropy,
)
from .classical import (
    HeavyTailDistribution,
    channel_row_entropy,
    doubly_stochastic_check,
    heavy_tail,
    xor_family,
)
from .matio import load_matrix, read_json, write_json

__version__ = "0.1.0"
