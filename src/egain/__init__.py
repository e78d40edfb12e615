"""Minimal entropy gain of bosonic Gaussian channels.

Exact phase-space computations (closed-form gain, Gibbs-state sweeps,
Gaussian extremality) cross-checked by a truncated Fock-space oracle, plus
a classical counterexample with unbounded entropy gain.

``import egain`` runs the phase-space core and the matrix files only. The
Fock oracle and the classical counterexample, ``egain.fock`` and
``egain.classical``, run on their first attribute read, so subcommands that
never use them never compile them; their names below still import from here.
"""

import importlib.util
import sys

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
from .matio import load_matrix, read_json, write_json

__version__ = "0.1.0"


def _lazy(name: str):
    """Submodule ``name``, put in sys.modules now but run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fock = _lazy("fock")
classical = _lazy("classical")
_REEXPORTED = dict.fromkeys(
    (
        "DilationChannel", "FockDensityMatrix", "apply_channel", "build_dilation",
        "covariance_of", "fock_density", "lower_bound_campaign", "random_low_support_state",
        "thermal_state", "verify_lower_bound", "verify_extremality", "von_neumann_entropy",
    ),
    fock,
) | dict.fromkeys(
    ("HeavyTailDistribution", "channel_row_entropy", "doubly_stochastic_check", "heavy_tail", "xor_family"),
    classical,
)


def __getattr__(name: str):
    """A name re-exported from ``fock`` or ``classical``, read from its module on each access (PEP 562)."""
    if name not in _REEXPORTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_REEXPORTED[name], name)
