"""Minimal entropy gain of bosonic Gaussian channels.

Exact phase-space computations (closed-form gain, Gibbs-state sweeps,
Gaussian extremality) cross-checked by a truncated Fock-space oracle, plus
a classical counterexample with unbounded entropy gain.

``import egain`` runs ``errors`` only, so it loads no numpy.
Every other module is in sys.modules from then on, but runs on its first
attribute read, so a subcommand compiles only the modules it calls. Their
names below still import from here.
"""

import importlib.util
import sys

from .errors import (
    HypothesisViolationError,
    InadmissibleInputError,
    NonRegularChannelError,
)

__version__ = "0.1.0"


def _lazy(name: str):
    """Submodule ``name``, put in sys.modules now but run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


symplectic, gaussian, channels, matio, fock, classical = map(
    _lazy, ("symplectic", "gaussian", "channels", "matio", "fock", "classical")
)
_REEXPORTED = {
    name: module
    for module, names in (
        (symplectic, "DEFAULT_TOL HermitianCert PhaseSpace WilliamsonDecomposition canonical_form "
         "symplectic_eigenvalues williamson"),
        (gaussian, "GaussianState GibbsState QuadraticHamiltonian entropy_matrix_form entropy_of_covariance "
         "gaussian_entropy gaussian_state gibbs_covariance gibbs_state log_partition mean_energy "
         "mode_entropy quadratic_hamiltonian"),
        (channels, "GainReport GaussianChannel apply_to_covariance default_beta_grid gain_beta_sweep "
         "gaussian_gain make_channel minimal_entropy_gain preset_channel tensor_channels"),
        (matio, "read_json write_json"),
        (fock, "DilationChannel FockDensityMatrix apply_channel build_dilation covariance_of fock_density "
         "lower_bound_campaign random_low_support_state thermal_state verify_lower_bound "
         "verify_extremality von_neumann_entropy"),
        (classical, "HeavyTailDistribution channel_row_entropy doubly_stochastic_check heavy_tail xor_family"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    """A re-exported name, read from its module on each access (PEP 562)."""
    if name not in _REEXPORTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_REEXPORTED[name], name)
