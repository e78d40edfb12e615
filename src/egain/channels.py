"""Gaussian channels (K, mu) and their minimal entropy gain.

A pair (K, mu) acts on covariance matrices by alpha -> K.T alpha K + mu and
is an admissible channel iff the Hermitian matrix

    mu - (i/2) (delta - K.T delta K)

is positive semidefinite; the two sign choices of the second term are
complex conjugates, so one certificate covers both. The channel is strict
when the certificate is positive definite and regular when det K != 0.

For a regular channel the minimal entropy gain over finite-entropy inputs
is the closed form log |det K|, attained along Gibbs states in the
infinite-temperature limit. The general lower bound -log ||Phi[I]|| equals
the same number because Phi[I] = |det K|^-1 I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleInputError, NonRegularChannelError
from .gaussian import QuadraticHamiltonian, entropy_of_covariance, gibbs_covariance
from .symplectic import (
    DEFAULT_TOL,
    HermitianCert,
    PhaseSpace,
    canonical_form,
    check_hermitian_psd,
    _require_symmetric,
)

__all__ = [
    "GaussianChannel",
    "GainReport",
    "make_channel",
    "preset_channel",
    "tensor_channels",
    "apply_to_covariance",
    "minimal_entropy_gain",
    "general_lower_bound",
    "gaussian_gain",
    "default_beta_grid",
    "gain_beta_sweep",
    "PRESET_NAMES",
]

PRESET_NAMES = ("attenuator", "amplifier", "classical-noise")


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Admissible Gaussian channel with its positivity certificate."""

    space: PhaseSpace
    K: np.ndarray
    mu: np.ndarray
    cert: HermitianCert
    strict: bool

    @property
    def regular(self) -> bool:
        """True iff K is nonsingular, so the closed-form gain applies."""
        sign, logdet = np.linalg.slogdet(self.K)
        if sign == 0.0:
            return False
        # Guard against numerically singular K: compare log |det K| against
        # the log of the Hadamard bound prod_j ||row_j||.
        log_hadamard = float(np.log(np.linalg.norm(self.K, axis=1)).sum())
        return float(logdet) > math.log(1e-12) + max(log_hadamard, math.log(1e-300))


def make_channel(
    K: np.ndarray, mu: np.ndarray, space: PhaseSpace, tol: float = DEFAULT_TOL
) -> GaussianChannel:
    """Validate (K, mu) against the channel positivity condition."""
    K = np.asarray(K, dtype=float)
    n = 2 * space.s
    if K.shape != (n, n):
        raise InadmissibleInputError(f"K must be {n}x{n}, got {K.shape}")
    mu = _require_symmetric(mu, space, tol)
    noise_bound = mu - 0.5j * (space.delta - K.T @ space.delta @ K)
    cert = check_hermitian_psd(noise_bound, tol)
    if not cert.is_positive_semidefinite:
        raise InadmissibleInputError(
            "channel noise is below the admissibility bound: min eigenvalue "
            f"{cert.min_eigenvalue:.3e}"
        )
    return GaussianChannel(
        space=space, K=K, mu=mu, cert=cert, strict=cert.is_positive_definite
    )


def preset_channel(
    name: str, k: float, noise: float = 0.0, tol: float = DEFAULT_TOL
) -> GaussianChannel:
    """One-mode named channels with minimal noise plus optional extra noise.

    attenuator (0 < k < 1) and amplifier (k > 1) use K = k I and the minimal
    admissible mu = |1 - k^2|/2 I; classical-noise requires k = 1 and uses
    mu = noise * I. ``noise`` adds isotropic classical noise on top of the
    minimal mu for any preset.
    """
    if noise < 0:
        raise InadmissibleInputError("noise must be nonnegative")
    space = canonical_form(1)
    eye = np.eye(2)
    if name == "attenuator":
        if not 0.0 < k < 1.0:
            raise InadmissibleInputError("attenuator requires 0 < k < 1")
        mu = (0.5 * (1.0 - k * k) + noise) * eye
    elif name == "amplifier":
        if not k > 1.0:
            raise InadmissibleInputError("amplifier requires k > 1")
        mu = (0.5 * (k * k - 1.0) + noise) * eye
    elif name == "classical-noise":
        if k != 1.0:
            raise InadmissibleInputError("classical-noise requires k = 1")
        mu = noise * eye
    else:
        raise InadmissibleInputError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return make_channel(k * eye, mu, space, tol)


def tensor_channels(a: GaussianChannel, b: GaussianChannel, tol: float = DEFAULT_TOL) -> GaussianChannel:
    """Parallel composition: block-diagonal K and mu on the joint phase space."""
    space = canonical_form(a.space.s + b.space.s)
    na, nb = 2 * a.space.s, 2 * b.space.s
    K = np.zeros((na + nb, na + nb))
    mu = np.zeros_like(K)
    K[:na, :na], K[na:, na:] = a.K, b.K
    mu[:na, :na], mu[na:, na:] = a.mu, b.mu
    return make_channel(K, mu, space, tol)


def apply_to_covariance(
    channel: GaussianChannel, alpha: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Covariance action alpha -> K.T alpha K + mu, with output admissibility check."""
    alpha = _require_symmetric(alpha, channel.space, tol)
    out = channel.K.T @ alpha @ channel.K + channel.mu
    out = 0.5 * (out + out.T)
    cert = check_hermitian_psd(out + 0.5j * channel.space.delta, tol)
    if not cert.is_positive_semidefinite:
        raise RuntimeError(
            "channel output violated admissibility, min eigenvalue "
            f"{cert.min_eigenvalue:.3e}; input covariance was likely inadmissible"
        )
    return out


def minimal_entropy_gain(channel: GaussianChannel) -> float:
    """Closed-form minimal entropy gain log |det K| of a regular channel."""
    if not channel.regular:
        raise NonRegularChannelError(
            "non-regular channel (det K = 0); the minimal entropy gain is undefined"
        )
    sign, logabs = np.linalg.slogdet(channel.K)
    return float(logabs)


def general_lower_bound(channel: GaussianChannel) -> float:
    """Lower bound -log ||Phi[I]|| on the entropy gain of any channel.

    Phi[I] = |det K|^-1 I for a Gaussian channel, so the bound is
    log |det K|, taken from slogdet because det K itself overflows for
    strongly amplifying channels on several modes.
    """
    if not channel.regular:
        raise NonRegularChannelError(
            "the lower bound -log ||Phi[I]|| requires a regular channel"
        )
    return float(np.linalg.slogdet(channel.K)[1])


def gaussian_gain(
    channel: GaussianChannel, alpha: np.ndarray, tol: float = DEFAULT_TOL
) -> float:
    """Entropy gain of the channel on the Gaussian state with covariance alpha."""
    out = apply_to_covariance(channel, alpha, tol)
    return entropy_of_covariance(out, channel.space, tol) - entropy_of_covariance(
        alpha, channel.space, tol
    )


def default_beta_grid(
    beta_max: float = 1.0, beta_min: float = 1e-6, points: int = 25
) -> np.ndarray:
    """Geometric inverse-temperature grid, descending from beta_max to beta_min."""
    if not (beta_max > beta_min > 0):
        raise InadmissibleInputError("need beta_max > beta_min > 0")
    if points < 2:
        raise InadmissibleInputError("need at least two grid points")
    return np.geomspace(beta_max, beta_min, int(points))


@dataclass(frozen=True, eq=False)
class GainReport:
    """Gibbs-state entropy gains along a descending beta grid."""

    beta_grid: np.ndarray
    gains: np.ndarray
    closed_form: float
    lower_bound_general: float
    converged: bool = field(default=True)


def gain_beta_sweep(
    channel: GaussianChannel,
    hamiltonian: QuadraticHamiltonian,
    beta_grid: np.ndarray | None = None,
    tol: float = 1e-3,
    beta_floor: float = 1e-12,
    adaptive: bool = True,
) -> GainReport:
    """Entropy gain on Gibbs states over a beta grid, with adaptive extension.

    Each gain is an exact difference of Gaussian entropies (no asymptotic
    expansion). When ``adaptive`` is set the grid is extended downward by
    factors of 10 until the last gain is within ``tol`` of the closed form
    or ``beta_floor`` is reached; the report's ``converged`` flag records
    which happened.
    """
    if not channel.regular:
        raise NonRegularChannelError("beta sweeps require a regular channel")
    if channel.space.s != hamiltonian.space.s:
        raise InadmissibleInputError("channel and Hamiltonian mode counts differ")
    if beta_grid is None:
        beta_grid = default_beta_grid()
    betas = np.asarray(beta_grid, dtype=float)
    if betas.ndim != 1 or betas.size == 0 or np.any(betas <= 0):
        raise InadmissibleInputError("beta grid must be positive")
    if np.any(np.diff(betas) >= 0):
        raise InadmissibleInputError("beta grid must be strictly descending")
    closed = minimal_entropy_gain(channel)
    betas = list(betas)
    gains = [gaussian_gain(channel, gibbs_covariance(hamiltonian, b)) for b in betas]
    converged = abs(gains[-1] - closed) < tol
    while adaptive and not converged and betas[-1] / 10.0 >= beta_floor:
        betas.append(betas[-1] / 10.0)
        gains.append(gaussian_gain(channel, gibbs_covariance(hamiltonian, betas[-1])))
        converged = abs(gains[-1] - closed) < tol
    return GainReport(
        beta_grid=np.array(betas),
        gains=np.array(gains),
        closed_form=closed,
        lower_bound_general=general_lower_bound(channel),
        converged=bool(converged),
    )
