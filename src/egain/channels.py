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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InadmissibleInputError, NonRegularChannelError
from .gaussian import QuadraticHamiltonian, _entropies, _gibbs_covariances, gaussian_state
from .symplectic import (
    DEFAULT_TOL,
    HermitianCert,
    PhaseSpace,
    canonical_form,
    check_hermitian_psd,
    _refuse,
    _require_decidable,
    _require_symmetric,
    _spectrum_and_factor,
    _uncertainty_cert,
)

__all__ = [
    "GaussianChannel",
    "GainReport",
    "make_channel",
    "preset_channel",
    "tensor_channels",
    "apply_to_covariance",
    "minimal_entropy_gain",
    "gaussian_gain",
    "default_beta_grid",
    "gain_beta_sweep",
    "PRESET_NAMES",
]

PRESET_NAMES = ("attenuator", "amplifier", "classical-noise")
_SWEEP_TOL = 1e-3
_BETA_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Admissible Gaussian channel with its positivity certificate.

    slogdet(K) and ``regular`` are solved once, on first use; ``make_channel``
    keeps read-only copies of K and mu, so that they cannot go stale.
    """

    space: PhaseSpace
    K: np.ndarray
    mu: np.ndarray
    cert: HermitianCert
    strict: bool

    @cached_property
    def _slogdet(self):
        return np.linalg.slogdet(self.K)

    @cached_property
    def regular(self) -> bool:
        """True iff K is nonsingular, so the closed-form gain applies."""
        sign, logdet = self._slogdet
        if sign == 0.0:
            return False
        # Guard against numerically singular K: compare log |det K| against
        # the log of the Hadamard bound prod_j ||row_j||.
        log_hadamard = float(np.log(np.linalg.norm(self.K, axis=1)).sum())
        return float(logdet) > math.log(1e-12) + max(log_hadamard, math.log(1e-300))


def make_channel(
    K: np.ndarray, mu: np.ndarray, space: PhaseSpace, tol: float = DEFAULT_TOL
) -> GaussianChannel:
    """Validate (K, mu) against the channel positivity condition.

    The noise bound M = mu - (i/2)(delta - K.T delta K) is certified on
    D^-1 M D^-1, D = diag(mu_jj)^(1/2), by ``check_hermitian_psd``: the
    diagonal of the second term is zero, so that matrix has a unit diagonal
    and a least eigenvalue that does not change with a squeezing of mu along
    the axes.
    """
    K = np.array(K, dtype=float)
    n = 2 * space.s
    if K.shape != (n, n):
        raise InadmissibleInputError(f"K must be {n}x{n}, got {K.shape}")
    mu = _require_symmetric(mu, space, tol, "channel noise mu")
    noise_bound = mu - 0.5j * (space.delta - K.T @ space.delta @ K)
    cert = check_hermitian_psd(noise_bound, tol)
    if not cert.is_positive_semidefinite:
        raise InadmissibleInputError(
            "channel noise is below the admissibility bound: min eigenvalue "
            f"{cert.min_eigenvalue:.3e}"
        )
    K.flags.writeable = mu.flags.writeable = False
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
        if k * k < np.finfo(float).tiny:  # every larger k keeps K = k I regular
            raise InadmissibleInputError(f"k = {k:.3g} is too small: k^2 underflows")
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


def tensor_channels(a: GaussianChannel, b: GaussianChannel) -> GaussianChannel:
    """Parallel composition: block-diagonal K and mu on the joint phase space."""
    space = canonical_form(a.space.s + b.space.s)
    na, nb = 2 * a.space.s, 2 * b.space.s
    K = np.zeros((na + nb, na + nb))
    mu = np.zeros_like(K)
    K[:na, :na], K[na:, na:] = a.K, b.K
    mu[:na, :na], mu[na:, na:] = a.mu, b.mu
    return make_channel(K, mu, space)


def apply_to_covariance(channel: GaussianChannel, alpha: np.ndarray) -> np.ndarray:
    """Covariance action alpha -> K.T alpha K + mu, with output admissibility check.

    A (B, 2s, 2s) stack of covariances gives the stack of outputs.
    """
    return _apply(channel, _require_symmetric(alpha, channel.space, DEFAULT_TOL))[0]


def _apply(channel: GaussianChannel, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``apply_to_covariance`` on an exactly symmetric matrix or stack, which it does not validate.

    Returns the output with the symplectic spectrum its certificate is read off.
    """
    out = channel.K.T @ alpha @ channel.K + channel.mu
    out = 0.5 * (out + out.swapaxes(-1, -2))
    nu, factor = _spectrum_and_factor(out, channel.space, "channel output")
    _require_decidable(nu, DEFAULT_TOL, out, factor, "channel output")
    cert = _uncertainty_cert(nu, DEFAULT_TOL)
    _refuse(
        np.logical_not(cert.is_positive_semidefinite),
        RuntimeError,
        "channel output violated admissibility, min eigenvalue {:.3e}; "
        "input covariance was likely inadmissible",
        cert.min_eigenvalue,
    )
    return out, nu


def minimal_entropy_gain(channel: GaussianChannel) -> float:
    """Closed-form minimal entropy gain log |det K| of a regular channel.

    It is also the general lower bound -log ||Phi[I]|| on the entropy gain of
    any channel, since Phi[I] = |det K|^-1 I for a Gaussian channel. It is
    taken from slogdet because det K itself overflows for strongly
    amplifying channels on several modes.
    """
    if not channel.regular:
        raise NonRegularChannelError(
            "non-regular channel (det K = 0); the minimal entropy gain is undefined"
        )
    return float(channel._slogdet[1])


def gaussian_gain(channel: GaussianChannel, alpha: np.ndarray) -> float:
    """Entropy gain of the channel on the Gaussian state with covariance alpha.

    alpha must pass the uncertainty bound.
    """
    state = gaussian_state(channel.space, np.zeros(2 * channel.space.s), alpha)
    nu_out = _apply(channel, state.alpha)[1]
    return float(_entropies(nu_out)) - float(_entropies(state.nu))


def default_beta_grid(
    beta_max: float = 1.0, beta_min: float = 1e-6, points: int = 25
) -> np.ndarray:
    """Geometric inverse-temperature grid, descending from beta_max to beta_min."""
    if not (beta_max > beta_min > 0):
        raise InadmissibleInputError("need beta_max > beta_min > 0")
    if points < 2:
        raise InadmissibleInputError("need at least two grid points")
    return np.geomspace(beta_max, beta_min, int(points))


_DEFAULT_GRID = default_beta_grid()  # built and validated once; read-only
_DEFAULT_GRID.flags.writeable = False


@dataclass(frozen=True, eq=False)
class GainReport:
    """Gibbs-state entropy gains along a descending beta grid."""

    beta_grid: np.ndarray
    gains: np.ndarray
    closed_form: float
    converged: bool


def _gibbs_gains(
    channel: GaussianChannel, hamiltonian: QuadraticHamiltonian, betas: np.ndarray
) -> np.ndarray:
    """Gains on the Gibbs states at each beta, the whole grid as one stack of matrices.

    Every check runs on each beta. When one fails, the betas before it are
    evaluated again, so the error raised is the one that evaluating the grid
    point by point (each beta through every check before the next) would
    meet first.
    """
    try:
        alpha, nu = _gibbs_covariances(hamiltonian, betas)
        return _entropies(_apply(channel, alpha)[1]) - _entropies(nu)
    except (InadmissibleInputError, RuntimeError) as exc:
        first = getattr(exc, "slice_index", 0)
        if first:
            _gibbs_gains(channel, hamiltonian, betas[:first])
        raise


def gain_beta_sweep(
    channel: GaussianChannel,
    hamiltonian: QuadraticHamiltonian,
    beta_grid: np.ndarray | None = None,
) -> GainReport:
    """Entropy gain on Gibbs states over a beta grid, with adaptive extension.

    Each gain is an exact difference of Gaussian entropies (no asymptotic
    expansion). The grid is extended downward by factors of 10 until the
    last gain is within ``_SWEEP_TOL`` of the closed form or ``_BETA_FLOOR``
    is reached; the report's ``converged`` flag records which happened.
    """
    if not channel.regular:
        raise NonRegularChannelError("beta sweeps require a regular channel")
    if channel.space.s != hamiltonian.space.s:
        raise InadmissibleInputError("channel and Hamiltonian mode counts differ")
    if beta_grid is None:
        betas = _DEFAULT_GRID
    else:
        betas = np.asarray(beta_grid, dtype=float)
        if betas.ndim != 1 or betas.size == 0 or np.any(betas <= 0):
            raise InadmissibleInputError("beta grid must be positive")
        if np.any(np.diff(betas) >= 0):
            raise InadmissibleInputError("beta grid must be strictly descending")
    closed = minimal_entropy_gain(channel)
    gains = list(_gibbs_gains(channel, hamiltonian, betas))
    betas = list(betas)
    converged = abs(gains[-1] - closed) < _SWEEP_TOL
    while not converged and betas[-1] / 10.0 >= _BETA_FLOOR:
        betas.append(betas[-1] / 10.0)
        gains.extend(_gibbs_gains(channel, hamiltonian, np.array(betas[-1:])))
        converged = abs(gains[-1] - closed) < _SWEEP_TOL
    return GainReport(
        beta_grid=np.array(betas),
        gains=np.array(gains),
        closed_form=closed,
        converged=bool(converged),
    )
