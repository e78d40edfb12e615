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
from collections import namedtuple
from functools import cached_property

import numpy as np

# read at call time: gain never runs gaussian, which only sweeps and gaussian_gain call
from . import gaussian, symplectic
from .errors import DEFAULT_TOL, InadmissibleInputError, NonRegularChannelError, _beta_grid_points
from .presets import PRESET_NAMES, _preset_noise
from .records import ByIdentity

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

_SWEEP_TOL = 1e-3
_BETA_FLOOR = 1e-12
# Bound on a preset's noise entry m: the checks take the size of mu = m I as sqrt(m^2 + m^2)
_MU_ENTRY_MAX = math.sqrt(0.5 * np.finfo(float).max)


class GaussianChannel(ByIdentity, namedtuple("GaussianChannel", "space K mu cert strict")):
    """Admissible Gaussian channel with its positivity certificate.

    slogdet(K) and ``regular`` are solved once, on first use; ``make_channel``
    keeps read-only copies of K and mu, so that they cannot go stale.
    """

    space: symplectic.PhaseSpace
    K: np.ndarray
    mu: np.ndarray
    cert: symplectic.HermitianCert
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
    K: np.ndarray, mu: np.ndarray, space: symplectic.PhaseSpace, tol: float = DEFAULT_TOL
) -> GaussianChannel:
    """Validate (K, mu) against the channel positivity condition.

    K is refused for an entry that is not a finite number before any
    arithmetic, as mu is by ``_require_symmetric``. The noise bound is then
    certified by ``symplectic._noise_certified``, which builds it, Hermitian up
    to the rounding of K.T delta K, so no Hermitian defect is tested.
    """
    K = np.array(K, dtype=float)
    n = 2 * space.s
    if K.shape != (n, n):
        raise InadmissibleInputError(f"K must be {n}x{n}, got {K.shape}")
    if not np.isfinite(K).all():
        raise InadmissibleInputError("channel matrix K has an entry that is not a finite number")
    mu = symplectic._require_symmetric(mu, space, tol, "channel noise mu")
    cert = symplectic._noise_certified(K, mu, space, tol)
    K.flags.writeable = mu.flags.writeable = False
    return GaussianChannel(space=space, K=K, mu=mu, cert=cert, strict=cert.is_positive_definite)


def preset_channel(
    name: str, k: float, noise: float | None = 0.0, tol: float = DEFAULT_TOL
) -> GaussianChannel:
    """One-mode named channels with minimal noise plus optional extra noise.

    attenuator (0 < k < 1), amplifier (k > 1) and classical-noise (k = 1) use K = k I and the
    minimal admissible mu = |1 - k^2|/2 I; ``noise`` (None is 0) adds isotropic classical noise
    on top. ``presets._preset_noise`` refuses what lies outside a preset's domain; refused here
    are an attenuator k^2 that underflows and a noise entry that squares past the float range.
    """
    noise = _preset_noise(name, k, noise)
    if name == "attenuator" and k * k < np.finfo(float).tiny:  # every larger k keeps K = k I regular
        raise InadmissibleInputError(f"k = {k:.3g} is too small: k^2 underflows")
    minimal = 0.5 * abs(1.0 - k * k)
    # on Python floats a sum past the range is inf, with no warning, and is refused below
    m = float(minimal) + noise
    if not m < _MU_ENTRY_MAX:
        named = f"k = {k:.3g}" if minimal > noise else f"noise = {noise:.3g}"
        raise InadmissibleInputError(f"{named} is too large: the noise entry mu = {m:.3g} squares past the float range")
    return make_channel(k * np.eye(2), m * np.eye(2), symplectic.canonical_form(1), tol)


def tensor_channels(a: GaussianChannel, b: GaussianChannel) -> GaussianChannel:
    """Parallel composition: block-diagonal K and mu on the joint phase space."""
    space = symplectic.canonical_form(a.space.s + b.space.s)
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
    return _apply(channel, symplectic._require_symmetric(alpha, channel.space, DEFAULT_TOL))[0]


def _apply(channel: GaussianChannel, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``apply_to_covariance`` on an exactly symmetric matrix or stack, which it does not validate.

    Returns the output with the symplectic spectrum its certificate is read off.
    """
    out = _image(channel, alpha)
    return out, symplectic._certified(out, channel.space, "channel output")[0]


def _image(channel: GaussianChannel, alpha: np.ndarray) -> np.ndarray:
    """K.T alpha K + mu, exactly symmetric, with no check."""
    out = channel.K.T @ alpha @ channel.K + channel.mu
    return 0.5 * (out + out.swapaxes(-1, -2))


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
    alpha, nu_in, _ = gaussian._covariance(alpha, channel.space)
    return float(gaussian._entropies(_apply(channel, alpha)[1])) - float(gaussian._entropies(nu_in))


def default_beta_grid(
    beta_max: float = 1.0, beta_min: float = 1e-6, points: int = 25
) -> np.ndarray:
    """Geometric inverse-temperature grid, descending from beta_max to beta_min."""
    return np.geomspace(beta_max, beta_min, _beta_grid_points(beta_max, beta_min, points))


_DEFAULT_GRID = default_beta_grid()  # built and validated once; read-only
_DEFAULT_GRID.flags.writeable = False


class GainReport(ByIdentity, namedtuple("GainReport", "beta_grid gains closed_form converged")):
    """Gibbs-state entropy gains along a descending beta grid."""

    __slots__ = ()
    beta_grid: np.ndarray
    gains: np.ndarray
    closed_form: float
    converged: bool


def _gibbs_gains(
    channel: GaussianChannel, hamiltonian: gaussian.QuadraticHamiltonian, betas: np.ndarray
) -> np.ndarray:
    """Gains on the Gibbs states at each beta, the whole grid as one stack of matrices.

    The Gibbs covariances and their channel outputs are formed and certified as one stack,
    every check on each beta. On a refusal or a floating-point event the grid is evaluated
    again one beta at a time, so the error (or warning) raised is the one a loop meets first.
    """
    try:
        alpha = gaussian._gibbs_cotangent(hamiltonian, betas)
        with np.errstate(all="raise", under="ignore"):
            both = np.concatenate([alpha, _image(channel, alpha)])
            nu = symplectic._certified(both, channel.space, "Gibbs covariance or channel output")[0]
    except (InadmissibleInputError, FloatingPointError):
        spectra = []  # per beta, of its Gibbs covariance, then of its channel output
        for beta in betas[:, None]:
            alpha = gaussian._gibbs_cotangent(hamiltonian, beta)
            spectra += [symplectic._certified(alpha, channel.space, "Gibbs covariance")[0], _apply(channel, alpha)[1]]
        nu = np.concatenate(spectra[0::2] + spectra[1::2])
    entropies = gaussian._entropies(nu)
    return entropies[len(betas):] - entropies[: len(betas)]


def gain_beta_sweep(
    channel: GaussianChannel,
    hamiltonian: gaussian.QuadraticHamiltonian,
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
    gains = _gibbs_gains(channel, hamiltonian, betas)
    converged = abs(gains[-1] - closed) < _SWEEP_TOL
    while not converged and betas[-1] / 10.0 >= _BETA_FLOOR:
        betas = np.append(betas, betas[-1] / 10.0)
        gains = np.append(gains, _gibbs_gains(channel, hamiltonian, betas[-1:]))
        converged = abs(gains[-1] - closed) < _SWEEP_TOL
    return GainReport(np.array(betas), gains, closed, bool(converged))  # the report owns a copy of its grid
