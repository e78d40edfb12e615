"""Truncated Fock-space oracle for one-mode Gaussian channels.

Everything here is deliberately independent of the exact phase-space
machinery: states are dense d x d density matrices in the number basis,
channels act by explicit Kraus sums from two-mode unitary dilations: a
beamsplitter (attenuator), a two-mode squeezer (amplifier), or the one after
the other (classical noise), with the dilations' Kraus amplitudes taken in
closed form. Comparing entropy gains computed this way
against the closed-form and Gaussian-extremality predictions is the
package's main numerical evidence.

Each matrix is validated on the s leading levels it occupies, so random states
and attenuator outputs cost O(s^3) whatever the cutoff. Campaigns run their
trials in chunks of at most ``_STACK_BYTES`` as (B, d, d) stacks, from input
draw to record: a chunk's inputs are drawn in trial order with the generator
calls of B successive ``random_low_support_state`` draws and validated as one
(B, s, s) block, its references are solved as one (B, 2, 2) covariance stack
before its Kraus sums run, a raising stage weights its Kraus operators in
broadcasts of at most ``_STACK_BYTES`` each, adding them in l order, and its
occupancies and top-band masses are read off whole stacks. A stack gives each
state the bits it gives alone, and ``_record`` builds every trial's record, so
campaign records equal ``verify_*``'s.

Truncation policy: results carry a ``trace_deficit``, which includes the
mass a channel moves past the cutoff, and a trial whose states' deficits or
top-band populations (top ceil(0.2 d) levels) exceed 1e-6 is flagged unreliable;
unreliable trials are reported, never silently dropped. Bound checks use the
slack 50 * deficit + 1e-6, the deficit adding the output's top-band population.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import GaussianChannel, _apply, preset_channel
from .errors import HypothesisViolationError, InadmissibleInputError
from .gaussian import _entropies
from .symplectic import DEFAULT_TOL, _uncertainty_cert, symplectic_eigenvalues

__all__ = [
    "DEFAULT_DIM",
    "RELIABILITY_THRESHOLD",
    "TOP_BAND_FRACTION",
    "FockDensityMatrix",
    "DilationChannel",
    "fock_density",
    "number_state",
    "thermal_state",
    "von_neumann_entropy",
    "build_dilation",
    "apply_channel",
    "covariance_of",
    "top_band_mass",
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
# Least eigenvalue a density matrix may have: rounding, not a negative population.
_EIGENVALUE_FLOOR = -1e-10
DILATION_KINDS = ("attenuator", "amplifier", "classical_noise")


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Validated density matrix in the truncated number basis.

    ``trace_deficit`` records probability mass lost to the cutoff, both by
    the state's own tail and by any channel applications that produced it.
    ``spectrum`` holds the eigenvalues of ``rho`` (in no particular order),
    kept from validation so the entropy needs no second eigensolve; levels
    outside the occupied block contribute exact zeros.
    """

    dim: int
    rho: np.ndarray
    trace_deficit: float
    spectrum: np.ndarray


def fock_density(rho: np.ndarray) -> FockDensityMatrix:
    """Validate, symmetrize and renormalize a raw density matrix."""
    return _validated(np.array(rho, dtype=complex)[None], [0.0])[0]


def _levels(rho: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """Per matrix of a (..., d, d) stack, one past its last nonzero row or column, or 0."""
    nz = rho.view(float) != 0  # half the cost of comparing complex entries
    occupied = nz.any(axis=-1)
    if not hermitian:  # Hermitian up to signed zeros: nonzero columns lie on nonzero rows
        occupied |= nz.any(axis=-2).reshape(*occupied.shape, -1).any(axis=-1)
    return np.where(occupied.any(axis=-1), rho.shape[-1] - occupied[..., ::-1].argmax(axis=-1), 0)


def _validated(rho: np.ndarray, deficits) -> list[FockDensityMatrix]:
    """``fock_density`` on a (B, d, d) stack, in place, each matrix on its occupied block.

    Matrices on the same s levels are checked and solved as one (n, s, s)
    stack: each is symmetrized and handed to ``_normalized`` with the refusal
    of its Hermitian check, if it failed.
    """
    if rho.ndim != 3 or rho.shape[1] != rho.shape[2] or not rho.shape[1]:
        raise InadmissibleInputError(f"density matrix must be square and nonempty, not {rho.shape[1:]}")
    levels = _levels(rho)
    herm, scale = np.zeros(len(rho)), np.zeros(len(rho))
    for group, s in _groups(levels):
        block = rho[group, :s, :s]
        herm[group] = np.abs(block - block.conj().swapaxes(1, 2)).max(axis=(1, 2))
        scale[group] = np.abs(block).max(axis=(1, 2))
        block += block.conj().swapaxes(1, 2)
        block *= 0.5
        rho[group, :s, :s] = block
    refusals = [
        f"density matrix not Hermitian (defect {defect:.3e})" if defect > 1e-12 * size else ""
        for defect, size in zip(herm, np.maximum(1.0, scale))
    ]
    return _normalized(rho, deficits, levels, refusals)


def _groups(levels: np.ndarray):
    """(selector, s) for each nonzero occupancy s in ``levels``, in increasing s."""
    for s in sorted(set(levels.tolist()) - {0}):  # np.unique imports numpy.ma on first use
        yield (levels == s if np.ptp(levels) else slice(None)), s  # one occupancy: views, no copies


def _normalized(rho: np.ndarray, deficits, levels: np.ndarray, refusals) -> list[FockDensityMatrix]:
    """Hermitian (B, d, d) stack with occupancies ``levels``, checked and renormalized in place.

    A spectrum is d - s zeros, then the block's eigenvalues. The first matrix
    that fails a check raises: its nonempty entry of ``refusals``, else its
    eigenvalue or trace message.
    """
    low, tr = np.zeros(len(rho)), np.zeros(len(rho))  # a zero matrix fails on tr
    w = np.zeros(rho.shape[:2])
    for group, s in _groups(levels):
        block = rho[group, :s, :s]
        w[group, -s:] = np.linalg.eigvalsh(block)
        low[group] = w[group, -s]  # the block's least eigenvalue, not a padding zero
        tr[group] = np.trace(block, axis1=1, axis2=2).real
    for refusal, least, t in zip(refusals, low, tr):
        if refusal:
            raise InadmissibleInputError(refusal)
        if least < _EIGENVALUE_FLOOR:
            raise InadmissibleInputError(
                f"density matrix has eigenvalue {least:.3e} < {_EIGENVALUE_FLOOR}"
            )
        if t <= 0.5:
            raise InadmissibleInputError(f"density matrix trace {t:.3e} too far from 1")
    top = levels.max()  # past every matrix's block lie zeros, which renormalizing leaves zeros
    rho[:, :top, :top] /= tr[:, None, None]
    w /= tr[:, None]
    return [FockDensityMatrix(rho.shape[1], m, float(t), v) for m, t, v in zip(rho, deficits, w)]


def number_state(n: int, dim: int) -> FockDensityMatrix:
    """Pure number state |n><n|."""
    if not 0 <= n < dim:
        raise InadmissibleInputError("need 0 <= n < dim")
    pops = np.zeros(dim)
    pops[n] = 1.0
    return FockDensityMatrix(dim, np.diag(pops).astype(complex), 0.0, pops)


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
    pops = raw / (1.0 - deficit)
    return FockDensityMatrix(dim, np.diag(pops).astype(complex), float(deficit), pops)


def von_neumann_entropy(state: FockDensityMatrix) -> float:
    """Entropy -tr(rho log rho) in nats, with 0 log 0 = 0."""
    w = state.spectrum[state.spectrum > 0.0]
    return float(-(w * np.log(w)).sum())


def _amplitudes(k: float, dim: int) -> np.ndarray:
    """Kraus amplitudes of the attenuator (k < 1) or amplifier (k > 1), in closed form.

    Each Kraus operator V_l is a weighted shift: it sends |n> to |n - l>
    (k < 1) or |n + l> (k > 1) with amplitude amps[l, n], so row l of the
    (dim, dim) table is its diagonal. With m the lower of the input and output
    levels and t = k or 1/k, the amplitude is sqrt(C(m + l, l)) t^m (1 - t^2)^(l/2)
    for the attenuator, and t times that for the amplifier (Ivan, Sabapathy and
    Simon, PRA 84, 042311 (2011)). Entries whose output level passes the cutoff
    are zero: the amplifier's column n then sums to the mass it keeps, so the
    loss shows in ``trace_deficit``.
    """
    lowering = k < 1.0
    t = k if lowering else 1.0 / k
    l, n = np.indices((dim, dim))
    low = n - l if lowering else n
    kept = (low >= 0) & (low + l < dim)
    l, low = l[kept], low[kept]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    log_binom = log_fact[low + l] - log_fact[low] - log_fact[l]
    shift = 0 if lowering else 1
    amps = np.zeros((dim, dim))
    amps[kept] = np.exp(0.5 * log_binom + (low + shift) * math.log(t) + 0.5 * l * math.log1p(-t * t))
    return amps


@dataclass(frozen=True, eq=False)
class DilationChannel:
    """One-mode channel in the number basis, one Kraus amplitude table per stage.

    Each table is the closed form of ``_amplitudes``: row l is V_l's diagonal,
    column n its input level. ``kraus`` lowers photon number for the
    attenuator and raises it otherwise; ``first``, applied
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
    kind: str, k: float, dim: int = DEFAULT_DIM, noise: float = 0.0
) -> DilationChannel:
    """Construct the Kraus form of a one-mode preset channel.

    attenuator (0 < k < 1) and amplifier (k > 1) come from two-mode unitary
    dilations against the vacuum, and a nonzero ``noise`` is refused for them.
    classical_noise (k = 1) adds ``noise`` to each quadrature variance; it is
    composed from those two dilations as the attenuator with k = 1/sqrt(G)
    followed by the amplifier with k = sqrt(G), G = 1 + noise, which maps
    alpha to alpha + (G - 1) I.
    """
    if dim < 4:
        raise InadmissibleInputError("dim must be at least 4")
    if kind == "attenuator" and not 0.0 < k < 1.0:
        raise InadmissibleInputError("attenuator requires 0 < k < 1")
    if kind == "amplifier" and not k > 1.0:
        raise InadmissibleInputError("amplifier requires k > 1")
    if kind == "amplifier" and math.isinf(k * k):
        # its phase-space counterpart adds noise (k^2 - 1)/2, which is no float
        raise OverflowError(f"amplifier k = {k:g}: k**2 overflows")
    if kind in ("attenuator", "amplifier"):
        if noise:
            raise InadmissibleInputError(f"noise applies only to classical_noise, not {kind}")
        return DilationChannel(kind, float(k), dim, _amplitudes(k, dim))
    if kind != "classical_noise":
        raise InadmissibleInputError(f"unknown kind {kind!r}; choose from {DILATION_KINDS}")
    if k != 1.0:
        raise InadmissibleInputError("classical_noise requires k = 1")
    if not noise > 0.0:
        raise InadmissibleInputError("classical_noise requires noise > 0")
    root_gain = math.sqrt(1.0 + noise)
    if not 1.0 < root_gain < math.inf:  # the stages' amplitudes would take log(0)
        raise InadmissibleInputError(
            f"classical_noise noise = {noise:g} gives sqrt(1 + noise) = {root_gain:g}: "
            "noise must be above about 3.3e-16 and finite"
        )
    first = _amplitudes(1.0 / root_gain, dim)
    return DilationChannel(kind, 1.0, dim, _amplitudes(root_gain, dim), float(noise), first)


def _kraus_sums(channel: DilationChannel, rho: np.ndarray) -> np.ndarray:
    """Each stage's sum_l V_l rho V_l† in turn, ``first`` before ``kraus``, on a stack.

    V_l rho V_l† moves a block of rho l levels down (``first``, attenuator) or
    up (amplifier stages), weighted by the outer product of V_l's diagonal.
    Only the s leading levels move, s the most levels any input matrix
    occupies (``_levels`` on rows: inputs are Hermitian, and each stage's real,
    symmetric weights keep them so up to signed zeros), and a lowering stage
    keeps them there: it stops at l = s, a raising stage moves s x s blocks.
    The skipped terms are exact zeros. A raising stage weights the block for
    many l in one broadcast, at most ``_STACK_BYTES`` of terms at a time, and
    adds them in l order, so every sum rounds as in a loop over l.
    """
    s = int(_levels(rho, hermitian=True).max(initial=0))
    for amps, lowering in ((channel.first, True), (channel.kraus, channel.kind == "attenuator")):
        if amps is None:
            continue
        out = np.zeros_like(rho, dtype=complex)
        if lowering:
            for l, row in enumerate(amps[:s]):
                v = row[l:s]
                out[..., : s - l, : s - l] += np.outer(v, v.conj()) * rho[..., l:s, l:s]
        else:
            d = len(amps)
            step = max(1, _STACK_BYTES // (16 * max(1, rho[..., :s, :s].size)))
            for start in range(0, d, step):
                b = min(s, d - start)  # from l = d - s on, V_l moves only d - l levels
                v = amps[start : start + step, :b]
                weights = v[:, :, None] * v[:, None, :].conj()
                terms = weights.reshape(len(v), *(1,) * (rho.ndim - 2), b, b) * rho[..., :b, :b]
                for l, term in zip(range(start, d), terms):
                    c = min(b, d - l)
                    out[..., l : l + c, l : l + c] += term[..., :c, :c]
                del weights, terms, term  # freed before the next chunk's are built
        rho = out
    return rho


def _apply_stack(channel: DilationChannel, rho: np.ndarray, deficits) -> tuple[np.ndarray, list]:
    """``apply_channel`` on a (B, d, d) stack given its deficits: the output stack and its states."""
    out = _kraus_sums(channel, rho)
    tr = np.trace(out, axis1=1, axis2=2).real  # over all d levels: a block sum adds in another order
    for t in tr:
        if not t >= np.finfo(float).tiny:  # a subnormal or zero mass cannot be renormalized
            raise InadmissibleInputError(
                f"output mass kept below the cutoff dim = {channel.dim} is {t:.3e}, "
                "not a positive normal float"
            )
    levels = _levels(out, hermitian=True)  # Hermitian up to signed zeros, as _kraus_sums keeps it:
    out[:, : levels.max(), : levels.max()] /= tr[:, None, None]  # no symmetrizing or check needed
    deficits = [deficit + max(0.0, 1.0 - t) for deficit, t in zip(deficits, tr)]
    return out, _normalized(out, deficits, levels, [""] * len(out))


def apply_channel(channel: DilationChannel, state: FockDensityMatrix) -> FockDensityMatrix:
    """Kraus sum sum_l V_l rho V_l†, renormalized, with deficit bookkeeping."""
    if state.dim != channel.dim:
        raise InadmissibleInputError("state and channel dimensions differ")
    return _apply_stack(channel, state.rho[None], [state.trace_deficit])[1][0]


def covariance_of(state: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of q = (a + a†)/sqrt2, p = -i(a - a†)/sqrt2.

    <a>, <a^2> and <a†a + aa†> are sums along one diagonal of rho each, with a
    truncated to dim levels, so that aa† = diag(1, ..., dim - 1, 0).
    """
    rho, n = state.rho, np.arange(float(state.dim))
    a = np.dot(np.sqrt(n[1:]), np.diagonal(rho, -1))
    a2 = np.dot(np.sqrt(n[1:-1] * n[2:]), np.diagonal(rho, -2))
    half = 0.5 * float(np.dot(n + np.append(n[1:], 0.0), np.diagonal(rho).real))
    mean = math.sqrt(2.0) * np.array([a.real, a.imag])
    second = np.array([[half + a2.real, a2.imag], [a2.imag, half - a2.real]])
    return mean, second - np.outer(mean, mean)


def top_band_mass(state: FockDensityMatrix) -> float:
    """Population in the top ceil(TOP_BAND_FRACTION * dim) number levels."""
    return float(_band_masses(state.rho))


def _band_masses(rho: np.ndarray) -> np.ndarray:
    """``top_band_mass`` of each matrix of a (..., d, d) stack, in one diagonal reduction."""
    band = max(1, math.ceil(TOP_BAND_FRACTION * rho.shape[-1]))
    return np.diagonal(rho, axis1=-2, axis2=-1)[..., -band:].real.sum(axis=-1)


def random_low_support_state(
    rng: np.random.Generator, dim: int = DEFAULT_DIM, support: int = 10
) -> FockDensityMatrix:
    """Random mixture of one to five pure states, validated on the lowest levels."""
    if not support >= 1 or support % 1:
        raise InadmissibleInputError(f"support must be an integer >= 1, got {support!r}")
    return _random_states(rng, 1, dim, support)[1][0]


def _random_states(
    rng: np.random.Generator, count: int, dim: int, support: int
) -> tuple[np.ndarray, list[FockDensityMatrix]]:
    """``count`` successive ``random_low_support_state`` draws, as a (count, d, d) stack and its states.

    Each trial draws its component count, its weights, then the real and
    imaginary parts of each component, as one draw alone does; the (count,
    s, s) block of the stack they fill is validated at once.
    """
    support = min(int(support), int(dim))  # small cutoffs get full-support states
    rho = np.zeros((count, dim, dim), dtype=complex)
    blocks = rho[:, :support, :support]
    for block in blocks:
        ncomp = int(rng.integers(1, 6))
        for w in rng.dirichlet(np.ones(ncomp)):
            psi = rng.normal(size=support) + 1j * rng.normal(size=support)
            psi /= math.sqrt(psi.real.dot(psi.real) + psi.imag.dot(psi.imag))  # np.linalg.norm's sums
            block += w * (psi[:, None] * psi.conj())
    pad = np.zeros(dim - support)
    spectra = [np.concatenate((pad, b.spectrum)) for b in _validated(blocks, [0.0] * count)]
    return rho, [FockDensityMatrix(dim, m, 0.0, w) for m, w in zip(rho, spectra)]


def slack_from_deficit(deficit: float) -> float:
    """Numerical slack granted to bound checks: 50 * deficit + 1e-6."""
    return 50.0 * deficit + 1e-6


# Campaign input support per channel kind. The amplifier expands photon
# number by roughly k^2 and spreads it binomially, so inputs reaching level 9
# put ~1e-5 of output population into the top band at the default dimension
# of 60 — an honest feature of the channel, not a truncation artifact, but it
# trips the reliability flag. Keeping amplifier campaign inputs on the bottom
# 6 levels (measured top-band mass <= 4e-7 at k = 1.5) preserves the
# generator's purpose: states whose truncation slack is negligible.
CAMPAIGN_SUPPORT = {"attenuator": 10, "amplifier": 6, "classical_noise": 10}
# Bytes of states in one campaign stack, at least one: 18 at d = 60, 1 at d = 1000.
_STACK_BYTES = 1 << 20


def _record(state: FockDensityMatrix, out: FockDensityMatrix, reference: dict, band_in, band_out) -> dict:
    """A trial's record: ``holds`` if gain >= the first value of ``reference`` - slack.

    The deficit adds both trace deficits and the output's top-band mass ``band_out``; the trial
    is reliable if none of them nor the input's, ``band_in``, exceeds RELIABILITY_THRESHOLD.
    """
    gain = von_neumann_entropy(out) - von_neumann_entropy(state)
    deficit = state.trace_deficit + out.trace_deficit + band_out
    slack = slack_from_deficit(deficit)
    worst = max(state.trace_deficit, out.trace_deficit, band_in, band_out)
    return {
        "gain": gain,
        **reference,
        "deficit": deficit,
        "slack": slack,
        "holds": bool(gain >= next(iter(reference.values())) - slack),
        "reliable": bool(worst <= RELIABILITY_THRESHOLD),
    }


def _campaign(channel: DilationChannel, trials: int, rng, reference) -> dict:
    """Draw random low-support states in trial order and tally their records, a chunk at a time."""
    if trials < 1:
        raise InadmissibleInputError("trials must be >= 1")
    support = CAMPAIGN_SUPPORT[channel.kind]
    chunk = max(1, _STACK_BYTES // (16 * channel.dim**2))
    records = []
    for start in range(0, trials, chunk):
        rho, states = _random_states(rng, min(chunk, trials - start), channel.dim, support)
        references = reference(states)  # in trial order, before the stack runs
        out, outs = _apply_stack(channel, rho, [0.0] * len(states))
        masses = _band_masses(rho).tolist(), _band_masses(out).tolist()
        records += map(_record, states, outs, references, *masses)
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


def _reference(channel: DilationChannel, extremality: bool):
    """Per list of states: the bound log k^2 each, or their Gaussian gains once they meet the hypotheses."""
    if extremality:
        return functools.partial(_extremality_references, channel.gaussian_channel())
    bound = {"bound": 2.0 * math.log(channel.k)}  # k**2 underflows to 0 below k = 1e-162
    return lambda states: [bound] * len(states)


def lower_bound_campaign(channel: DilationChannel, trials: int, rng: np.random.Generator) -> dict:
    """Run verify_lower_bound over random low-support states and tally the results."""
    return _campaign(channel, trials, rng, _reference(channel, extremality=False))


def extremality_campaign(channel: DilationChannel, trials: int, rng: np.random.Generator) -> dict:
    """Run verify_extremality over random low-support states and tally the results."""
    return _campaign(channel, trials, rng, _reference(channel, extremality=True))


def verify_lower_bound(channel: DilationChannel, state: FockDensityMatrix) -> dict:
    """Check the universal lower bound gain >= log k^2 on one state.

    Returns a record with the measured gain, the bound, the truncation
    deficit, the slack actually granted, and the reliability flag; the
    verdict ``holds`` means gain >= bound - slack.
    """
    reference = _reference(channel, extremality=False)([state])[0]
    out = apply_channel(channel, state)
    return _record(state, out, reference, top_band_mass(state), top_band_mass(out))


def verify_extremality(channel: DilationChannel, state: FockDensityMatrix) -> dict:
    """Check Gaussian extremality of the gain on one state.

    The gain of the channel on ``state`` is compared against the exact
    Gaussian gain of the Gaussian state with the same first and second
    moments; the verdict ``holds`` means gain >= gaussian_gain - slack.

    Hypotheses: the state's covariance must be nondegenerate, and the
    channel's noise certificate should be strictly positive. Channels whose
    certificate merely saturates the bound (the minimal-noise attenuator
    and amplifier) are accepted and flagged, provided the Gaussian image of
    the state is nondegenerate, which is what the extremality argument
    actually needs.
    """
    reference = _reference(channel, extremality=True)([state])[0]
    out = apply_channel(channel, state)
    return _record(state, out, reference, top_band_mass(state), top_band_mass(out))


def _extremality_references(gch: GaussianChannel, states) -> list[dict]:
    """Check verify_extremality's hypotheses on each state; return their references, Gaussian gain first.

    Both nondegeneracy tests and the gains are read off the input and output spectra of one
    (B, 2, 2) covariance stack, four eigensolves whatever B. The first state that fails raises.
    """
    alpha = np.stack([covariance_of(state)[1] for state in states])  # exactly symmetric, as _apply requires
    nu_in = symplectic_eigenvalues(alpha, gch.space)
    nu_out = _apply(gch, alpha)[1]
    degenerate = ~_uncertainty_cert(nu_in, DEFAULT_TOL).is_positive_definite
    blurred = ~(gch.strict | _uncertainty_cert(nu_out, DEFAULT_TOL).is_positive_definite)
    for i in np.flatnonzero(degenerate | blurred)[:1]:  # the first failing state, if any
        raise HypothesisViolationError(
            f"state covariance is degenerate (min symplectic eigenvalue {nu_in[i, -1]:.9f})"
            if degenerate[i]
            else "saturating channel maps this state to a degenerate Gaussian image"
        )
    gains = (_entropies(nu_out) - _entropies(nu_in)).tolist()
    return [
        dict(gaussian_gain=gain, flagged_saturating=not gch.strict, min_symplectic_eigenvalue=nu_min)
        for gain, nu_min in zip(gains, nu_in[:, -1].tolist())
    ]
