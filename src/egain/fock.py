"""Truncated Fock-space oracle for one-mode Gaussian channels.

Truncation policy: a verdict is about the state the oracle holds, a density
matrix on d levels, so whatever tail it was cut from does not enter it.
Each Kraus term moves |n> to |n -+ l>, and only the terms that land past the
cutoff are dropped, so the kept output is exactly P Phi[rho] P, short of the
mass delta the channel moved past the cutoff. ``slack_from_deficit`` turns
delta and the output's closed-form mean photon number into a proved bound on
the computed gain's error, rounding included.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

# the phase-space core, read at call time, so that only the Gaussian references run it
from . import channels, gaussian, symplectic
from .errors import DEFAULT_DIM, DEFAULT_TOL, HypothesisViolationError, InadmissibleInputError, _whole
from .presets import PRESET_NAMES, _preset_noise
from .records import ByIdentity, _refuse

__all__ = [
    "DEFAULT_DIM",
    "FockDensityMatrix",
    "DilationChannel",
    "fock_density",
    "number_state",
    "thermal_state",
    "von_neumann_entropy",
    "build_dilation",
    "apply_channel",
    "covariance_of",
    "random_low_support_state",
    "slack_from_deficit",
    "lower_bound_campaign",
    "extremality_campaign",
    "verify_lower_bound",
    "verify_extremality",
]

# Least eigenvalue a density matrix may have: rounding, not a negative population.
_EIGENVALUE_FLOOR = -1e-10
DILATION_KINDS = tuple(name.replace("-", "_") for name in PRESET_NAMES)


class FockDensityMatrix(ByIdentity, namedtuple("FockDensityMatrix", "dim rho spectrum")):
    """Validated density matrix in the truncated number basis.

    ``spectrum`` holds the eigenvalues of ``rho`` (in no particular order),
    kept from validation so the entropy needs no second eigensolve; levels
    outside the occupied block contribute exact zeros.
    """

    __slots__ = ()
    dim: int
    rho: np.ndarray
    spectrum: np.ndarray


def fock_density(rho: np.ndarray) -> FockDensityMatrix:
    """Validate, symmetrize and renormalize a raw density matrix."""
    rho = np.array(rho, dtype=complex)[None]
    return FockDensityMatrix(rho.shape[-1], rho[0], _validated(rho, rho.shape[-1])[0])


def _levels(rho: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """Per matrix of a (..., d, d) stack, one past its last nonzero row or column, or 0."""
    if hermitian and (rho[..., -1, :].view(float) != 0).any(axis=-1).all():
        return np.full(rho.shape[:-2], rho.shape[-1])  # every last row occupied: no scan needed
    nz = rho.view(float) != 0  # half the cost of comparing complex entries
    occupied = nz.any(axis=-1)
    if not hermitian:  # Hermitian up to signed zeros: nonzero columns lie on nonzero rows
        occupied |= nz.any(axis=-2).reshape(*occupied.shape, -1).any(axis=-1)
    return np.where(occupied.any(axis=-1), rho.shape[-1] - occupied[..., ::-1].argmax(axis=-1), 0)


def _validated(rho: np.ndarray, width: int) -> np.ndarray:
    """``fock_density`` on a (B, d, d) stack, in place, each matrix on its occupied block: its spectra.

    Matrices on the same s levels are symmetrized and solved as one (n, s, s) stack. The finiteness
    check, then the Hermitian check, runs on the whole stack before any eigensolve, and refuses the
    first matrix it flags; the spectra of ``_normalized`` are padded to ``width`` levels.
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
    size = np.maximum(1.0, scale)  # not finite at a nan or inf entry, which the eigenvalue and trace checks pass
    _refuse(~(size < math.inf), InadmissibleInputError, "density matrix entries must be finite")
    _refuse(~(herm <= 1e-12 * size), InadmissibleInputError, "density matrix not Hermitian (defect {:.3e})", herm)
    return _normalized(rho, levels, width)


def _groups(levels: np.ndarray):
    """(selector, s) for each nonzero occupancy s in ``levels``, in increasing s."""
    for s in sorted(set(levels.tolist()) - {0}):  # np.unique imports numpy.ma on first use
        yield (levels == s if np.ptp(levels) else slice(None)), s  # one occupancy: views, no copies


def _spectra(rho: np.ndarray, levels: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked spectra and traces of a Hermitian (B, d, d) stack with occupancies ``levels``.

    A spectrum is ``width`` - s zeros, then the eigenvalues of the matrix's s x s block; the
    blocks on s levels are solved as one (n, s, s) stack. The eigenvalue check, then the trace
    check, runs on the whole stack, and the first matrix it flags raises its message.
    """
    low, tr = np.zeros(len(rho)), np.zeros(len(rho))  # a zero matrix fails on tr
    w = np.zeros((len(rho), width))
    for group, s in _groups(levels):
        block = rho[group, :s, :s]
        w[group, -s:] = np.linalg.eigvalsh(block)
        low[group] = w[group, -s]  # the block's least eigenvalue, not a padding zero
        tr[group] = np.trace(block, axis1=1, axis2=2).real
    floor = _EIGENVALUE_FLOOR
    _refuse(low < floor, InadmissibleInputError, "density matrix has eigenvalue {:.3e} < {floor}", low, floor=floor)
    _refuse(tr <= 0.5, InadmissibleInputError, "density matrix trace {:.3e} too far from 1", tr)
    return w, tr


def _normalized(rho: np.ndarray, levels: np.ndarray, width: int) -> np.ndarray:
    """``_spectra`` of a stack that is renormalized in place: its spectra, renormalized alike."""
    w, tr = _spectra(rho, levels, width)
    top = levels.max()  # past every matrix's block lie zeros, which renormalizing leaves zeros
    rho[:, :top, :top] /= tr[:, None, None]
    w /= tr[:, None]
    return w


def number_state(n: int, dim: int) -> FockDensityMatrix:
    """Pure number state |n><n|."""
    dim = _whole("dim", dim, 1)
    pops = np.zeros(dim)
    pops[_whole("n", n, 0, dim)] = 1.0
    return FockDensityMatrix(dim, np.diag(pops).astype(complex), pops)


def thermal_state(nu: float, dim: int = DEFAULT_DIM) -> FockDensityMatrix:
    """Thermal state with finite symplectic eigenvalue nu >= 1/2.

    Level populations are proportional to ((nu - 1/2)/(nu + 1/2))^n; the
    geometric tail beyond the cutoff, of mass ratio^dim, is dropped and the
    kept populations are renormalized.
    """
    if not 0.5 <= nu < math.inf:
        raise InadmissibleInputError(f"thermal state requires finite nu >= 1/2, got {nu!r}")
    dim = _whole("dim", dim, 1)
    if nu == 0.5:
        return number_state(0, dim)
    ratio = (nu - 0.5) / (nu + 0.5)
    raw = np.exp(np.arange(dim) * math.log(ratio)) / (nu + 0.5)
    kept = 1.0 - ratio**dim
    if not kept >= np.finfo(float).tiny:  # ratio rounds to 1: nothing left to renormalize
        raise InadmissibleInputError(f"thermal state nu = {nu:g} keeps no mass below dim = {dim}")
    pops = raw / kept
    return FockDensityMatrix(dim, np.diag(pops).astype(complex), pops)


def von_neumann_entropy(state: FockDensityMatrix) -> float:
    """Entropy -tr(rho log rho) in nats, with 0 log 0 = 0."""
    return float(_entropies_of(state.spectrum[None])[0])


def _entropies_of(spectra: np.ndarray) -> np.ndarray:
    """``von_neumann_entropy`` of each spectrum of a (B, d) stack, from one log over all of them.

    Each spectrum's terms w log w, w > 0, lie contiguous in the one array of terms, in the
    order that spectrum alone gives them, so each entropy is the sum it would be alone.
    """
    positive = spectra > 0.0
    w = spectra[positive]
    terms = w * np.log(w)
    ends = np.cumsum(np.count_nonzero(positive, axis=1)).tolist()
    return np.array([-terms[start:end].sum() for start, end in zip([0, *ends], ends)])


def _amplitudes(k: float, dim: int) -> np.ndarray:
    """Kraus amplitudes of the attenuator (k < 1) or amplifier (k > 1), in closed form.

    Each Kraus operator V_l is a weighted shift: it sends |n> to |n - l>
    (k < 1) or |n + l> (k > 1) with amplitude amps[l, n], so row l of the
    (dim, dim) table is its diagonal. With m the lower of the input and output
    levels and t = k or 1/k, the amplitude is sqrt(C(m + l, l)) t^m (1 - t^2)^(l/2)
    for the attenuator, and t times that for the amplifier (Ivan, Sabapathy and
    Simon, PRA 84, 042311 (2011)). Entries whose output level passes the cutoff
    are zero: the amplifier's column n then sums to the mass it keeps, and the
    rest is the ``deficit`` of a record.
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


class DilationChannel(
    ByIdentity, namedtuple("DilationChannel", "kind k dim kraus noise first", defaults=(0.0, None))
):
    """One-mode channel in the number basis, one Kraus amplitude table per stage.

    Each table is the closed form of ``_amplitudes``: row l is V_l's diagonal, column n its input
    level. ``kraus`` lowers photon number for the noiseless attenuator and raises it otherwise;
    ``first``, applied before it, is the loss stage of a noisy preset, else None.
    """

    kind: str
    k: float
    dim: int
    kraus: np.ndarray
    noise: float  # default 0.0
    first: np.ndarray | None  # default None

    def gaussian_channel(self) -> channels.GaussianChannel:
        """Exact phase-space counterpart (K, mu) of this dilation, solved on first use."""
        return self._gaussian

    @functools.cached_property
    def _gaussian(self) -> channels.GaussianChannel:
        return channels.preset_channel(self.kind.replace("_", "-"), self.k, noise=self.noise)

    @functools.cached_property
    def _support(self) -> tuple[int, float]:
        """The levels s a campaign draws on, and ``slack_bound``, which bounds the slack of every trial.

        Every V_l is a weighted shift, so a state on s levels loses at most the most mass any |n>, n < s,
        loses (d u more for the float traces), and has at most ``_output_energy(self, s - 1)`` photons out;
        ``slack_from_deficit`` grows with both. s is the most levels, at most _SUPPORT_CAP, whose bound is at
        most _SLACK_TARGET, else min(_SUPPORT_CAP, d).
        """
        n = min(_SUPPORT_CAP, self.dim)
        number_states = np.eye(n)[:, :, None] * np.eye(n, dtype=complex)  # |0>, ..., |n - 1>
        kept = np.array([np.trace(_kraus_sums(self, rho[None])[0][0]).real for rho in number_states])  # d x d each
        lost = (np.maximum.accumulate(1.0 - kept).clip(0.0) + self.dim * _ROUNDOFF).tolist()
        energy = [_output_energy(self, s) / (1.0 - x) if x < 1.0 else math.inf for s, x in enumerate(lost)]
        bounds = np.maximum.accumulate([slack_from_deficit(*e, self.dim) for e in zip(lost, energy)])
        s = int((bounds <= _SLACK_TARGET).sum()) or n  # the bounds only grow with s
        return s, float(bounds[s - 1])


def build_dilation(
    kind: str, k: float, dim: int = DEFAULT_DIM, noise: float = 0.0
) -> DilationChannel:
    """Kraus form of the one-mode preset alpha -> k^2 alpha + (|1 - k^2|/2 + noise) I.

    Every preset is a pure-loss stage followed by a quantum-limited amplifier stage (García-Patrón
    et al., PRL 108, 110505 (2012)): with G = max(1, k^2) + noise, the attenuator with k/sqrt(G)
    against the vacuum, then the amplifier with sqrt(G), which maps alpha to G (k^2/G alpha +
    (1 - k^2/G)/2 I) + (G - 1)/2 I. Without noise one stage is the identity and is skipped: the
    attenuator and the amplifier are their one stage k. ``presets._preset_noise`` refuses what lies
    outside a preset's domain (None and -0.0 are no noise); refused here are classical noise
    without noise and a stage that rounds to 0, 1 or inf.
    """
    dim = _whole("dim", dim, 4)
    if kind not in DILATION_KINDS:
        raise InadmissibleInputError(f"unknown kind {kind!r}; choose from {DILATION_KINDS}")
    noise = _preset_noise(kind.replace("_", "-"), k, noise)
    if kind == "classical_noise" and not noise:
        raise InadmissibleInputError("classical_noise requires noise > 0")
    stages = (k,)
    if noise:  # loss, then gain
        root_gain = math.sqrt(max(1.0, k * k) + noise)
        stages = (k / root_gain, root_gain)
    if not all(0.0 < t < math.inf and t != 1.0 for t in stages):  # the amplitudes would take log(0)
        raise InadmissibleInputError(
            f"{kind} k = {float(k)!r}, noise = {noise:g} gives stage parameters "
            f"{', '.join(map(repr, stages))}: none may round to 0, 1 or inf"
        )
    first = _amplitudes(stages[0], dim) if len(stages) == 2 else None
    return DilationChannel(kind, float(k), dim, _amplitudes(stages[-1], dim), noise, first)


def _kraus_sums(channel: DilationChannel, rho: np.ndarray) -> tuple[np.ndarray, int]:
    """Each stage's sum_l V_l rho V_l† in turn, ``first`` before ``kraus``, on a stack.

    ``rho`` may hold only the leading levels of its matrices, zero past them: a (B, s', s')
    stack, s' <= d. Returns the (B, d, d) output stack and the n leading levels that hold all
    of it: s after a lowering stage, d after a raising one.

    V_l rho V_l† moves a block of rho l levels down (a loss stage) or up (a
    gain stage), weighted by the outer product of V_l's diagonal.
    Only the s leading levels move, s the most levels any input matrix
    occupies (``_levels`` on rows: inputs are Hermitian, and each stage's real,
    symmetric weights keep them so up to signed zeros), and a lowering stage
    keeps them there: it stops at l = s. The skipped terms are exact zeros.
    A raising stage adds block row i for all l <= d - s along the output
    diagonal (i + l, j + l), i from s - 1 down, then each V_l, l > d - s, on
    its d - l levels: every sum takes its terms in l order, as a loop over l.
    """
    s = int(_levels(rho, hermitian=True).max(initial=0))
    for amps, lowering in ((channel.first, True), (channel.kraus, channel.first is None and channel.k < 1.0)):
        if amps is None:
            continue
        n = s if amps is channel.first else channel.dim  # as first: only the s x s block kraus reads
        shape = (*rho.shape[:-2], n, n)
        # a lowering stage writes its s x s block alone, so its output is left to calloc's zero
        # pages; a raising stage writes along every row, where zeros_like's fill measured faster
        out = np.zeros(shape, dtype=complex) if lowering else np.zeros_like(rho, dtype=complex, shape=shape)
        if lowering:
            for l, row in enumerate(amps[:s]):
                out[..., : s - l, : s - l] += np.outer(row[l:s], row[l:s]) * rho[..., l:s, l:s]
        else:
            d, m = len(amps), len(amps) - s + 1  # V_0 .. V_{d-s} move the whole s x s block
            strides = (*out.strides[:-2], sum(out.strides[-2:]), out.strides[-1])  # l steps down and right
            for i in range(s - 1, -1, -1):  # row i lands on entries (i + l, j + l): descending i, ascending l
                diagonal = np.lib.stride_tricks.as_strided(out[..., i:, :], (*out.shape[:-2], m, s), strides)
                diagonal += amps[:m, i, None] * amps[:m, :s] * rho[..., i, None, :s]
            for l in range(m, d):  # V_l moves only the d - l levels it keeps
                out[..., l:, l:] += np.outer(amps[l, : d - l], amps[l, : d - l]) * rho[..., : d - l, : d - l]
        rho = out
    return rho, s if lowering else channel.dim


def _kept(channel: DilationChannel, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Kraus sums of a stack divided by the mass each keeps: the stack, its occupancies and masses.

    The stack is Hermitian up to signed zeros, as ``_kraus_sums`` keeps it, so ``_spectra``
    needs no symmetrizing or check; its occupancies are scanned on the levels the sums wrote.
    """
    out, n = _kraus_sums(channel, rho)
    tr = np.trace(out, axis1=1, axis2=2).real  # over all d levels: a block sum adds in another order
    tiny = np.finfo(float).tiny  # a subnormal or zero mass cannot be renormalized
    message = "output mass kept below the cutoff dim = {dim} is {:.3e}, not a positive normal float"
    _refuse(~(tr >= tiny), InadmissibleInputError, message, tr, dim=channel.dim)
    levels = _levels(out[:, :n, :n], hermitian=True)
    # out /= tr bit for bit, at a fraction of its cost: numpy divides a + ib by a real t as
    # (a + 0b)(1/t) + i(b - 0a)(1/t), which is a(1/t) + ib(1/t) on parts that are not -0.0,
    # and Kraus sums hold none (each entry starts at +0.0 and only has terms added)
    out.view(float)[:, : levels.max(), : 2 * levels.max()] *= (1.0 / tr)[:, None, None]
    return out, levels, tr.tolist()


def apply_channel(channel: DilationChannel, state: FockDensityMatrix) -> FockDensityMatrix:
    """Kraus sum sum_l V_l rho V_l†, renormalized by the mass it keeps, then by its block trace."""
    if state.dim != channel.dim:
        raise InadmissibleInputError("state and channel dimensions differ")
    out, levels, _ = _kept(channel, state.rho[None])
    return FockDensityMatrix(channel.dim, out[0], _normalized(out, levels, channel.dim)[0])


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


def random_low_support_state(
    rng: np.random.Generator, dim: int = DEFAULT_DIM, support: int = 10
) -> FockDensityMatrix:
    """Random mixture of one to five pure states, validated on the lowest levels."""
    dim = _whole("dim", dim, 1)
    support = min(_whole("support", support, 1), dim)  # small cutoffs get full-support states
    return _random_states(rng, 1, dim, support)[1][0]


def _random_states(
    rng: np.random.Generator, count: int, dim: int, support: int
) -> tuple[np.ndarray, list[FockDensityMatrix]]:
    """``count`` successive ``random_low_support_state`` draws on ``support`` <= ``dim`` levels,
    as a (count, d, d) stack and its states.

    Each trial draws its component count, its weights, then the real and imaginary parts of
    each component, as one draw alone does, into (count, 5) weights and (count, 5, 2, s)
    parts. Slot c of every trial that has one is added in one call, and the (count, s, s)
    block validated at once, its spectra padded to d levels as one array.
    """
    sizes = np.zeros(count, dtype=int)
    weights, parts = np.zeros((count, 5)), np.zeros((count, 5, 2, support))
    for t in range(count):
        n = sizes[t] = rng.integers(1, 6)
        weights[t, :n] = rng.dirichlet(np.ones(n))
        parts[t, :n] = rng.normal(size=(n, 2, support))  # real, imaginary
    rho = np.zeros((count, dim, dim), dtype=complex)
    blocks = rho[:, :support, :support]
    for c in range(sizes.max()):
        live = sizes > c if c else slice(None)  # every trial has a first component
        psi = parts[live, c, 0] + 1j * parts[live, c, 1]  # normalized by np.linalg.norm's sums, a dot per row
        psi /= np.sqrt(psi.real[:, None] @ psi.real[..., None] + psi.imag[:, None] @ psi.imag[..., None])[:, 0]
        blocks[live] += weights[live, c, None, None] * (psi[:, :, None] * psi.conj()[:, None, :])
    return rho, [FockDensityMatrix(dim, m, w) for m, w in zip(rho, _validated(blocks, dim))]


def _g(x: float) -> float:
    """Entropy of the thermal state of mean photon number x >= 0, in nats.

    A deliberate copy of ``gaussian._g``: the Fock route computes its own numbers.
    """
    return math.log1p(x) + x * math.log1p(1.0 / x) if 0.0 < x < math.inf else x


def _h(p: float) -> float:
    """Binary entropy of 0 < p < 1, in nats."""
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


_ROUNDOFF = 2.0**-53  # unit roundoff u of a float


def slack_from_deficit(deficit: float, energy: float, dim: int) -> float:
    """Proved bound on the error of a gain whose channel moved ``deficit`` past the cutoff ``dim``.

    ``energy`` is E = n_out / (1 - delta), n_out the exact output's mean photon number. The slack
    is min(2 eps g(E/eps) + h(eps), g(E)) + r, g the thermal entropy and h the binary entropy:
    - eps = sqrt(delta + d u), delta = ``deficit``, u = 2^-53. The kept output is P Phi[rho] P,
      so by gentle measurement (Winter, IEEE TIT 45, 2481 (1999)) its renormalization lies
      within trace distance sqrt(delta) of Phi[rho]; d u covers the float trace giving delta.
    - E bounds the mean photon number of Phi[rho] and of the renormalized kept output alike,
      since P commutes with the number operator.
    - 2 eps g(E/eps) + h(eps) is Winter's energy-constrained continuity bound for eps < 1 (CMP
      347, 291 (2016), Lemma 18); g(E), the most entropy at mean photon number E, bounds the
      entropy difference of two such states at any eps.
    - r = 2 (T log(d - 1) + h(T)), T = 8 d^2 u, is Audenaert's sharp Fannes bound (J. Phys. A
      40, 8127 (2007)) once for each eigensolve, input and output. The constant taken here:
      each spectrum is exact for a matrix within ||Delta||_2 <= 16 d u of the exact one (a
      density matrix has ||rho||_2 <= 1; eigvalsh is backward stable, and this also covers the
      Kraus sums' rounding), so their trace distance is T <= (d/2) ||Delta||_2.
    """
    eps = math.sqrt(deficit + dim * _ROUNDOFF)
    truncation = min(2.0 * eps * _g(energy / eps) + _h(eps), _g(energy)) if eps < 1.0 else _g(energy)
    T = 8.0 * dim * dim * _ROUNDOFF
    return truncation + 2.0 * (T * math.log(dim - 1) + _h(T))


def _output_energy(channel: DilationChannel, nbar: float) -> float:
    """Mean photon number of Phi[rho], in closed form from rho's, ``nbar``."""
    k2 = channel.k * channel.k
    return k2 * nbar + max(0.0, k2 - 1.0) + channel.noise


_SUPPORT_CAP, _SLACK_TARGET = 10, 2e-3  # the most levels a campaign draws on, and the bound they must meet
# Bytes of states in one campaign stack, at least one: 18 at d = 60, 1 at d = 1000.
_STACK_BYTES = 1 << 20


def _records(channel: DilationChannel, references, rho: np.ndarray, spectra: np.ndarray) -> list[dict]:
    """Each record of a (B, s, s) stack of inputs on their leading levels, with their (B, d) spectra.

    A record ``holds`` if gain >= reference - slack and is ``reliable`` if |gain - reference| >
    slack, its reference the first value of the trial's; the entropies of all 2B spectra take
    one log. ``deficit`` is the mass the channel moved past the cutoff.
    """
    out, levels, masses = _kept(channel, rho)
    w, tr = _spectra(out, levels, channel.dim)
    entropy_in, entropy_out = _entropies_of(np.concatenate((spectra, w / tr[:, None]))).reshape(2, -1)
    # the inputs' mean photon numbers, correctly rounded: the same on any number of trailing zeros
    terms = np.diagonal(rho, axis1=1, axis2=2).real * np.arange(rho.shape[-1])
    nbar = [math.fsum(row) for row in terms.tolist()]
    gains = (entropy_out - entropy_in).tolist()
    records = []
    for reference, gain, n, t in zip(references, gains, nbar, masses):
        loss = max(0.0, 1.0 - t)  # 1 - loss is min(1, t), which keeps its digits where loss rounds to 1
        slack = slack_from_deficit(loss, _output_energy(channel, n) / min(1.0, t), channel.dim)
        value = next(iter(reference.values()))
        verdicts = {"holds": gain >= value - slack, "reliable": abs(gain - value) > slack}
        records.append({"gain": gain, **reference, "deficit": loss, "slack": slack, **verdicts})
    return records


def _campaign(channel: DilationChannel, trials: int, rng, extremality: bool) -> dict:
    """Draw random low-support states in trial order and tally their records, a chunk at a time."""
    trials = _whole("trials", trials, 1)
    support, slack_bound = channel._support  # the levels the states are drawn on
    chunk = max(1, _STACK_BYTES // (16 * channel.dim**2))
    records = []
    for start in range(0, trials, chunk):
        rho, states = _random_states(rng, min(chunk, trials - start), channel.dim, support)
        drawn = rho[:, :support, :support]  # the Kraus sums scan only the levels the states were drawn on
        references = _references(channel, states, extremality)
        records += _records(channel, references, drawn, np.stack([state.spectrum for state in states]))
    return {
        "kind": channel.kind,
        "k": channel.k,
        "dim": channel.dim,
        "trials": trials,
        "support": support,
        "slack_bound": slack_bound,
        "holds_count": sum(r["holds"] for r in records),
        "reliable_count": sum(r["reliable"] for r in records),
        "records": records,
    }


def _references(channel: DilationChannel, states, extremality: bool) -> list[dict]:
    """Per state: the bound log k^2, or, with ``extremality``, its references, Gaussian gain first.

    verify_extremality's hypotheses are checked on each state; both nondegeneracy tests and the
    gains are read off the input and output spectra of one (B, 2, 2) covariance stack, four
    eigensolves whatever B. The first state that fails raises.
    """
    if not extremality:
        return [{"bound": 2.0 * math.log(channel.k)}] * len(states)  # k**2 underflows to 0 below k = 1e-162
    gch = channel.gaussian_channel()
    alpha = np.stack([covariance_of(state)[1] for state in states])  # exactly symmetric, as _apply requires
    nu_in = symplectic.symplectic_eigenvalues(alpha, gch.space)
    nu_out = channels._apply(gch, alpha)[1]
    degenerate = ~symplectic._uncertainty_cert(nu_in, DEFAULT_TOL).is_positive_definite
    blurred = ~(gch.strict | symplectic._uncertainty_cert(nu_out, DEFAULT_TOL).is_positive_definite)
    for i in np.flatnonzero(degenerate | blurred)[:1]:  # the first failing state, if any
        raise HypothesisViolationError(
            f"state covariance is degenerate (min symplectic eigenvalue {nu_in[i, -1]:.9f})"
            if degenerate[i]
            else "saturating channel maps this state to a degenerate Gaussian image"
        )
    gains = (gaussian._entropies(nu_out) - gaussian._entropies(nu_in)).tolist()
    return [
        dict(gaussian_gain=gain, flagged_saturating=not gch.strict, min_symplectic_eigenvalue=nu_min)
        for gain, nu_min in zip(gains, nu_in[:, -1].tolist())
    ]


def lower_bound_campaign(channel: DilationChannel, trials: int, rng: np.random.Generator) -> dict:
    """Run verify_lower_bound over random low-support states and tally the results."""
    return _campaign(channel, trials, rng, extremality=False)


def extremality_campaign(channel: DilationChannel, trials: int, rng: np.random.Generator) -> dict:
    """Run verify_extremality over random low-support states and tally the results."""
    return _campaign(channel, trials, rng, extremality=True)


def verify_lower_bound(channel: DilationChannel, state: FockDensityMatrix) -> dict:
    """Check the universal lower bound gain >= log k^2 on one state.

    Returns a record with the measured gain, the bound, the truncation
    deficit, the slack actually granted, and the reliability flag; the
    verdict ``holds`` means gain >= bound - slack.
    """
    return _verified(channel, state, extremality=False)


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
    return _verified(channel, state, extremality=True)


def _verified(channel: DilationChannel, state: FockDensityMatrix, extremality: bool) -> dict:
    """One state's record, from its reference and the campaigns' ``_records``."""
    if state.dim != channel.dim:
        raise InadmissibleInputError("state and channel dimensions differ")
    references = _references(channel, [state], extremality)
    return _records(channel, references, state.rho[None], state.spectrum[None])[0]
