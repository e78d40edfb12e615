"""Tests for the truncated Fock-space oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from egain import fock
from egain.channels import apply_to_covariance
from egain.errors import HypothesisViolationError, InadmissibleInputError
from egain.fock import (
    DilationChannel,
    apply_channel,
    build_dilation,
    covariance_of,
    fock_density,
    number_state,
    lower_bound_campaign,
    extremality_campaign,
    random_low_support_state,
    slack_from_deficit,
    thermal_state,
    top_band_mass,
    verify_lower_bound,
    verify_extremality,
    von_neumann_entropy,
)
from egain.gaussian import mode_entropy
from egain.symplectic import DEFAULT_TOL

DIM = 60


def annihilation(dim):
    """Annihilation operator a|n> = sqrt(n)|n-1> truncated to dim levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadratures(dim):
    """Quadrature operators q = (a + a†)/sqrt2, p = -i(a - a†)/sqrt2."""
    a = annihilation(dim)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    return q, p


def dense_covariance(state):
    """Reference moments: tr(rho op) for q, p and their symmetrized products, dense."""
    ops = quadratures(state.dim)
    mean = np.array([np.trace(state.rho @ op).real for op in ops])
    second = np.array([[np.trace(state.rho @ (0.5 * (a @ b + b @ a))).real for b in ops] for a in ops])
    return mean, second - np.outer(mean, mean)


def unitary_from_skew(G):
    """exp(G) for anti-Hermitian G, via the Hermitian eigenproblem of iG."""
    w, V = np.linalg.eigh(1j * G)
    return (V * np.exp(-1j * w)) @ V.conj().T


def ladder_column(k, n, dim):
    """Kraus amplitudes on input level n, by exponentiating the dilation, as a reference.

    The block from (system n, environment vacuum) is exponentiated alone: the
    beamsplitter, cos(theta) = k < 1, runs down the ladder (n - j, j), j <= n,
    exactly; the two-mode squeezer, cosh(r) = k > 1, runs up the ladder
    (n + j, j) and is cut off at dim, which distorts the amplitudes near the
    top. Entry l is V_l's amplitude on |n>: the attenuator's agree with the
    closed form up to a phase (-1)^l per operator, which leaves the channel
    unchanged.
    """
    lowering = k < 1.0
    angle = math.acos(k) if lowering else -math.acosh(k)
    size = n + 1 if lowering else dim - n
    j = np.arange(size - 1, dtype=float)
    off = angle * np.sqrt((n - j if lowering else n + j + 1.0) * (j + 1.0))
    G = np.diag(off, k=1) - np.diag(off, k=-1)
    return unitary_from_skew(G)[:, 0]


def ladder_amplitudes(k, dim):
    """The (dim, dim) table of ``ladder_column``s, laid out as the dilation's tables."""
    amps = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        column = ladder_column(k, n, dim)
        amps[: len(column), n] = column
    return amps


def campaign_states(channel, seed, trials):
    """The states a campaign on ``channel`` seeded with ``seed`` draws, in trial order."""
    gen = np.random.default_rng(seed)
    support = fock.CAMPAIGN_SUPPORT[channel.kind]
    return [random_low_support_state(gen, dim=channel.dim, support=support) for _ in range(trials)]


def dense_stages(channel):
    """The channel's stages as lists of dense Kraus operators, in order.

    Rebuilds each V_l entry by entry from its table row, independently of the
    block slicing in ``fock._kraus_sums``: V_l sends |n> to |n - l> in the
    attenuator stages and to |n + l> in the amplifier stages.
    """
    dim = channel.dim
    tables = [(channel.kraus, channel.kind == "attenuator")]
    if channel.first is not None:
        tables.insert(0, (channel.first, True))
    stages = []
    for amps, lowering in tables:
        ops = []
        for l in range(dim):
            V = np.zeros((dim, dim), dtype=complex)
            for n in range(dim):
                m = n - l if lowering else n + l
                if 0 <= m < dim:
                    V[m, n] = amps[l, n]
            ops.append(V)
        stages.append(ops)
    return stages


def dense_kraus_sum(stages, rho):
    """Reference channel action: sum_l V_l rho V_l† over dense operators, stage by stage."""
    for ops in stages:
        rho = sum(V @ rho @ V.conj().T for V in ops)
    return rho


def dense_output(stages, state):
    """Normalized output state of the dense reference, as ``apply_channel`` returns it."""
    out = dense_kraus_sum(stages, state.rho)
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def channel_on_identity(channel):
    """The image sum_l V_l V_l† of the identity operator under the channel."""
    return fock._kraus_sums(channel, np.eye(channel.dim))


def full_block_kraus_sums(channel, rho):
    """Kraus sums of one matrix over every l and whole blocks, whatever levels it occupies."""
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


def displacement_mixture_kraus(nbar, dim, order):
    """Classical noise as a Gauss-Hermite mixture of displacement unitaries.

    An independent reference for the composed dilation: the isotropic
    Gaussian mixture of displacements with per-quadrature variance nbar,
    discretized by a tensor Gauss-Hermite rule of the given order.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    a = annihilation(dim)
    scale = math.sqrt(nbar)
    kraus = []
    for i in range(order):
        for j in range(order):
            shift = scale * (nodes[i] + 1j * nodes[j])
            displacement = unitary_from_skew(shift * a.conj().T - np.conj(shift) * a)
            kraus.append(math.sqrt(weights[i] * weights[j] / math.pi) * displacement)
    return kraus


@pytest.fixture(scope="module")
def attenuator():
    return build_dilation("attenuator", 0.7, dim=DIM)


@pytest.fixture(scope="module")
def amplifier():
    return build_dilation("amplifier", 1.5, dim=DIM)


@pytest.fixture(scope="module")
def classical_noise():
    return build_dilation("classical_noise", 1.0, dim=DIM, noise=0.3)


class TestOperators:
    def test_annihilation_ladder(self):
        a = annihilation(4)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2.0))
        assert a[2, 3] == pytest.approx(math.sqrt(3.0))

    def test_canonical_commutator_below_cutoff(self):
        # [q, p] = i holds everywhere except the cutoff corner
        q, p = quadratures(30)
        comm = q @ p - p @ q
        assert comm[:29, :29] == pytest.approx(1j * np.eye(30)[:29, :29], abs=1e-12)

    def test_diagonal_moments_equal_dense_traces(self, amplifier, rng):
        # amplifier outputs reach the top level, where aa† has its zero entry
        states = [random_low_support_state(rng, support=support) for support in (1, 2, 10, DIM)]
        states += [apply_channel(amplifier, random_low_support_state(rng, support=6)) for _ in range(3)]
        assert states[-1].rho[-1, -1] != 0.0
        for state in states:
            mean, alpha = covariance_of(state)
            dense_mean, dense_alpha = dense_covariance(state)
            assert np.abs(mean - dense_mean).max() <= 1e-13
            assert np.abs(alpha - dense_alpha).max() <= 1e-13
            assert np.array_equal(alpha, alpha.T)


class TestFockDensity:
    def test_renormalizes_trace(self):
        state = fock_density(np.diag([0.5, 0.4]).astype(complex))
        assert np.trace(state.rho).real == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InadmissibleInputError):
            fock_density(rho)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InadmissibleInputError):
            fock_density(np.diag([1.2, -0.2]).astype(complex))

    def test_stack_raises_for_its_first_bad_matrix(self):
        good = np.diag([0.5, 0.5]).astype(complex)
        negative = np.diag([1.2, -0.2]).astype(complex)
        skew = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InadmissibleInputError) as alone:
            fock_density(negative)
        with pytest.raises(InadmissibleInputError, match=re.escape(str(alone.value))):
            fock._validated(np.stack([good, negative, skew]), [0.0] * 3)

    def test_input_is_left_unchanged(self):
        rho = np.array([[0.6, 0.1 + 1e-14], [0.1, 0.6]], dtype=complex)
        before = rho.copy()
        fock_density(rho)
        assert np.array_equal(rho, before)

    def test_random_states_are_valid(self, rng):
        for _ in range(5):
            state = random_low_support_state(rng, dim=20, support=6)
            assert np.trace(state.rho).real == pytest.approx(1.0)
            assert np.abs(state.rho[6:, :]).max() == 0.0
            assert np.linalg.eigvalsh(state.rho)[0] >= -1e-12

    def test_negative_eigenvalue_behind_zero_levels_is_refused(self):
        # the padded spectrum starts with the unoccupied levels' zeros
        with pytest.raises(InadmissibleInputError) as block:
            fock_density(np.diag([1.2, -0.2]).astype(complex))
        with pytest.raises(InadmissibleInputError, match=re.escape(str(block.value))):
            fock_density(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("row, col", [(0, 1), (0, 3)], ids=["inside-the-diagonal", "column-only"])
    def test_zero_padded_non_hermitian_block_is_refused(self, row, col):
        # level 3 is occupied by its column alone: reading rows only would drop it
        rho = np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        rho[row, col] = 0.4
        with pytest.raises(InadmissibleInputError, match="not Hermitian"):
            fock_density(rho)

    def test_zero_matrix_is_refused_by_the_trace_check(self):
        with pytest.raises(InadmissibleInputError, match=r"trace 0\.000e\+00 too far from 1"):
            fock_density(np.zeros((5, 5)))
        with pytest.raises(InadmissibleInputError, match="trace 0"):
            fock._validated(np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2))]).astype(complex), [0.0] * 2)

    def test_empty_matrix_is_refused(self):
        with pytest.raises(InadmissibleInputError, match=r"must be square and nonempty, not \(0, 0\)"):
            fock_density(np.zeros((0, 0)))

    def test_random_state_on_no_levels_is_refused(self, rng):
        with pytest.raises(InadmissibleInputError, match=r"^support must be an integer >= 1, got 0$"):
            random_low_support_state(rng, support=0)

    @pytest.mark.parametrize("support", [-1, 2.5, math.inf, math.nan])
    def test_random_state_refuses_a_support_that_is_no_positive_integer(self, rng, support):
        expected = rf"^support must be an integer >= 1, got {support!r}$"
        with pytest.raises(InadmissibleInputError, match=expected):
            random_low_support_state(rng, support=support)

    def test_random_state_takes_an_integral_float_support(self):
        drawn = [random_low_support_state(np.random.default_rng(4), 8, support) for support in (3, 3.0)]
        assert np.array_equal(drawn[0].rho, drawn[1].rho)

    def test_padded_spectrum_matches_a_full_eigensolve(self, attenuator, rng):
        states = [random_low_support_state(rng, support=support) for support in (1, 3, 10)]
        states += [apply_channel(attenuator, state) for state in states]
        for state in states:
            full = np.linalg.eigvalsh(state.rho)
            assert np.abs(np.sort(state.spectrum) - full).max() <= 1e-14
            w = full[full > 0.0]
            assert abs(von_neumann_entropy(state) + (w * np.log(w)).sum()) <= 1e-13


class TestThermalState:
    def test_populations_geometric(self):
        nu = 1.0
        state = thermal_state(nu, 20)
        pops = np.diag(state.rho).real
        ratios = pops[1:] / pops[:-1]
        assert ratios == pytest.approx(np.full(19, 1.0 / 3.0), rel=1e-12)

    def test_deficit_exact(self):
        nu = 2.0
        state = thermal_state(nu, 30)
        assert state.trace_deficit == pytest.approx((1.5 / 2.5) ** 30, rel=1e-12)

    def test_vacuum_case(self):
        state = thermal_state(0.5, 10)
        assert state.rho[0, 0] == pytest.approx(1.0)
        assert von_neumann_entropy(state) == 0.0

    def test_covariance_matches_nu(self):
        for nu in (0.6, 1.0, 2.0):
            mean, alpha = covariance_of(thermal_state(nu, DIM))
            assert mean == pytest.approx(np.zeros(2), abs=1e-13)
            assert alpha == pytest.approx(nu * np.eye(2), abs=1e-10)

    def test_entropy_matches_gaussian_formula(self):
        for nu in (0.6, 1.0, 2.0):
            state = thermal_state(nu, 80)
            assert von_neumann_entropy(state) == pytest.approx(
                float(mode_entropy(nu)), abs=1e-6
            )

    def test_rejects_below_vacuum(self):
        with pytest.raises(InadmissibleInputError):
            thermal_state(0.4, 10)


class TestDilations:
    def test_kraus_completeness(self, attenuator, amplifier, classical_noise):
        # V_l are weighted shifts, so sum_l V_l† V_l is diagonal with entries
        # sum_l |amps[l, n]|^2. An attenuator stage keeps every level below
        # the cutoff, so these are 1; an amplifier stage keeps the part of
        # the negative binomial P(l; n + 1, 1/k^2) with n + l below the cutoff.
        # Classical noise is checked stage by stage.
        n = np.arange(DIM)
        for amps in (attenuator.kraus, classical_noise.first):
            assert amps.shape == (DIM, DIM)
            assert np.abs((np.abs(amps) ** 2).sum(axis=0) - 1.0).max() < 1e-12
        for amps, k in ((amplifier.kraus, 1.5), (classical_noise.kraus, math.sqrt(1.3))):
            assert amps.shape == (DIM, DIM)
            kept = nbinom.cdf(DIM - n - 1, n + 1, 1.0 / k**2)
            assert np.abs((np.abs(amps) ** 2).sum(axis=0) - kept).max() < 1e-12

    @pytest.mark.parametrize(
        "kind, k, noise",
        [("attenuator", 0.7, None), ("amplifier", 1.5, None), ("classical_noise", 1.0, 0.3)],
    )
    def test_matches_dense_kraus_sum(self, kind, k, noise, rng):
        channel = build_dilation(kind, k, dim=20, noise=noise)
        assert len(channel.kraus) == 20
        stages = dense_stages(channel)
        state = random_low_support_state(rng, dim=20, support=8)
        reference = dense_output(stages, state)
        assert np.abs(apply_channel(channel, state).rho - reference).max() <= 1e-14
        image = dense_kraus_sum(stages, np.eye(20))
        assert np.abs(channel_on_identity(channel) - image).max() <= 1e-14

    def test_attenuator_matches_closed_form(self, attenuator, rng):
        ladder = ladder_amplitudes(0.7, DIM)
        phases = (-1.0) ** np.arange(DIM)
        assert np.abs(ladder * phases[:, None] - attenuator.kraus).max() <= 1e-14
        alt = DilationChannel(kind="attenuator", k=0.7, dim=DIM, kraus=ladder)
        state = random_low_support_state(rng)
        out_closed = apply_channel(attenuator, state).rho
        out_ladder = apply_channel(alt, state).rho
        assert np.abs(out_closed - out_ladder).max() < 1e-12

    def test_amplifier_matches_the_ladder_at_a_large_cutoff(self, amplifier):
        # the ladder is cut off at its dim, so it is exact only far below it;
        # at 200 levels the campaign inputs' columns are exact to rounding
        for n in range(fock.CAMPAIGN_SUPPORT["amplifier"]):
            column = ladder_column(1.5, n, 200)[: DIM - n]
            assert np.abs(column - amplifier.kraus[: DIM - n, n]).max() <= 1e-14

    def test_moments_transform_as_gaussian_channel(self, attenuator, classical_noise, rng):
        state = random_low_support_state(rng)
        mean_in, alpha_in = covariance_of(state)
        for channel in (attenuator, classical_noise):
            gch = channel.gaussian_channel()
            out = apply_channel(channel, state)
            mean_out, alpha_out = covariance_of(out)
            assert mean_out == pytest.approx(gch.K.T @ mean_in, abs=1e-10)
            assert alpha_out == pytest.approx(apply_to_covariance(gch, alpha_in), abs=1e-10)

    def test_amplifier_moments_within_truncation_error(self, amplifier, rng):
        state = random_low_support_state(rng, support=6)
        _, alpha_in = covariance_of(state)
        _, alpha_out = covariance_of(apply_channel(amplifier, state))
        expected = apply_to_covariance(amplifier.gaussian_channel(), alpha_in)
        assert alpha_out == pytest.approx(expected, abs=1e-5)

    def test_identity_like_limit(self, rng):
        channel = build_dilation("attenuator", 0.999, dim=DIM)
        state = random_low_support_state(rng)
        out = apply_channel(channel, state)
        assert np.abs(out.rho - state.rho).max() < 5e-3

    def test_phi_of_identity_corner(self, attenuator):
        # levels whose preimages fit under the cutoff see Phi[I] = k^-2 I;
        # higher levels draw population from beyond the cutoff and are
        # excluded (their preimage mass peaks near m / k^2 > dim)
        image = channel_on_identity(attenuator)
        target = np.eye(DIM) / 0.49
        assert np.abs(image[:10, :10] - target[:10, :10]).max() < 1e-6

    def test_classical_noise_matches_displacement_mixture(self, classical_noise):
        # high number states are where a coarse quadrature of the mixture
        # fails; the composition must agree with a fine one far inside 1e-6
        mixture_stages = [displacement_mixture_kraus(0.3, DIM, 25)]
        for n in (8, 9):
            state = number_state(n, DIM)
            composed = von_neumann_entropy(apply_channel(classical_noise, state))
            mixture = von_neumann_entropy(fock_density(dense_output(mixture_stages, state)))
            assert abs(composed - mixture) <= 1e-9

    def test_classical_noise_phi_of_identity_corner(self, classical_noise):
        # K = 1, so Phi[I] = I wherever the attenuator stage's preimages fit
        image = channel_on_identity(classical_noise)
        assert np.abs(image[:20, :20] - np.eye(20)).max() < 1e-12

    def test_classical_noise_requires_noise(self):
        with pytest.raises(InadmissibleInputError):
            build_dilation("classical_noise", 1.0, dim=20)

    @pytest.mark.parametrize("noise", [1e-300, 2e-16, 3e-16, math.inf])
    def test_noise_without_a_dilation_is_refused(self, noise):
        # sqrt(1 + noise) rounds to 1 or overflows, and a stage's amplitudes would take log(0)
        with pytest.raises(InadmissibleInputError, match=f"classical_noise noise = {noise:g} gives"):
            build_dilation("classical_noise", 1.0, dim=8, noise=noise)

    def test_least_resolved_noise_builds(self):
        channel = build_dilation("classical_noise", 1.0, dim=8, noise=4e-16)
        assert math.sqrt(1.0 + channel.noise) > 1.0

    @pytest.mark.parametrize("kind, k, noise", [("attenuator", 0.7, 0.3), ("amplifier", 1.5, -2.0)])
    def test_noise_is_refused_where_it_would_be_dropped(self, kind, k, noise):
        message = f"noise applies only to classical_noise, not {kind}"
        with pytest.raises(InadmissibleInputError, match=message):
            build_dilation(kind, k, dim=8, noise=noise)

    def test_parameter_validation(self):
        with pytest.raises(InadmissibleInputError):
            build_dilation("attenuator", 1.2, dim=20)
        with pytest.raises(InadmissibleInputError):
            build_dilation("amplifier", 0.8, dim=20)
        with pytest.raises(InadmissibleInputError):
            build_dilation("squeezer", 1.0, dim=20)


class TestTruncationPolicy:
    def test_slack_formula(self):
        assert slack_from_deficit(0.0) == pytest.approx(1e-6)
        assert slack_from_deficit(1e-4) == pytest.approx(50e-4 + 1e-6)

    def test_top_band_is_top_fifth(self):
        state = number_state(DIM - 1, DIM)
        assert top_band_mass(state) == pytest.approx(1.0)
        assert top_band_mass(number_state(0, DIM)) == 0.0

    def test_support_clamped_to_small_dim(self, rng):
        state = random_low_support_state(rng, dim=8, support=10)
        assert state.rho.shape == (8, 8)
        assert np.trace(state.rho).real == pytest.approx(1.0)

    def test_small_dim_flagged_unreliable(self, rng):
        channel = build_dilation("amplifier", 1.5, dim=8)
        state = random_low_support_state(rng, dim=8, support=4)
        record = verify_lower_bound(channel, state)
        assert not record["reliable"]

    def test_output_mass_that_underflows_is_refused(self):
        # every amplitude on |5> underflows at k = 1e154, so no mass is kept
        channel = build_dilation("amplifier", 1e154, dim=8)
        with pytest.raises(InadmissibleInputError, match=r"dim = 8 is 0\.000e\+00, not a positive normal"):
            apply_channel(channel, number_state(5, 8))

    @pytest.mark.parametrize(
        "kind, k, noise",
        [
            ("attenuator", 0.7, None),
            ("amplifier", 1.5, None),
            ("classical_noise", 1.0, 0.3),
            ("amplifier", 2.0, None),  # its trials are unreliable at d = 60
        ],
    )
    def test_slack_covers_the_cutoff_error(self, kind, k, noise):
        # each campaign state, embedded at a cutoff its output does not reach,
        # gives the reference gain; the d = 60 gain must be within its slack
        ref_dim, trials = 200, 20
        channel = build_dilation(kind, k, dim=DIM, noise=noise)
        reference = build_dilation(kind, k, dim=ref_dim, noise=noise)
        summary = lower_bound_campaign(channel, trials, np.random.default_rng(5))
        for state, record in zip(campaign_states(channel, 5, trials), summary["records"]):
            rho = np.zeros((ref_dim, ref_dim), dtype=complex)
            rho[:DIM, :DIM] = state.rho
            exact = verify_lower_bound(reference, fock_density(rho))["gain"]
            assert abs(record["gain"] - exact) <= record["slack"]

    def test_record_keys(self, rng, attenuator, classical_noise):
        state = random_low_support_state(rng, dim=DIM)
        common = {"gain", "deficit", "slack", "holds", "reliable"}
        assert set(verify_lower_bound(attenuator, state)) == common | {"bound"}
        extremality = {"gaussian_gain", "flagged_saturating", "min_symplectic_eigenvalue"}
        assert set(verify_extremality(classical_noise, state)) == common | extremality


class TestProp1:
    def test_vacuum_through_attenuator(self, attenuator):
        record = verify_lower_bound(attenuator, number_state(0, DIM))
        assert record["holds"]
        assert record["bound"] == pytest.approx(2.0 * math.log(0.7))
        assert record["gain"] == pytest.approx(0.0, abs=1e-9)

    def test_thermal_gain_matches_exact_gaussian(self, attenuator):
        nu = 1.0
        record = verify_lower_bound(attenuator, thermal_state(nu, DIM))
        nu_out = 0.49 * (nu - 0.5) + 0.5
        exact = float(mode_entropy(nu_out) - mode_entropy(nu))
        assert record["gain"] == pytest.approx(exact, abs=1e-4)
        assert record["reliable"]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_states_through_amplifier(self, amplifier_small, seed):
        gen = np.random.default_rng(seed)
        state = random_low_support_state(gen, dim=40, support=5)
        record = verify_lower_bound(amplifier_small, state)
        assert record["holds"]

    def test_campaign_summary(self, classical_noise, rng):
        summary = lower_bound_campaign(classical_noise, 10, rng)
        assert summary["holds_count"] == 10
        assert summary["reliable_count"] == 10
        assert len(summary["records"]) == 10
        assert summary["support"] == 10

    @pytest.mark.parametrize("trials", [0, -3])
    def test_campaign_refuses_no_trials(self, attenuator, rng, trials):
        for campaign in (lower_bound_campaign, extremality_campaign):
            with pytest.raises(InadmissibleInputError, match="trials must be >= 1"):
                campaign(attenuator, trials, rng)

    def test_amplifier_campaign_uses_reduced_support(self, rng):
        channel = build_dilation("amplifier", 1.5, dim=DIM)
        summary = lower_bound_campaign(channel, 5, rng)
        assert summary["support"] == 6
        assert summary["reliable_count"] == 5


class TestProp3:
    def test_thermal_equality_through_strict_channel(self, classical_noise):
        record = verify_extremality(classical_noise, thermal_state(1.0, DIM))
        assert record["holds"]
        assert not record["flagged_saturating"]
        assert record["gain"] == pytest.approx(record["gaussian_gain"], abs=1e-4)

    def test_random_states_dominate_their_gaussification(self, classical_noise, rng):
        for _ in range(5):
            state = random_low_support_state(rng)
            record = verify_extremality(classical_noise, state)
            assert record["holds"]

    def test_degenerate_covariance_rejected(self, classical_noise):
        with pytest.raises(HypothesisViolationError):
            verify_extremality(classical_noise, number_state(0, DIM))

    def test_saturating_channel_flagged_not_refused(self, attenuator):
        record = verify_extremality(attenuator, thermal_state(1.0, DIM))
        assert record["flagged_saturating"]
        assert record["holds"]

    def test_campaign(self, classical_noise, rng):
        summary = extremality_campaign(classical_noise, 5, rng)
        assert summary["holds_count"] == 5

    @pytest.mark.parametrize("image, vacuum", [(3, 10), (10, 3)], ids=["image-first", "input-first"])
    def test_chunk_raises_for_its_first_failing_trial(self, attenuator, monkeypatch, image, vacuum):
        # (1 - p)|0><0| + p|1><1| has nu = 1/2 + p, which passes the input test at
        # p = 1.5 tol; the saturating attenuator shrinks p by k^2 = 0.49, below tol
        p = 1.5 * DEFAULT_TOL
        blurred = fock_density(np.diag([1.0 - p, p] + [0.0] * (DIM - 2)).astype(complex))
        failing = {image: blurred, vacuum: number_state(0, DIM)}
        messages = {}
        for trial, state in failing.items():
            with pytest.raises(HypothesisViolationError) as alone:
                verify_extremality(attenuator, state)
            messages[trial] = str(alone.value)
        assert "degenerate Gaussian image" in messages[image]
        assert "state covariance is degenerate" in messages[vacuum]
        draw, kernel, stacks = fock._random_states, fock._kraus_sums, []

        def draw_failing(*args):
            rho, states = draw(*args)
            return rho, [failing.get(trial, state) for trial, state in enumerate(states)]

        def spy(channel, rho):
            stacks.append(len(rho))
            return kernel(channel, rho)

        monkeypatch.setattr(fock, "_random_states", draw_failing)
        monkeypatch.setattr(fock, "_kraus_sums", spy)
        with pytest.raises(HypothesisViolationError, match=re.escape(messages[min(image, vacuum)])):
            extremality_campaign(attenuator, 18, np.random.default_rng(7))
        assert stacks == []

    @pytest.mark.parametrize("name", ["classical_noise", "attenuator"])
    def test_hypotheses_solve_two_stacked_spectra(self, name, request, count_eigensolves):
        # the input and output spectra, each from a Cholesky factor, off which
        # both nondegeneracy tests and the Gaussian gain are read, as one stack
        # whatever the chunk's size
        gch = request.getfixturevalue(name).gaussian_channel()
        chunk = fock._random_states(np.random.default_rng(7), 18, DIM, 10)[1]
        for states in ([thermal_state(1.0, DIM)], chunk):
            count_eigensolves.clear()
            references = fock._extremality_references(gch, states)
            assert len(references) == len(states)
            assert count_eigensolves == ["cholesky", "eigvalsh"] * 2


@pytest.fixture(scope="module")
def amplifier_small():
    return build_dilation("amplifier", 2.0, dim=40)


@pytest.fixture(scope="module")
def small_dilations():
    return [
        build_dilation("attenuator", 0.7, dim=20),
        build_dilation("amplifier", 1.5, dim=20),
        build_dilation("classical_noise", 1.0, dim=20, noise=0.3),
    ]


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """List that gains the shape of each np.linalg.eigvalsh argument."""
    solver, shapes = np.linalg.eigvalsh, []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


class TestOccupiedLevels:
    """Kraus stages and validation touch only the levels a matrix occupies; no output may show it."""

    def test_each_matrix_is_validated_as_if_alone(self, rng):
        # one matrix per occupancy; solving them as one union block moves the smaller ones' bits
        stack = [number_state(0, DIM).rho]
        stack += [random_low_support_state(rng, support=support).rho for support in (4, 10)]
        stack += [thermal_state(2.0, DIM).rho]
        together = fock._validated(np.stack(stack), [0.0] * len(stack))
        for rho, state in zip(stack, together):
            alone = fock_density(rho)
            assert np.array_equal(state.rho, alone.rho)
            assert np.array_equal(state.spectrum, alone.spectrum)

    def test_attenuator_campaign_solves_only_occupied_blocks(self, attenuator, eigvalsh_shapes):
        lower_bound_campaign(attenuator, 20, np.random.default_rng(7))
        # per chunk, one solve of its inputs, then one of its outputs
        assert eigvalsh_shapes == [(18, 10, 10)] * 2 + [(2, 10, 10)] * 2

    def test_amplifier_campaign_solves_its_outputs_on_every_level(self, amplifier, eigvalsh_shapes):
        lower_bound_campaign(amplifier, 20, np.random.default_rng(7))
        assert eigvalsh_shapes == [(18, 6, 6), (18, DIM, DIM), (2, 6, 6), (2, DIM, DIM)]

    @pytest.mark.parametrize(
        "make_state",
        [lambda d: number_state(d - 1, d), lambda d: thermal_state(2.0, d), lambda d: number_state(0, d)],
        ids=["top-level", "full-support", "one-level"],
    )
    def test_edge_states_match_dense_reference(self, small_dilations, make_state):
        for channel in small_dilations:
            state = make_state(channel.dim)
            reference = dense_output(dense_stages(channel), state)
            assert np.abs(apply_channel(channel, state).rho - reference).max() <= 1e-14

    def test_occupancy_is_taken_over_the_whole_stack(self, small_dilations, rng):
        # only the last matrix reaches level 15: occupancy read from the first
        # matrix alone would move one level and lose the rest
        dim = 20
        states = [
            number_state(0, dim),
            random_low_support_state(rng, dim=dim, support=4),
            number_state(15, dim),
        ]
        for channel in small_dilations:
            stages = dense_stages(channel)
            stack = np.stack([state.rho for state in states])
            sums = fock._kraus_sums(channel, stack)
            outs = fock._apply_stack(channel, stack, [state.trace_deficit for state in states])[1]
            for state, summed, out in zip(states, sums, outs):
                assert np.array_equal(summed, full_block_kraus_sums(channel, state.rho))
                assert np.abs(out.rho - dense_output(stages, state)).max() <= 1e-14
                alone = apply_channel(channel, state)
                assert np.array_equal(out.rho, alone.rho)
                assert np.array_equal(out.spectrum, alone.spectrum)
                assert out.trace_deficit == alone.trace_deficit

    @pytest.mark.parametrize(
        "kind, k, noise",
        [("amplifier", 1.5, 0.0), ("classical_noise", 1.0, 0.3)],
        ids=["amplifier", "classical-noise"],
    )
    def test_half_occupied_state_at_dim_400_keeps_the_byte_budget(self, kind, k, noise):
        # all 400 terms of the raising stage at once would take 400 x 200 x 200 x 16 B = 256 MB;
        # the dense operators would take 1 GB a stage, so the reference is the whole-block
        # loop that test_occupancy_is_taken_over_the_whole_stack ties to them at dim 20
        dim = 400
        channel = build_dilation(kind, k, dim=dim, noise=noise)
        state = random_low_support_state(np.random.default_rng(3), dim=dim, support=dim // 2)
        tracemalloc.start()
        try:
            out = apply_channel(channel, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * fock._STACK_BYTES
        reference = full_block_kraus_sums(channel, state.rho)
        reference = 0.5 * (reference + reference.conj().T)
        assert np.abs(out.rho - reference / np.trace(reference).real).max() <= 1e-14

    @pytest.mark.parametrize("dim", [20, DIM])
    def test_row_scan_of_kraus_stacks_equals_the_row_or_column_scan(self, dim, monkeypatch):
        # every stack scanned on rows alone, a campaign's inputs and each dilation's
        # outputs, is Hermitian up to signed zeros: its columns add no level
        scan, scanned = fock._levels, []

        def checked(rho, hermitian=False):
            if hermitian:
                assert np.array_equal(scan(rho, hermitian=True), scan(rho))
                scanned.append(len(rho))
            return scan(rho, hermitian)

        monkeypatch.setattr(fock, "_levels", checked)
        # level 5 is occupied by a purely imaginary off-diagonal pair alone
        imaginary = np.diag([0.5, 0.5] + [0.0] * (dim - 2)).astype(complex)
        imaginary[1, 5], imaginary[5, 1] = 0.25j, -0.25j
        assert scan(imaginary, hermitian=True) == scan(imaginary) == 6
        for kind, k, noise in [("attenuator", 0.7, 0.0), ("amplifier", 1.5, 0.0), ("classical_noise", 1.0, 0.3)]:
            channel = build_dilation(kind, k, dim=dim, noise=noise)
            lower_bound_campaign(channel, 20, np.random.default_rng(3))
            out = fock._kraus_sums(channel, imaginary[None])
            assert np.array_equal(scan(out, hermitian=True), scan(out))
        chunks = math.ceil(20 / (fock._STACK_BYTES // (16 * dim * dim)))  # 1 at d = 20, 2 at d = 60
        assert len(scanned) == 3 * (2 * chunks + 1)  # each chunk's inputs and outputs, then the pair's input

    def test_raw_input_is_scanned_on_rows_and_columns(self):
        # level 3 of this raw matrix is occupied by its column alone; fock_density
        # refuses it (test_zero_padded_non_hermitian_block_is_refused) only if it sees it
        raw = np.diag([0.5, 0.5, 0.0, 0.0, 0.0]).astype(complex)
        raw[0, 3] = 0.4
        assert fock._levels(raw) == 4
        assert fock._levels(raw, hermitian=True) == 2

    def test_channel_on_identity_is_the_full_block_sum(self, small_dilations):
        for channel in small_dilations:
            identity = np.eye(channel.dim)
            assert np.array_equal(channel_on_identity(channel), full_block_kraus_sums(channel, identity))


class TestStackedCampaigns:
    """Campaigns run chunks of trials as stacks; their records are the per-state verifiers'."""

    TRIALS = 40  # three chunks at d = 60

    def test_lower_bound_records_equal_per_state_results(self, attenuator, amplifier, classical_noise):
        for channel in (attenuator, amplifier, classical_noise):
            summary = lower_bound_campaign(channel, self.TRIALS, np.random.default_rng(7))
            states = campaign_states(channel, 7, self.TRIALS)
            assert summary["records"] == [verify_lower_bound(channel, state) for state in states]

    def test_extremality_records_equal_per_state_results(self, attenuator, classical_noise):
        for channel in (classical_noise, attenuator):
            summary = extremality_campaign(channel, self.TRIALS, np.random.default_rng(7))
            states = campaign_states(channel, 7, self.TRIALS)
            assert summary["records"] == [verify_extremality(channel, state) for state in states]
            saturating = channel is attenuator
            assert all(r["flagged_saturating"] == saturating for r in summary["records"])

    @pytest.mark.parametrize("dim, support", [(DIM, 10), (DIM, 6), (8, 10)])
    def test_chunk_draw_equals_successive_single_draws(self, dim, support):
        chunked, alone = np.random.default_rng(5), np.random.default_rng(5)
        rho, states = fock._random_states(chunked, 18, dim, support)
        assert rho.shape == (18, dim, dim)
        for m, state in zip(rho, states):
            single = random_low_support_state(alone, dim=dim, support=support)
            assert np.array_equal(m, single.rho)
            assert np.array_equal(state.rho, single.rho)
            assert np.array_equal(state.spectrum, single.spectrum)
            assert state.trace_deficit == single.trace_deficit == 0.0
        # both generators are left in the same state
        after_chunk = random_low_support_state(chunked, dim=dim, support=support)
        after_singles = random_low_support_state(alone, dim=dim, support=support)
        assert np.array_equal(after_chunk.rho, after_singles.rho)

    def test_degenerate_trial_mid_chunk_raises_before_its_chunk_runs(self, classical_noise, monkeypatch):
        with pytest.raises(HypothesisViolationError) as alone:
            verify_extremality(classical_noise, number_state(0, DIM))
        draw, kernel, drawn, stacks = fock._random_states, fock._kraus_sums, [], []

        def draw_vacuum_25th(*args):
            rho, states = draw(*args)
            trials = range(len(drawn), len(drawn) + len(states))
            drawn.extend(states)
            return rho, [number_state(0, DIM) if i == 24 else state for i, state in zip(trials, states)]

        def spy(channel, rho):
            stacks.append(len(rho))
            return kernel(channel, rho)

        monkeypatch.setattr(fock, "_random_states", draw_vacuum_25th)
        monkeypatch.setattr(fock, "_kraus_sums", spy)
        with pytest.raises(HypothesisViolationError, match=re.escape(str(alone.value))):
            extremality_campaign(classical_noise, self.TRIALS, np.random.default_rng(7))
        assert stacks == [18]
        assert len(drawn) == 36

    def test_stacks_stay_within_the_byte_budget(self, classical_noise, monkeypatch):
        kernel, sizes = fock._kraus_sums, []

        def spy(channel, rho):
            assert rho.nbytes <= fock._STACK_BYTES
            sizes.append(len(rho))
            return kernel(channel, rho)

        monkeypatch.setattr(fock, "_kraus_sums", spy)
        lower_bound_campaign(classical_noise, self.TRIALS, np.random.default_rng(7))
        assert sizes == [18, 18, 4]

    def test_one_trial_per_stack_at_the_largest_cutoff(self, monkeypatch):
        # one 1000-level state is over the budget, so a stack holds one trial;
        # an identity channel and vacuum inputs keep the set-up cheap, and the
        # spy stops the campaign at its first stack
        dim = 1000
        identity = np.zeros((dim, dim), dtype=complex)
        identity[0] = 1.0
        channel = DilationChannel(kind="attenuator", k=0.5, dim=dim, kraus=identity)
        shapes = []

        class FirstStack(Exception):
            pass

        def spy(channel, rho):
            shapes.append(rho.shape)
            raise FirstStack

        def draw_vacua(rng, count, dim, support):
            states = [number_state(0, dim)] * count
            return np.stack([state.rho for state in states]), states

        monkeypatch.setattr(fock, "_random_states", draw_vacua)
        monkeypatch.setattr(fock, "_kraus_sums", spy)
        with pytest.raises(FirstStack):
            lower_bound_campaign(channel, 3, np.random.default_rng(0))
        assert shapes == [(1, dim, dim)]
