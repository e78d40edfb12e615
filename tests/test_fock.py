"""Tests for the truncated Fock-space oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egain.channels import apply_to_covariance
from egain.errors import HypothesisViolationError, InadmissibleInputError
from egain.fock import (
    DilationChannel,
    _unitary_from_skew,
    annihilation,
    apply_channel,
    build_dilation,
    channel_on_identity,
    covariance_of,
    fock_density,
    number_state,
    lower_bound_campaign,
    extremality_campaign,
    quadratures,
    random_low_support_state,
    slack_from_deficit,
    thermal_state,
    top_band_mass,
    truncation_flags,
    verify_lower_bound,
    verify_extremality,
    von_neumann_entropy,
)
from egain.gaussian import mode_entropy

DIM = 60


def attenuator_kraus_closed_form(k, dim):
    """Closed-form attenuator Kraus amplitudes, as a cross-check on the dilation.

    Returns the stage table: V_l has amplitude sqrt(binom(n, l)) k^(n-l)
    (1 - k^2)^(l/2) at (n-l, n), stored at [l, n]. The dilation route agrees
    with these up to a phase of (-1)^l per operator, which leaves the channel
    unchanged.
    """
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    amps = np.zeros((dim, dim), dtype=complex)
    for l in range(dim):
        ns = np.arange(l, dim)
        log_binom = log_fact[ns] - log_fact[l] - log_fact[ns - l]
        amps[l, ns] = np.exp(
            0.5 * log_binom + (ns - l) * math.log(k) + 0.5 * l * math.log1p(-k * k)
        )
    return amps


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
            displacement = _unitary_from_skew(shift * a.conj().T - np.conj(shift) * a)
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

    def test_random_states_are_valid(self, rng):
        for _ in range(5):
            state = random_low_support_state(rng, dim=20, support=6)
            assert np.trace(state.rho).real == pytest.approx(1.0)
            assert np.abs(state.rho[6:, :]).max() == 0.0
            assert np.linalg.eigvalsh(state.rho)[0] >= -1e-12


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
        # the generators are exponentiated blockwise, so completeness holds
        # on the whole truncated space, well inside the 1e-8 requirement
        # for the reliable block; classical noise is checked stage by stage.
        # V_l are weighted shifts, so sum_l V_l† V_l is diagonal with entries
        # sum_l |amps[l, n]|^2
        stages = (attenuator.kraus, amplifier.kraus, classical_noise.first, classical_noise.kraus)
        for amps in stages:
            assert amps.shape == (DIM, DIM)
            assert np.abs((np.abs(amps) ** 2).sum(axis=0) - 1.0).max() < 1e-12

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
        closed = attenuator_kraus_closed_form(0.7, DIM)
        alt = DilationChannel(kind="attenuator", k=0.7, dim=DIM, kraus=closed)
        state = random_low_support_state(rng)
        out_dilation = apply_channel(attenuator, state).rho
        out_closed = apply_channel(alt, state).rho
        assert np.abs(out_dilation - out_closed).max() < 1e-12

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

    def test_flags_dict(self):
        flags = truncation_flags(thermal_state(1.0, DIM))
        assert flags["reliable"]
        assert set(flags) == {"trace_deficit", "top_band_mass", "reliable"}


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
        state = random_low_support_state(gen, dim=40, support=5, max_components=3)
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

    def test_saturating_channel_refusal_mode(self, attenuator):
        with pytest.raises(HypothesisViolationError):
            verify_extremality(attenuator, thermal_state(1.0, DIM), saturating="refuse")

    def test_campaign(self, classical_noise, rng):
        summary = extremality_campaign(classical_noise, 5, rng)
        assert summary["holds_count"] == 5


@pytest.fixture(scope="module")
def amplifier_small():
    return build_dilation("amplifier", 2.0, dim=40)
