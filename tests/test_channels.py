"""Tests for Gaussian channels: presets, gains, bounds, sweeps, additivity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_covariance, random_regular_channel, random_spd
from egain.channels import (
    apply_to_covariance,
    default_beta_grid,
    gain_beta_sweep,
    gaussian_gain,
    general_lower_bound,
    make_channel,
    minimal_entropy_gain,
    preset_channel,
    tensor_channels,
)
from egain.errors import InadmissibleInputError, NonRegularChannelError
from egain.gaussian import gibbs_covariance, mode_entropy, quadratic_hamiltonian
from egain.symplectic import canonical_form


class TestPresets:
    @pytest.mark.parametrize("k", [0.3, 0.5, 2.0, 5.0])
    def test_gain_is_two_log_k_exactly(self, k):
        name = "attenuator" if k < 1 else "amplifier"
        channel = preset_channel(name, k)
        assert minimal_entropy_gain(channel) == 2.0 * math.log(k)

    def test_classical_noise_identity_k(self):
        channel = preset_channel("classical-noise", 1.0, noise=0.2)
        assert minimal_entropy_gain(channel) == 0.0

    def test_minimal_noise_certs_saturate(self):
        # the minimal-noise attenuator and amplifier sit exactly on the
        # admissibility boundary; extra classical noise moves them inside
        for name, k in [("attenuator", 0.5), ("amplifier", 2.0)]:
            assert not preset_channel(name, k).strict
            assert preset_channel(name, k, noise=0.1).strict
        assert preset_channel("classical-noise", 1.0, noise=0.3).strict

    def test_rejects_bad_parameters(self):
        with pytest.raises(InadmissibleInputError):
            preset_channel("attenuator", 1.5)
        with pytest.raises(InadmissibleInputError):
            preset_channel("amplifier", 0.5)
        with pytest.raises(InadmissibleInputError):
            preset_channel("classical-noise", 2.0)
        with pytest.raises(InadmissibleInputError):
            preset_channel("no-such-channel", 0.5)

    def test_rejects_insufficient_noise(self):
        space = canonical_form(1)
        K = 2.0 * np.eye(2)
        with pytest.raises(InadmissibleInputError):
            make_channel(K, 0.1 * np.eye(2), space)


class TestGainAndBound:
    def test_non_regular_rejected(self):
        space = canonical_form(1)
        channel = make_channel(np.zeros((2, 2)), 2.0 * np.eye(2), space)
        assert not channel.regular
        with pytest.raises(NonRegularChannelError):
            minimal_entropy_gain(channel)
        with pytest.raises(NonRegularChannelError):
            general_lower_bound(channel)

    def test_general_lower_bound_values(self):
        # Phi[I] = 4 I for the attenuator with k = 0.5
        assert general_lower_bound(preset_channel("attenuator", 0.5)) == pytest.approx(
            -math.log(4.0)
        )
        # five amplifier modes with k = 1e40: det K = 1e400 overflows a double,
        # the bound 10 log(1e40) = 921.03 does not
        channel = preset_channel("amplifier", 1e40)
        for _ in range(4):
            channel = tensor_channels(channel, preset_channel("amplifier", 1e40))
        assert channel.regular
        assert general_lower_bound(channel) == pytest.approx(10.0 * math.log(1e40), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3))
    def test_general_bound_equals_closed_form_when_regular(self, seed, modes):
        gen = np.random.default_rng(seed)
        channel = random_regular_channel(gen, modes)
        closed = minimal_entropy_gain(channel)
        bound = general_lower_bound(channel)
        assert bound == pytest.approx(closed, rel=1e-10, abs=1e-10)


class TestApplyToCovariance:
    def test_attenuator_on_thermal(self):
        channel = preset_channel("attenuator", 0.5)
        out = apply_to_covariance(channel, 2.0 * np.eye(2))
        expected = (0.25 * (2.0 - 0.5) + 0.5) * np.eye(2)
        assert out == pytest.approx(expected, abs=1e-14)

    def test_output_always_admissible(self, rng):
        channel = preset_channel("amplifier", 1.5, noise=0.2)
        for _ in range(10):
            alpha, _ = random_covariance(rng, 1)
            out = apply_to_covariance(channel, alpha)
            from egain.symplectic import symplectic_eigenvalues

            nu = symplectic_eigenvalues(out, channel.space)
            assert nu[-1] >= 0.5 - 1e-9

    def test_gaussian_gain_on_thermal(self):
        channel = preset_channel("attenuator", 0.7)
        nu_in = 2.0
        nu_out = 0.49 * (nu_in - 0.5) + 0.5
        gain = gaussian_gain(channel, nu_in * np.eye(2))
        assert gain == pytest.approx(mode_entropy(nu_out) - mode_entropy(nu_in), rel=1e-12)


class TestBetaSweep:
    def test_default_grid_shape(self):
        grid = default_beta_grid()
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e-6)
        assert len(grid) == 25
        assert np.all(np.diff(grid) < 0)

    def test_grid_validation(self):
        with pytest.raises(InadmissibleInputError):
            default_beta_grid(1e-6, 1.0, 25)
        with pytest.raises(InadmissibleInputError):
            default_beta_grid(1.0, 1e-6, 1)

    @pytest.mark.parametrize("name,k", [("attenuator", 0.5), ("amplifier", 2.0)])
    def test_preset_sweep_converges_from_above(self, name, k):
        channel = preset_channel(name, k)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        report = gain_beta_sweep(channel, ham)
        closed = 2.0 * math.log(k)
        assert report.converged
        assert report.closed_form == pytest.approx(closed)
        assert abs(report.gains[-1] - closed) < 1e-3
        assert np.all(np.diff(report.gains) < 0)
        assert np.all(report.gains >= closed - 1e-9)

    def test_adaptive_extension_kicks_in(self):
        # a short grid stopping at beta = 0.1 cannot be within 1e-3 of the
        # closed form, so the sweep must extend itself downward
        channel = preset_channel("attenuator", 0.5)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        grid = default_beta_grid(1.0, 0.1, 3)
        report = gain_beta_sweep(channel, ham, beta_grid=grid)
        assert report.converged
        assert len(report.beta_grid) > 3
        assert report.beta_grid[-1] < 0.1

    def test_non_adaptive_reports_non_convergence(self):
        channel = preset_channel("attenuator", 0.5)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        grid = default_beta_grid(1.0, 0.1, 3)
        report = gain_beta_sweep(channel, ham, beta_grid=grid, adaptive=False)
        assert not report.converged

    def test_gap_resolved_at_beta_floor(self):
        # the exact gap is 3 beta; at the adaptive floor of 1e-12 it must not
        # drown in rounding of entropies near 28 nats
        channel = preset_channel("attenuator", 0.5)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        gain = gaussian_gain(channel, gibbs_covariance(ham, 1e-12))
        assert abs(gain - minimal_entropy_gain(channel)) <= 1e-10

    def test_rejects_ascending_grid(self):
        channel = preset_channel("attenuator", 0.5)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        with pytest.raises(InadmissibleInputError):
            gain_beta_sweep(channel, ham, beta_grid=np.array([0.1, 1.0]))

    def test_rejects_non_regular(self):
        space = canonical_form(1)
        channel = make_channel(np.zeros((2, 2)), 2.0 * np.eye(2), space)
        ham = quadratic_hamiltonian(space, np.eye(2))
        with pytest.raises(NonRegularChannelError):
            gain_beta_sweep(channel, ham)


class TestTensorAdditivity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        modes_a=st.integers(1, 2),
        modes_b=st.integers(1, 2),
    )
    def test_gain_adds_exactly(self, seed, modes_a, modes_b):
        gen = np.random.default_rng(seed)
        a = random_regular_channel(gen, modes_a)
        b = random_regular_channel(gen, modes_b)
        combined = tensor_channels(a, b)
        total = minimal_entropy_gain(a) + minimal_entropy_gain(b)
        assert minimal_entropy_gain(combined) == pytest.approx(total, rel=1e-13, abs=1e-13)

    def test_block_structure(self):
        a = preset_channel("attenuator", 0.5)
        b = preset_channel("amplifier", 2.0)
        combined = tensor_channels(a, b)
        assert combined.space.s == 2
        assert combined.K[:2, 2:] == pytest.approx(np.zeros((2, 2)))
        assert combined.K[:2, :2] == pytest.approx(a.K)
        assert combined.K[2:, 2:] == pytest.approx(b.K)
