"""Tests for Gaussian states, Gibbs states, and the two entropy routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_covariance, random_spd
from egain.errors import InadmissibleInputError
from egain.gaussian import (
    entropy_matrix_form,
    entropy_of_covariance,
    gaussian_entropy,
    gaussian_state,
    gaussify,
    gibbs_covariance,
    gibbs_state,
    log_partition,
    mean_energy,
    mode_entropy,
    quadratic_hamiltonian,
    vacuum_state,
)
from egain.symplectic import canonical_form, symplectic_eigenvalues

# Frozen reference values, computed independently with mpmath at 50 digits.
G_AT_ONE = 0.9547712524422192  # (3/2)log(3/2) - (1/2)log(1/2)
COTH_ONE_HALF = 0.6565176427496656  # coth(1)/2
C_BETA_ONE = -0.8545865421311409  # -log(2 sinh 1)


class TestModeEntropy:
    def test_vacuum_level_is_zero(self):
        assert mode_entropy(0.5) == 0.0

    def test_frozen_value(self):
        assert mode_entropy(1.0) == pytest.approx(G_AT_ONE, abs=1e-15)

    def test_exact_value_at_three_halves(self):
        # (2)log(2) - (1)log(1) = 2 log 2
        assert mode_entropy(1.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)

    def test_large_nu_without_cancellation(self):
        # g(nu) = log(nu) + 1 + O(nu^-2); the two nu log nu terms of the
        # textbook form cancel to within 1e-3 here
        assert mode_entropy(1e12) == pytest.approx(math.log(1e12) + 1.0, abs=1e-13)

    def test_monotone(self):
        nus = np.linspace(0.5, 5.0, 200)
        values = np.array([mode_entropy(nu) for nu in nus])
        assert np.all(np.diff(values) > 0)

    def test_rejects_below_vacuum(self):
        with pytest.raises(InadmissibleInputError):
            mode_entropy(0.4)


class TestGaussianState:
    def test_vacuum_is_degenerate_boundary(self):
        state = vacuum_state(canonical_form(2))
        assert state.cert.is_positive_semidefinite
        assert not state.nondegenerate
        # eigensolver jitter near nu = 1/2 meets an infinite-slope point of
        # the mode entropy, so exact zero is not achievable here
        assert gaussian_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_is_nondegenerate(self):
        space = canonical_form(1)
        state = gaussian_state(space, np.zeros(2), 1.5 * np.eye(2))
        assert state.nondegenerate

    def test_rejects_inadmissible(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError):
            gaussian_state(space, np.zeros(2), 0.25 * np.eye(2))

    def test_rejects_bad_mean_shape(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError):
            gaussian_state(space, np.zeros(3), np.eye(2))

    def test_entropy_adds_over_modes(self):
        space = canonical_form(2)
        alpha = np.diag([1.0, 1.0, 2.0, 2.0])
        state = gaussian_state(space, np.zeros(4), alpha)
        expected = mode_entropy(1.0) + mode_entropy(2.0)
        assert gaussian_entropy(state) == pytest.approx(expected, rel=1e-14)


class TestEntropyRoutes:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3))
    def test_matrix_form_matches_mode_sum(self, seed, modes):
        gen = np.random.default_rng(seed)
        space = canonical_form(modes)
        alpha, _ = random_covariance(gen, modes)
        via_sum = entropy_of_covariance(alpha, space)
        via_matrix = entropy_matrix_form(alpha, space)
        assert via_matrix == pytest.approx(via_sum, rel=1e-10)

    def test_matrix_form_rejects_degenerate(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError):
            entropy_matrix_form(0.5 * np.eye(2), space)


class TestGibbs:
    def test_covariance_identity_hamiltonian(self):
        # With a unit-frequency Hamiltonian the covariance is coth(beta)/2 I.
        space = canonical_form(1)
        ham = quadratic_hamiltonian(space, np.eye(2))
        alpha = gibbs_covariance(ham, 1.0)
        assert alpha == pytest.approx(COTH_ONE_HALF * np.eye(2), abs=1e-12)

    def test_log_partition_frozen_value(self):
        space = canonical_form(1)
        ham = quadratic_hamiltonian(space, np.eye(2))
        assert log_partition(ham, 1.0) == pytest.approx(C_BETA_ONE, abs=1e-13)

    def test_log_partition_matches_spectral_route(self, rng):
        # c(beta) must equal (1/2) sum log(nu_j^2 - 1/4) over the symplectic
        # spectrum of the Gibbs covariance, whenever that form is stable.
        space = canonical_form(2)
        epsilon = random_spd(rng, 4)
        ham = quadratic_hamiltonian(space, epsilon)
        beta = 0.7
        nu = symplectic_eigenvalues(gibbs_covariance(ham, beta), space)
        expected = 0.5 * float(np.sum(np.log(nu**2 - 0.25)))
        assert log_partition(ham, beta) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        modes=st.integers(1, 3),
        beta=st.floats(1e-4, 20.0),
    )
    def test_entropy_energy_identity(self, seed, modes, beta):
        # H(rho_beta) = beta * tr(epsilon alpha_beta) + c(beta), exactly.
        gen = np.random.default_rng(seed)
        space = canonical_form(modes)
        epsilon = random_spd(gen, 2 * modes)
        ham = quadratic_hamiltonian(space, epsilon)
        state = gibbs_state(ham, beta)
        entropy = gaussian_entropy(state.base)
        identity = beta * mean_energy(ham, state.base) + state.c_beta
        assert entropy == pytest.approx(identity, rel=1e-9, abs=1e-9)

    def test_high_temperature_asymptotics(self, rng):
        # alpha_beta -> (2 beta)^-1 epsilon^-1 as beta -> 0.
        space = canonical_form(2)
        epsilon = random_spd(rng, 4)
        ham = quadratic_hamiltonian(space, epsilon)
        beta = 1e-5
        alpha = gibbs_covariance(ham, beta)
        target = np.linalg.inv(epsilon) / (2.0 * beta)
        rel = np.abs(alpha - target).max() / np.abs(target).max()
        assert rel < 1e-3

    def test_deep_cold_limit_stays_admissible(self):
        # At large beta the covariance saturates toward the ground state;
        # coth rounds to 1 in floating point and nu hits 1/2 exactly.
        space = canonical_form(1)
        ham = quadratic_hamiltonian(space, 7.0 * np.eye(2))
        alpha = gibbs_covariance(ham, 50.0)
        nu = symplectic_eigenvalues(alpha, space)
        assert nu[0] == pytest.approx(0.5, abs=1e-12)
        # the stable log-partition stays finite there
        assert math.isfinite(log_partition(ham, 50.0))

    def test_rejects_nonpositive_beta(self):
        space = canonical_form(1)
        ham = quadratic_hamiltonian(space, np.eye(2))
        with pytest.raises(InadmissibleInputError):
            gibbs_covariance(ham, 0.0)

    def test_rejects_overflowing_beta(self):
        space = canonical_form(1)
        ham = quadratic_hamiltonian(space, np.eye(2))
        with pytest.raises(InadmissibleInputError, match="beta = 1e-300 is too small"):
            gibbs_covariance(ham, 1e-300)

    def test_rejects_indefinite_hamiltonian(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError):
            quadratic_hamiltonian(space, np.diag([1.0, -1.0]))


class TestGaussify:
    def test_reproduces_moments(self, rng):
        space = canonical_form(1)
        mean = np.array([0.3, -1.1])
        alpha, _ = random_covariance(rng, 1)
        second = alpha + np.outer(mean, mean)
        state = gaussify(space, mean, second)
        assert state.mean == pytest.approx(mean)
        assert state.alpha == pytest.approx(alpha, abs=1e-12)

    def test_rejects_inadmissible_moments(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError):
            gaussify(space, np.zeros(2), 0.1 * np.eye(2))
