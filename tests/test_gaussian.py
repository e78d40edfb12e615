"""Tests for Gaussian states, Gibbs states, and the two entropy routes."""

import hashlib
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BELOW_THE_BOUND, random_covariance, random_spd, squeezed_covariance
from egain.errors import InadmissibleInputError
from egain.gaussian import (
    entropy_matrix_form,
    entropy_of_covariance,
    gaussian_entropy,
    gaussian_state,
    gibbs_covariance,
    gibbs_state,
    log_partition,
    mean_energy,
    mode_entropy,
    quadratic_hamiltonian,
)
from egain.gaussian import _gibbs_covariances
from egain.symplectic import (
    VERDICT_INDEFINITE,
    HermitianCert,
    _positive_half,
    _uncertainty_cert,
    canonical_form,
    symplectic_eigenvalues,
    williamson,
)

# Frozen reference values, computed independently with mpmath at 50 digits.
G_AT_ONE = 0.9547712524422192  # (3/2)log(3/2) - (1/2)log(1/2)
COTH_ONE_HALF = 0.6565176427496656  # coth(1)/2
C_BETA_ONE = -0.8545865421311409  # -log(2 sinh 1)
NAN = math.nan


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

    @pytest.mark.parametrize(
        "nu", [NAN, [0.7, NAN], [NAN, 0.7], [[1.0, 0.6], [NAN, 0.6]], math.inf, [0.7, math.inf]]
    )
    def test_rejects_non_finite(self, nu):
        with pytest.raises(InadmissibleInputError, match="must be finite and >= 1/2"):
            mode_entropy(nu)


class TestGaussianState:
    def test_vacuum_is_degenerate_boundary(self):
        state = gaussian_state(canonical_form(2), np.zeros(4), 0.5 * np.eye(4))
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

    @pytest.mark.parametrize("nu, r", BELOW_THE_BOUND)
    def test_rejects_squeezed_state_below_the_bound(self, nu, r):
        with pytest.raises(InadmissibleInputError, match="uncertainty bound"):
            gaussian_state(canonical_form(1), np.zeros(2), squeezed_covariance(nu, r))

    @pytest.mark.parametrize(
        "r, theta", [(r, 0.0) for r in range(1, 6)] + [(r, 0.3) for r in range(1, 5)]
    )
    def test_accepts_pure_squeezed_vacuum(self, r, theta):
        state = gaussian_state(canonical_form(1), np.zeros(2), squeezed_covariance(0.5, r, theta))
        assert state.cert.is_positive_semidefinite
        assert abs(state.nu[0] - 0.5) <= 1e-9

    def test_rejects_nan_covariance(self):
        # every comparison with nan is False, so no certificate may see one
        with pytest.raises(InadmissibleInputError, match="not a finite number"):
            gaussian_state(canonical_form(1), np.zeros(2), np.array([[NAN, 0.0], [0.0, 1.0]]))

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


SQUEEZES = [(theta, r) for theta in (0.0, 0.3) for r in range(1, 16)]
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def scaled_least_eigenvalue(theta, r):
    """lambda_min(D^-1 alpha D^-1), D = diag(alpha)^(1/2), of squeezed_covariance(nu, r, theta).

    In closed form: the unit-diagonal 2 x 2 matrix has eigenvalues 1 +- |rho|
    and determinant nu^2 / (alpha_11 alpha_22), a ratio that cancels nothing.
    """
    c, s = math.cos(theta), math.sin(theta)
    up, down = math.exp(2.0 * r), math.exp(-2.0 * r)
    det = 1.0 / ((c * c * up + s * s * down) * (s * s * up + c * c * down))
    return det / (1.0 + math.sqrt(max(0.0, 1.0 - det)))


def refusals(alpha):
    """What gaussian_state, entropy_of_covariance and williamson say of alpha: None where they accept it."""
    space = canonical_form(1)
    uses = {
        "state": lambda: gaussian_state(space, np.zeros(2), alpha),
        "entropy": lambda: entropy_of_covariance(alpha, space),
        "williamson": lambda: williamson(alpha, space).nu,
    }
    found = []
    for name, use in uses.items():
        try:
            result = use()
        except InadmissibleInputError as exc:
            found.append(str(exc))
            continue
        indefinite = name == "williamson" and not _uncertainty_cert(result, 1e-9).is_positive_semidefinite
        found.append("reported indefinite" if indefinite else None)
    return found


class TestStrongSqueezing:
    """Verdicts on one-mode squeezed states at r = 1..15, along the axes and rotated by 0.3."""

    @pytest.mark.parametrize("theta, r", SQUEEZES)
    def test_vacuum_passes_wherever_its_conditioning_allows(self, theta, r):
        # nu = 1/2 is decidable when eps = n (n + 2) u / lambda_min(A) keeps
        # nu (1 - eps) above 1/2 - tol: at every r along the axes, and up to
        # r = 4 rotated (README "Strong squeezing")
        alpha = squeezed_covariance(0.5, r, theta)
        lam = scaled_least_eigenvalue(theta, r)
        allowed = 8 * UNIT_ROUNDOFF / lam <= 2e-9
        assert allowed == (theta == 0.0 or r <= 4)
        found = refusals(alpha)
        if allowed:
            assert found == [None, None, None]
            space = canonical_form(1)
            for nu in (symplectic_eigenvalues(alpha, space), williamson(alpha, space).nu):
                assert abs(nu[0] - 0.5) <= 1e-9
            return
        for message in found:
            assert re.search("undecidable at this conditioning|not positive definite", message)
            named = re.search(r"D\^-1\) = (\S+),.* by a relative (\S+),", message)
            if named and r <= 8:  # beyond, the stored matrix no longer holds lambda_min
                assert float(named.group(1)) == pytest.approx(lam, rel=1e-2)
                assert float(named.group(2)) == pytest.approx(8 * UNIT_ROUNDOFF / lam, rel=1e-2)

    @pytest.mark.parametrize("theta, r", SQUEEZES)
    def test_state_below_the_bound_is_never_accepted(self, theta, r):
        assert None not in refusals(squeezed_covariance(0.5 - 1e-6, r, theta))

    def test_scaled_matrix_is_solved_only_where_the_free_bound_leaves_the_verdict_open(
        self, count_eigensolves
    ):
        # two rotated vacua at r = 3: det(A) is lambda_min^2 (2 - lambda_min)^2,
        # too small to decide, while lambda_min = 3.9e-5 decides
        one = squeezed_covariance(0.5, 3, 0.3)
        two = np.kron(np.eye(2), one)
        gaussian_state(canonical_form(1), np.zeros(2), one)
        assert count_eigensolves == ["cholesky", "eigvalsh"]
        count_eigensolves.clear()
        gaussian_state(canonical_form(2), np.zeros(4), two)
        assert count_eigensolves == ["cholesky", "eigvalsh", "eigvalsh"]


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


class TestSolvedOnce:
    """A Hamiltonian keeps its normal modes and a state its symplectic spectrum."""

    @pytest.fixture
    def hamiltonian(self):
        return quadratic_hamiltonian(canonical_form(3), random_spd(np.random.default_rng(9), 6))

    def test_build_factors_and_solves_the_normal_modes_once(self, count_eigensolves):
        quadratic_hamiltonian(canonical_form(3), random_spd(np.random.default_rng(9), 6))
        assert count_eigensolves == ["cholesky", "eigh"]

    def test_first_gibbs_state_also_solves_the_frequencies(self, hamiltonian, count_eigensolves):
        # the Gibbs spectrum, then symplectic_eigenvalues(epsilon) for log_partition
        gibbs_state(hamiltonian, 0.3)
        assert count_eigensolves == ["cholesky", "eigvalsh"] * 2

    def test_gaussian_state_solves_one_spectrum(self, count_eigensolves):
        # the symplectic spectrum from a Cholesky factor; the certificate is
        # read off it and the conditioning bound off the factor's diagonal
        gaussian_state(canonical_form(3), np.zeros(6), np.eye(6))
        assert count_eigensolves == ["cholesky", "eigvalsh"]

    def test_gibbs_state_solves_one_spectrum(self, hamiltonian, count_eigensolves):
        # the Gibbs spectrum; the cone check and the certificate are read off it
        gibbs_state(hamiltonian, 0.7)
        count_eigensolves.clear()
        gibbs_state(hamiltonian, 0.3)
        assert count_eigensolves == ["cholesky", "eigvalsh"]

    def test_entropy_and_log_partition_solve_none(self, hamiltonian, count_eigensolves):
        state = gibbs_state(hamiltonian, 0.3)
        count_eigensolves.clear()
        gaussian_entropy(state.base)
        log_partition(hamiltonian, 0.3)
        assert count_eigensolves == []

    @staticmethod
    def seeded_gibbs_states(modes):
        """A seeded Hamiltonian on the given modes and its Gibbs states at four betas in [1e-3, 10]."""
        gen = np.random.default_rng(100 + modes)
        ham = quadratic_hamiltonian(canonical_form(modes), random_spd(gen, 2 * modes))
        for beta in 10.0 ** gen.uniform(-3.0, 1.0, size=4):
            yield ham, beta, gibbs_state(ham, beta)

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_kept_values_equal_the_public_routes_exactly(self, modes):
        for ham, beta, state in self.seeded_gibbs_states(modes):
            assert state.c_beta == log_partition(ham, beta)
            assert gaussian_entropy(state.base) == entropy_of_covariance(state.base.alpha, ham.space)
            assert np.array_equal(state.base.alpha, gibbs_covariance(ham, beta))

    def test_values_are_frozen_bit_for_bit(self):
        # md5 of c_beta, the entropy and alpha as computed when every call
        # solved the normal modes and spectra again; the kept ones must match.
        # Frozen again when spectra and the cotangent's congruence came to be
        # taken from Cholesky factors: the values moved by <= 6.0e-13
        digest = hashlib.md5()
        for modes in range(1, 7):
            for _, _, state in self.seeded_gibbs_states(modes):
                digest.update(np.array([state.c_beta, gaussian_entropy(state.base)]).tobytes())
                digest.update(state.base.alpha.tobytes())
        assert digest.hexdigest() == "caa5ebfa0226cecd8719024f37db696c"

    @pytest.mark.parametrize("stiffness", [1e-10, 1e10])
    def test_stiff_hamiltonian_keeps_its_closed_forms(self, stiffness):
        # a positive definite epsilon is accepted however badly scaled: its
        # normal mode has frequency sqrt(stiffness) and alpha is diagonal
        ham = quadratic_hamiltonian(canonical_form(1), np.diag([1.0, stiffness]))
        m = math.sqrt(stiffness)
        state = gibbs_state(ham, 1.0 / m)
        assert ham.frequencies == pytest.approx([m], rel=1e-14)
        assert state.c_beta == pytest.approx(C_BETA_ONE, rel=1e-12)
        assert state.base.nu == pytest.approx([COTH_ONE_HALF], rel=1e-12)

    def test_stored_inputs_are_read_only(self, hamiltonian):
        state = gibbs_state(hamiltonian, 0.3)
        for kept in (state.base.alpha, hamiltonian.epsilon):
            with pytest.raises(ValueError):
                kept[0, 0] = 1.0
        # the caller's own matrix is copied, not frozen
        alpha = 1.5 * np.eye(2)
        gaussian_state(canonical_form(1), np.zeros(2), alpha)
        alpha[0, 0] = 2.0



def outcome(check, arg):
    """check(arg)'s result, or the type, message and slice_index of what it raised."""
    try:
        return "returned", check(arg)
    except (InadmissibleInputError, RuntimeError) as exc:
        return type(exc), str(exc), exc.slice_index


def parts(result, row=None):
    """The parts of a check's result, or of one row of a stacked result."""
    if isinstance(result, HermitianCert):
        result = (result.min_eigenvalue, result.tolerance, result.verdict == VERDICT_INDEFINITE)
    if not isinstance(result, tuple):
        result = (result,)
    return [p if row is None or p is None else p[row] for p in result]


def same(a, b):
    if a is None or b is None:
        return a is b
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestOneSpectrumOnFloats:
    """One spectrum or beta is checked on Python floats, a stack on arrays: same outcomes."""

    @staticmethod
    def assert_stack_agrees(check, single, good):
        """check on one input, on a stack of it, and on a stack of ``good`` before it.

        When ``good`` passes alone, the last stack fails as ``single`` does, at index 1.
        """
        one = outcome(check, single)
        alone = outcome(check, np.asarray(single)[None])
        after = outcome(check, np.stack([good, single]))
        if one[0] != "returned":
            assert one[2] == 0
            assert alone == one
            assert outcome(check, good)[0] != "returned" or after == (*one[:2], 1)
            return
        assert alone[0] == after[0] == "returned"
        for stacked, row in ((alone[1], 0), (after[1], 1)):
            assert all(map(same, parts(stacked, row), parts(one[1])))

    @pytest.mark.parametrize(
        "ev", [[-2.0, 2.0], [-1.0, 1.0 + 5e-6], [-1.0, 1.0 + 3e-5], [-1.0, NAN], [NAN, 1.0]]
    )
    def test_positive_half(self, ev):
        self.assert_stack_agrees(partial(_positive_half, s=1), np.array(ev), np.array([-1.0, 1.0]))

    @pytest.mark.parametrize(
        "nu", [[1.0, 0.6], [1.0, 0.5 - 5e-10], [1.0, 0.5 - 5e-9], [NAN, 0.7], [0.7, NAN]]
    )
    def test_mode_entropy(self, nu):
        self.assert_stack_agrees(mode_entropy, np.array(nu), np.array([1.0, 0.6]))

    @pytest.mark.parametrize(
        "nu", [[1.0, 0.6], [1.0, 0.5], [1.0, 0.5 - 2e-9], [1.0, 0.4], [NAN, 0.7], [0.7, NAN]]
    )
    def test_uncertainty_cert(self, nu):
        check = partial(_uncertainty_cert, tol=1e-9)
        self.assert_stack_agrees(check, np.array(nu), np.array([1.0, 0.6]))

    @pytest.mark.parametrize("beta", [0.3, 1e-100, 0.0, -1.0, NAN, 1e-101, 1e-120])
    @pytest.mark.parametrize("least", [0.1, 1e-10])
    def test_gibbs_covariances(self, beta, least):
        # least = 1e-10: a stiff Hamiltonian, whose covariances are badly scaled
        ham = quadratic_hamiltonian(canonical_form(1), np.diag([1.0, least]))
        check = partial(_gibbs_covariances, ham)
        self.assert_stack_agrees(check, np.float64(beta), np.float64(1.0))
