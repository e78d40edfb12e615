"""Tests for Gaussian channels: presets, gains, bounds, sweeps, additivity."""

import hashlib
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BELOW_THE_BOUND,
    UNIT_ROUNDOFF,
    random_covariance,
    random_regular_channel,
    random_spd,
    scaled_least_eigenvalue,
    squeezed_covariance,
)
from egain.channels import (
    _MU_ENTRY_MAX,
    GaussianChannel,
    apply_to_covariance,
    default_beta_grid,
    gain_beta_sweep,
    gaussian_gain,
    make_channel,
    minimal_entropy_gain,
    preset_channel,
    tensor_channels,
)
from egain.errors import InadmissibleInputError, NonRegularChannelError
from egain.gaussian import (
    entropy_matrix_form,
    entropy_of_covariance,
    gaussian_entropy,
    gaussian_state,
    gibbs_covariance,
    gibbs_state,
    mean_energy,
    mode_entropy,
    quadratic_hamiltonian,
)
from egain.symplectic import HermitianCert, canonical_form, williamson


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

    @pytest.mark.parametrize("noise", [-0.1, math.inf, math.nan])
    def test_refuses_noise_by_name_before_any_arithmetic(self, noise):
        # RuntimeWarnings are errors under pytest: the refusal must come before mu = ... * eye
        with pytest.raises(InadmissibleInputError, match=rf"^noise must be nonnegative and finite, got {noise!r}$"):
            preset_channel("amplifier", 1.5, noise=noise)

    def test_attenuator_refuses_k_whose_square_underflows(self):
        least = math.sqrt(sys.float_info.min)
        channel = preset_channel("attenuator", least)
        assert channel.regular
        assert minimal_entropy_gain(channel) == pytest.approx(2.0 * math.log(least), rel=1e-15)
        for k in (math.nextafter(least, 0.0), 1e-160, 1e-170, 5e-324):
            with pytest.raises(InadmissibleInputError, match=rf"^k = {k:.3g} is too small"):
                preset_channel("attenuator", k)

    @pytest.mark.parametrize("k, named", [(1e200, "1e+200"), (math.inf, "inf"), (1.35e154, "1.35e+154")])
    def test_amplifier_refuses_k_whose_square_overflows_before_any_arithmetic(self, k, named):
        # k * k would be inf, and inf * eye warns at inf * 0 before make_channel could refuse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InadmissibleInputError, match=rf"^k = {re.escape(named)} is too large: k\^2 overflows$"):
                preset_channel("amplifier", k)

    @pytest.mark.parametrize(
        "name, k, noise, named",
        [
            ("amplifier", 1e100, 0.0, "k = 1e+100"),
            ("amplifier", 1.6e77, 0.0, "k = 1.6e+77"),
            ("amplifier", math.nextafter(math.sqrt(2.0 * _MU_ENTRY_MAX + 1.0), math.inf), 0.0, "k = 1.38e+77"),
            ("amplifier", 2.0, 1e200, "noise = 1e+200"),
            ("attenuator", 0.5, _MU_ENTRY_MAX, "noise = 9.48e+153"),
            ("classical-noise", 1.0, sys.float_info.max, "noise = 1.8e+308"),
        ],
    )
    def test_refuses_a_noise_entry_that_squares_past_the_float_range_before_any_arithmetic(
        self, name, k, noise, named
    ):
        # the checks square mu's entry into its size, which would warn of overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InadmissibleInputError,
                match=rf"^{re.escape(named)} is too large: the noise entry mu = \S+ squares past the float range$",
            ):
                preset_channel(name, k, noise=noise)

    @pytest.mark.parametrize(
        "name, k, noise",
        [
            ("amplifier", 1.377e77, 0.0),
            ("attenuator", 0.5, math.nextafter(_MU_ENTRY_MAX, 0.0)),
            ("classical-noise", 1.0, math.nextafter(_MU_ENTRY_MAX, 0.0)),
        ],
    )
    def test_accepts_the_largest_noise_entry_without_a_warning(self, name, k, noise):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            channel = preset_channel(name, k, noise=noise)
        assert channel.mu[0, 0] < _MU_ENTRY_MAX
        assert minimal_entropy_gain(channel) == pytest.approx(2.0 * math.log(k), rel=1e-15)

    def test_rejects_insufficient_noise(self):
        space = canonical_form(1)
        K = 2.0 * np.eye(2)
        with pytest.raises(InadmissibleInputError):
            make_channel(K, 0.1 * np.eye(2), space)


# K = I/2 needs noise mu >= (3/8) i delta: mu = c R diag(e^2r, e^-2r) R^T is
# admissible iff c >= 3/8, at every squeezing r and rotation R
HALF = 0.5 * np.eye(2)


class TestSqueezedNoise:
    @pytest.mark.parametrize("r", range(1, 16))
    def test_noise_along_the_axes_is_judged_alike_at_every_squeezing(self, r):
        # D^-1 M D^-1 = I - (3 / 8c) i delta, least eigenvalue 1 - 3 / 8c
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError, match=r"bound: min eigenvalue -2.500e-01$"):
            make_channel(HALF, squeezed_covariance(0.3, r), space)
        cert = make_channel(HALF, squeezed_covariance(0.376, r), space).cert
        assert cert.is_positive_definite
        assert cert.min_eigenvalue == pytest.approx(1.0 - 0.375 / 0.376, rel=1e-9)

    @pytest.mark.parametrize("r", range(1, 16))
    def test_rotated_noise_below_the_bound_is_refused(self, r):
        # the congruence by cholesky(mu) reads -1/4 at every rotation; once
        # the rounding of mu, a relative eps of it, could move that by 1/4, the
        # channel is refused as undecidable or, when the stored mu has lost
        # its small eigenvalue, as not positive definite
        eps = 8 * UNIT_ROUNDOFF / scaled_least_eigenvalue(0.3, r)
        with pytest.raises(InadmissibleInputError) as refused:
            make_channel(HALF, squeezed_covariance(0.3, r, 0.3), canonical_form(1))
        if eps < 0.25:
            assert "below the admissibility bound" in str(refused.value)
        else:
            assert re.search("undecidable at this conditioning|not positive definite", str(refused.value))

    @pytest.mark.parametrize("r", range(1, 16))
    def test_rotated_noise_above_the_bound_is_accepted(self, r):
        # accepted wherever the rounding of mu cannot flip the verdict (r <= 7),
        # its least eigenvalue within eps of 1 - 3 / 8c; never refused as below the bound
        margin = 1.0 - 0.375 / 0.376
        eps = 8 * UNIT_ROUNDOFF / scaled_least_eigenvalue(0.3, r)
        try:
            cert = make_channel(HALF, squeezed_covariance(0.376, r, 0.3), canonical_form(1)).cert
        except InadmissibleInputError as exc:
            assert eps > margin
            assert re.search("undecidable at this conditioning|not positive definite", str(exc))
            return
        assert eps < margin and cert.is_positive_definite
        assert abs(cert.min_eigenvalue - margin) <= eps


class TestNoiseCert:
    """The noise bound mu - (i/2)(delta - K.T delta K), certified on its congruence by cholesky(mu)."""

    def test_positive_definite(self):
        channel = make_channel(np.eye(2), 0.5 * np.eye(2), canonical_form(1))
        assert channel.cert.verdict == "positive_definite" and channel.strict
        assert channel.cert.min_eigenvalue == pytest.approx(1.0)

    def test_saturating_is_semidefinite_only(self):
        channel = make_channel(np.eye(2), np.diag([1.0, 0.0]), canonical_form(1))
        assert channel.cert.verdict == "positive_semidefinite"
        assert channel.cert.is_positive_semidefinite and not channel.strict

    def test_indefinite_quarter_identity(self):
        # (1/4)I + (i/2)delta scales to I + 2i delta, whose eigenvalues are
        # 1 +- 2, so min is exactly -1: noise below the vacuum is refused
        with pytest.raises(InadmissibleInputError, match=r"min eigenvalue -1.000e\+00$"):
            make_channel(np.zeros((2, 2)), 0.25 * np.eye(2), canonical_form(1))

    def test_zero_diagonal_needs_a_zero_row(self):
        coupled = np.array([[1.0, 1e-3], [1e-3, 0.0]])
        with pytest.raises(InadmissibleInputError, match="below the admissibility bound"):
            make_channel(np.eye(2), coupled, canonical_form(1))

    @pytest.mark.parametrize(
        "build, cert",
        [
            (lambda: preset_channel("classical-noise", 1.0), (0.0, 1e-9)),
            (lambda: make_channel(np.eye(2), np.diag([1.0, 0.0]), canonical_form(1)), (0.0, 1e-9)),
            (
                lambda: tensor_channels(
                    preset_channel("classical-noise", 1.0), preset_channel("attenuator", 0.5)
                ),
                (0.0, 2e-9),
            ),
        ],
        ids=["mu-zero", "zero-row", "identity-with-attenuator"],
    )
    def test_noise_with_zero_rows_keeps_its_certificate(self, build, cert):
        # a zero mu_jj is factored as 1; these certificates are frozen bit for bit
        assert tuple(build().cert) == cert

    def test_singular_noise_off_its_zero_rows_is_refused(self):
        # M = mu is semidefinite, but mu has no Cholesky factor and no zero row
        with pytest.raises(InadmissibleInputError, match="^channel noise mu is not positive definite$"):
            make_channel(np.eye(2), np.ones((2, 2)), canonical_form(1))

    @pytest.mark.parametrize("modes", [1, 3, 6])
    def test_isotropic_noise_costs_one_factor_and_one_eigensolve(self, modes, count_eigensolves):
        # the AM-GM bound on lambda_min(D^-1 mu D^-1) decides without a second solve
        channel = random_regular_channel(np.random.default_rng(modes), modes)
        count_eigensolves.clear()
        make_channel(channel.K, channel.mu, channel.space)
        assert count_eigensolves == ["cholesky", "eigvalsh"]

    def test_rounding_of_k_t_delta_k_is_no_refusal(self):
        # the skew part of the bound is built here, so its rounding is not a
        # defect to test, however small the tolerance
        space = canonical_form(2)
        K = np.random.default_rng(0).standard_normal((4, 4))
        product = K.T @ space.delta @ K
        assert not np.array_equal(product, -product.T)
        channel = make_channel(K, 50.0 * np.eye(4), space, tol=1e-18)
        assert channel.strict and channel.cert.tolerance < 1e-16

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_k_that_is_not_finite_before_any_arithmetic(self, bad):
        K = np.eye(2)
        K[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InadmissibleInputError, match="^channel matrix K has an entry"):
                make_channel(K, np.eye(2), canonical_form(1))

    @pytest.mark.parametrize("K", [np.eye(3), np.eye(4), np.ones(2)])
    def test_refuses_k_of_the_wrong_shape(self, K):
        with pytest.raises(InadmissibleInputError, match=rf"^K must be 2x2, got {re.escape(str(K.shape))}$"):
            make_channel(K, np.eye(2), canonical_form(1))

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda m: make_channel(np.eye(2), m, canonical_form(1)), "channel noise mu"),
            (lambda m: quadratic_hamiltonian(canonical_form(1), m), "Hamiltonian matrix"),
            (lambda m: williamson(m, canonical_form(1)), "covariance matrix"),
        ],
        ids=["mu", "epsilon", "alpha"],
    )
    def test_a_matrix_of_the_wrong_shape_is_refused_by_name(self, build, named):
        with pytest.raises(InadmissibleInputError, match=rf"^{named} must be 2x2, got \(4, 4\)$"):
            build(np.eye(4))


class TestGainAndBound:
    def test_non_regular_rejected(self):
        space = canonical_form(1)
        channel = make_channel(np.zeros((2, 2)), 2.0 * np.eye(2), space)
        assert not channel.regular
        with pytest.raises(NonRegularChannelError):
            minimal_entropy_gain(channel)

    def test_general_lower_bound_values(self):
        # Phi[I] = 4 I for the attenuator with k = 0.5
        assert minimal_entropy_gain(preset_channel("attenuator", 0.5)) == pytest.approx(
            -math.log(4.0)
        )
        # five amplifier modes with k = 1e40: det K = 1e400 overflows a double,
        # the bound 10 log(1e40) = 921.03 does not
        channel = preset_channel("amplifier", 1e40)
        for _ in range(4):
            channel = tensor_channels(channel, preset_channel("amplifier", 1e40))
        assert channel.regular
        assert minimal_entropy_gain(channel) == pytest.approx(10.0 * math.log(1e40), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3))
    def test_general_bound_equals_closed_form_when_regular(self, seed, modes):
        gen = np.random.default_rng(seed)
        channel = random_regular_channel(gen, modes)
        # log |det K| from the singular values, a route independent of slogdet
        bound = float(np.log(np.linalg.svd(channel.K, compute_uv=False)).sum())
        assert minimal_entropy_gain(channel) == pytest.approx(bound, rel=1e-10, abs=1e-10)


class TestSolvedOnce:
    def test_make_channel_keeps_a_read_only_copy_of_k(self):
        K, mu = 0.5 * np.eye(2), 0.5 * np.eye(2)
        channel = make_channel(K, mu, canonical_form(1))
        assert channel.K is not K and K.flags.writeable and mu.flags.writeable
        K[0, 0] = 0.25  # the caller's array stays theirs; the kept value does not go stale
        assert channel.K[0, 0] == 0.5
        assert minimal_entropy_gain(channel) == 2.0 * math.log(0.5)
        for kept in (channel.K, channel.mu):
            with pytest.raises(ValueError):
                kept[0, 0] = 1.0

    def test_sweep_and_closed_form_take_one_slogdet(self, monkeypatch):
        gen = np.random.default_rng(8)
        channel = random_regular_channel(gen, 2)
        ham = quadratic_hamiltonian(channel.space, random_spd(gen, 4))
        calls = []
        slogdet = np.linalg.slogdet

        def counted(M):
            calls.append(M)
            return slogdet(M)

        monkeypatch.setattr(np.linalg, "slogdet", counted)
        report = gain_beta_sweep(channel, ham)
        assert minimal_entropy_gain(channel) == report.closed_form and channel.regular
        assert len(calls) == 1


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

    @pytest.mark.parametrize("nu, r", BELOW_THE_BOUND)
    def test_gaussian_gain_refuses_squeezed_state_below_the_bound(self, nu, r):
        # the attenuator's noise takes these states into the cone, so only a
        # certificate of the input can refuse them
        with pytest.raises(InadmissibleInputError, match="uncertainty bound"):
            gaussian_gain(preset_channel("attenuator", 0.5), squeezed_covariance(nu, r))


class TestCertifiedSpectra:
    def test_one_state_has_one_threshold(self):
        # nu = (1000, 1/2 - 1e-7): the certificate reads -1e-7 against the
        # tolerance 1e-9 (1000 + 1/2), and every entropy reads the second
        # mode as g(1/2) = 0
        space = canonical_form(2)
        alpha = np.diag([1000.0, 1000.0, 0.5 - 1e-7, 0.5 - 1e-7])
        state = gaussian_state(space, np.zeros(4), alpha)
        assert state.cert.min_eigenvalue == pytest.approx(-1e-7, rel=1e-6)
        assert state.cert.is_positive_semidefinite
        expected = float(mode_entropy(state.nu[0]))
        assert gaussian_entropy(state) == entropy_of_covariance(alpha, space) == expected
        identity = make_channel(np.eye(4), np.zeros((4, 4)), space)
        assert gaussian_gain(identity, alpha) == 0.0


def reference_sweep(channel, ham, grid, tol=1e-3, beta_floor=1e-12):
    """gain_beta_sweep evaluated point by point: one Gibbs covariance and gain per beta."""
    closed = minimal_entropy_gain(channel)
    betas = list(grid)
    gains = [gaussian_gain(channel, gibbs_covariance(ham, b)) for b in betas]
    converged = abs(gains[-1] - closed) < tol
    while not converged and betas[-1] / 10.0 >= beta_floor:
        betas.append(betas[-1] / 10.0)
        gains.append(gaussian_gain(channel, gibbs_covariance(ham, betas[-1])))
        converged = abs(gains[-1] - closed) < tol
    return np.array(betas), np.array(gains), converged


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

    @pytest.mark.parametrize("points", [1, 2.5, math.nan, math.inf, "3"], ids=["1", "2.5", "nan", "inf", "str"])
    def test_grid_refuses_points_that_are_no_whole_number_by_name(self, points):
        # 2.5 was taken as 2 points, nan raised an unnamed ValueError and inf an OverflowError
        message = re.escape(f"beta grid points must be an integer >= 2, got {points!r}")
        with pytest.raises(InadmissibleInputError, match=f"^{message}$"):
            default_beta_grid(points=points)

    def test_grid_takes_a_whole_float_count(self):
        assert np.array_equal(default_beta_grid(points=3.0), default_beta_grid(points=3))

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

    def test_gap_resolved_at_beta_floor(self):
        # the exact gap is 3 beta; at the adaptive floor of 1e-12 it must not
        # drown in rounding of entropies near 28 nats
        channel = preset_channel("attenuator", 0.5)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        gain = gaussian_gain(channel, gibbs_covariance(ham, 1e-12))
        assert abs(gain - minimal_entropy_gain(channel)) <= 1e-10

    @pytest.mark.parametrize("modes", range(1, 7))
    def test_stacked_sweep_equals_point_by_point_loop(self, modes):
        gen = np.random.default_rng([20261018, modes])
        channel = random_regular_channel(gen, modes)
        ham = quadratic_hamiltonian(channel.space, random_spd(gen, 2 * modes))
        short = default_beta_grid(1.0, 0.01, 5)  # too coarse to converge: must extend
        long = default_beta_grid(1.0, 1e-8, 25)  # converges on its last point: no extension
        for grid, extends in [(short, True), (long, False)]:
            report = gain_beta_sweep(channel, ham, beta_grid=grid)
            betas, gains, converged = reference_sweep(channel, ham, grid)
            assert np.array_equal(report.beta_grid, betas)
            assert np.array_equal(report.gains, gains)
            assert report.converged == converged
            assert (len(betas) > len(grid)) == extends
        # the same channel short of noise, built past make_channel: its output
        # at beta = 1 has no Cholesky factor, and the last beta is below the
        # overflow floor, a check the stack meets first
        out = channel.K.T @ gibbs_covariance(ham, 1.0) @ channel.K + channel.mu
        mu = channel.mu - 1.5 * np.linalg.eigvalsh(out)[0] * np.eye(2 * modes)
        short_of_noise = GaussianChannel(channel.space, channel.K, mu, channel.cert, strict=False)
        failing = np.array([1.0, 0.5, 1e-2, 1e-120])
        with pytest.raises(InadmissibleInputError) as looped:
            reference_sweep(short_of_noise, ham, failing)
        with pytest.raises(InadmissibleInputError) as stacked:
            gain_beta_sweep(short_of_noise, ham, beta_grid=failing)
        assert str(looped.value) == "channel output is not positive definite"
        assert str(stacked.value) == str(looped.value)

    @pytest.mark.parametrize("p", range(5))
    def test_refused_grid_falls_back_to_the_loop_wherever_beta_overflows(self, p):
        # the channel short of noise of the test above refuses its output at beta = 1; the
        # grid's betas from position p on lie below the overflow floor, which the whole grid's
        # Gibbs covariances meet before any certificate
        for modes in range(1, 7):
            gen = np.random.default_rng([20261018, modes])
            channel = random_regular_channel(gen, modes)
            ham = quadratic_hamiltonian(channel.space, random_spd(gen, 2 * modes))
            out = channel.K.T @ gibbs_covariance(ham, 1.0) @ channel.K + channel.mu
            mu = channel.mu - 1.5 * np.linalg.eigvalsh(out)[0] * np.eye(2 * modes)
            short_of_noise = GaussianChannel(channel.space, channel.K, mu, channel.cert, strict=False)
            grid = np.array([1.0, 0.5, 0.2, 0.1, 0.05][:p] + [1e-120, 1e-121, 1e-122, 1e-123, 1e-124][p:])
            with pytest.raises(InadmissibleInputError) as looped:
                reference_sweep(short_of_noise, ham, grid)
            with pytest.raises(InadmissibleInputError) as stacked:
                gain_beta_sweep(short_of_noise, ham, beta_grid=grid)
            expected = "channel output is not positive definite" if p else "beta = 1e-120 is too small"
            assert str(looped.value).startswith(expected)
            assert str(stacked.value) == str(looped.value)

    def test_refuses_first_beta_below_overflow_floor(self):
        channel = preset_channel("amplifier", 2.0)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))  # frequencies m = 1
        grid = np.array([1.0, 1e-50, 1e-99, 1e-101, 1e-110, 1e-300])
        with pytest.raises(InadmissibleInputError, match=r"^beta = 1e-101 is too small"):
            gain_beta_sweep(channel, ham, beta_grid=grid)

    def test_refuses_an_infinite_beta_by_name(self):
        # refused before the cotangent, whose argument would be nan (inf * 0), reaches an internal check
        channel = preset_channel("amplifier", 2.0)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        with pytest.raises(InadmissibleInputError, match="^beta must be positive and finite$"):
            gain_beta_sweep(channel, ham, beta_grid=[math.inf, 1.0])

    def test_error_is_the_first_a_point_by_point_loop_meets(self):
        space = canonical_form(1)
        # an attenuator without its noise, built past make_channel: its output
        # at beta = 1 falls below the uncertainty bound, a check that comes
        # after the overflow floor that the last beta fails
        K, mu = 0.5 * np.eye(2), np.zeros((2, 2))
        cert = HermitianCert(-0.375, 1e-9)  # mu - (i/2)(delta - K.T delta K) = -(3/8) i delta
        attenuator = GaussianChannel(space=space, K=K, mu=mu, cert=cert, strict=False)
        # a stiff rotated Hamiltonian, whose Gibbs covariance at beta = 1e5 is
        # near pure and squeezed past a decidable verdict, while negative noise
        # leaves its output no Cholesky factor, a check that comes first in a
        # certificate: the loop meets the input's refusal, and so must the
        # sweep, which certifies inputs and outputs as one stack
        R = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
        stiff = quadratic_hamiltonian(space, R @ np.diag([1.0, 1e-8]) @ R.T)
        negative = GaussianChannel(space, np.eye(2), -1e-3 * np.eye(2), HermitianCert(-1e-3, 1e-9), strict=False)
        identity = quadratic_hamiltonian(space, np.eye(2))
        # a K whose image of the Gibbs covariance at beta = 1e-90 overflows: the loop
        # refuses the covariance at beta = 1e5 before it forms any image, so the
        # sweep must meet neither the CLI's overflow error nor a numpy warning
        huge = GaussianChannel(space, np.diag([1e108, 1e-108]), 1e-3 * np.eye(2), HermitianCert(0.0, 1e-9), strict=False)
        cases = [
            (attenuator, identity, [1.0, 1e-3, 1e-120], "channel output fails the uncertainty bound"),
            (negative, stiff, [1e5, 1.0], "admissibility of the Gibbs covariance is undecidable"),
            (huge, stiff, [1e5, 1e-90], "admissibility of the Gibbs covariance is undecidable"),
        ]
        for channel, ham, grid, message in cases:
            with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
                warnings.simplefilter("error")
                with pytest.raises(InadmissibleInputError) as looped:
                    reference_sweep(channel, ham, grid)
                with pytest.raises(InadmissibleInputError) as stacked:
                    gain_beta_sweep(channel, ham, beta_grid=grid)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InadmissibleInputError) as unraised:
                    gain_beta_sweep(channel, ham, beta_grid=grid)
            assert message in str(looped.value)
            assert str(stacked.value) == str(unraised.value) == str(looped.value)
        with pytest.raises(InadmissibleInputError, match="^channel output is not positive definite$"):
            gain_beta_sweep(negative, stiff, beta_grid=[1e4])  # the output alone is refused at a decidable beta

    def test_eigensolve_count_does_not_grow_with_the_grid(self, count_eigensolves):
        gen = np.random.default_rng(5)
        channel = random_regular_channel(gen, 2)
        ham = quadratic_hamiltonian(channel.space, random_spd(gen, 4))
        counts = []
        for points in (25, 50):
            count_eigensolves.clear()
            grid = default_beta_grid(points=points)
            report = gain_beta_sweep(channel, ham, beta_grid=grid)
            assert report.converged and len(report.beta_grid) == points  # no extension
            counts.append(len(count_eigensolves))
        assert counts[0] == counts[1]

    def test_sweep_converging_on_its_grid_solves_one_stacked_spectrum(self, count_eigensolves):
        # the Gibbs spectra and the output spectra, from one Cholesky factor
        # of the two stacks together, off which both admissibility checks and
        # their conditioning bounds are read; the Hamiltonian's normal modes
        # come from its build
        gen = np.random.default_rng(6)
        channel = random_regular_channel(gen, 3)
        ham = quadratic_hamiltonian(channel.space, random_spd(gen, 6))
        count_eigensolves.clear()
        report = gain_beta_sweep(channel, ham)
        assert report.converged and len(report.beta_grid) == len(default_beta_grid())
        assert count_eigensolves == ["cholesky", "eigvalsh"]

    def test_default_grid_is_built_once(self, monkeypatch):
        channel = preset_channel("amplifier", 2.0)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        given = gain_beta_sweep(channel, ham, beta_grid=default_beta_grid())
        monkeypatch.setattr(np, "geomspace", None)  # neither built nor revalidated again
        default = gain_beta_sweep(channel, ham)
        assert np.array_equal(default.beta_grid, given.beta_grid)
        assert np.array_equal(default.gains, given.gains)
        default.beta_grid[0] = 2.0  # the report owns its grid
        assert gain_beta_sweep(channel, ham).beta_grid[0] == 1.0

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

    def test_rejects_a_hamiltonian_on_other_modes(self):
        ham = quadratic_hamiltonian(canonical_form(2), np.eye(4))
        with pytest.raises(InadmissibleInputError, match="^channel and Hamiltonian mode counts differ$"):
            gain_beta_sweep(preset_channel("attenuator", 0.5), ham)

    @pytest.mark.parametrize("grid", [[], [1.0, 0.0], [0.5, -0.1], [[1.0, 0.5]]])
    def test_rejects_an_empty_or_nonpositive_grid(self, grid):
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        with pytest.raises(InadmissibleInputError, match="^beta grid must be positive$"):
            gain_beta_sweep(preset_channel("attenuator", 0.5), ham, beta_grid=grid)


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


class TestFrozenPhaseSpace:
    @staticmethod
    def public_numbers(modes, seed):
        """Every number a seeded phase-space case returns through the public API."""
        gen = np.random.default_rng([seed, modes])
        space = canonical_form(modes)
        alpha, _ = random_covariance(gen, modes)
        channel = random_regular_channel(gen, modes)
        ham = quadratic_hamiltonian(space, random_spd(gen, 2 * modes))
        numbers = list(williamson(alpha, space).nu)
        numbers += [entropy_of_covariance(alpha, space), entropy_matrix_form(alpha, space)]
        numbers += [gaussian_gain(channel, alpha), minimal_entropy_gain(channel)]
        for beta in 10.0 ** gen.uniform(-3.0, 1.0, size=3):
            state = gibbs_state(ham, beta)
            numbers += [state.c_beta, gaussian_entropy(state.base), mean_energy(ham, state.base)]
        report = gain_beta_sweep(channel, ham)
        numbers += [*report.beta_grid, *report.gains, float(report.converged)]
        other = random_regular_channel(gen, 1 + modes % 2)
        other_alpha, _ = random_covariance(gen, other.space.s)
        joint = np.zeros((2 * (modes + other.space.s),) * 2)
        joint[: 2 * modes, : 2 * modes], joint[2 * modes :, 2 * modes :] = alpha, other_alpha
        combined = tensor_channels(channel, other)
        numbers += [minimal_entropy_gain(combined), gaussian_gain(combined, joint)]
        return np.array(numbers, dtype=float)

    def test_public_numbers_are_frozen_bit_for_bit(self):
        # md5 taken before the per-call fast paths and kept constants existed,
        # frozen again when spectra came to be taken from Cholesky factors:
        # every converged flag and grid length stayed, and the numbers moved
        # by <= 6.4e-11 (2.0e-11 relative), the largest on gains near 3.2
        # nats at beta = 1e-7, where each route is 3e-11 off a 50-digit value
        digest = hashlib.md5()
        for modes in range(1, 7):
            for seed in range(4):
                digest.update(self.public_numbers(modes, seed).tobytes())
        assert digest.hexdigest() == "2ca987b25456a9db781249834cf67586"
