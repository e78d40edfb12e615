"""Tests for the symplectic core: forms, certificates, normal forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_covariance, random_symplectic
from egain.errors import InadmissibleInputError
from egain.symplectic import (
    _cert,
    canonical_form,
    check_hermitian_psd,
    symplectic_eigenvalues,
    williamson,
)


class TestCanonicalForm:
    def test_block_structure(self):
        space = canonical_form(2)
        block = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = block
        expected[2:, 2:] = block
        assert np.array_equal(space.delta, expected)

    def test_algebraic_identities(self):
        for s in (1, 2, 3):
            delta = canonical_form(s).delta
            assert np.array_equal(delta.T, -delta)
            assert np.array_equal(delta @ delta, -np.eye(2 * s))
            assert np.linalg.det(delta) == pytest.approx(1.0)

    def test_immutable(self):
        space = canonical_form(1)
        with pytest.raises(ValueError):
            space.delta[0, 0] = 5.0

    def test_each_mode_count_shares_one_space(self):
        space = canonical_form(3)
        assert canonical_form(3.0) is space and canonical_form(np.int64(3)) is space
        assert canonical_form(2) is not space and canonical_form(2).s == 2

    def test_rejects_bad_mode_count(self):
        with pytest.raises(InadmissibleInputError):
            canonical_form(0)


class TestHermitianCert:
    def test_positive_definite(self):
        cert = check_hermitian_psd(np.diag([2.0, 1.0]))
        assert cert.verdict == "positive_definite"
        assert cert.is_positive_definite and cert.is_positive_semidefinite
        assert cert.min_eigenvalue == pytest.approx(1.0)

    def test_saturating_is_semidefinite_only(self):
        cert = check_hermitian_psd(np.diag([1.0, 0.0]))
        assert cert.verdict == "positive_semidefinite"
        assert not cert.is_positive_definite
        assert cert.is_positive_semidefinite

    def test_indefinite_quarter_identity(self):
        # (1/4)I + (i/2)Delta scales to I + 2i Delta, whose eigenvalues are
        # 1 +- 2, so min is exactly -1: a covariance scaled below the vacuum
        # fails the admissibility test.
        space = canonical_form(1)
        cert = check_hermitian_psd(0.25 * np.eye(2) + 0.5j * space.delta)
        assert cert.verdict == "indefinite"
        assert cert.min_eigenvalue == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("exponent", [-12, -3, 0, 3, 12])
    def test_certificate_does_not_change_with_the_scale_of_a_row(self, exponent):
        space = canonical_form(2)
        M = np.diag([0.4, 0.4, 2.0, 2.0]) + 0.5j * space.delta
        D = np.diag([10.0**exponent, 1.0, 10.0 ** (-exponent), 3.0])
        plain, scaled = check_hermitian_psd(M), check_hermitian_psd(D @ M @ D)
        assert scaled.verdict == plain.verdict == "indefinite"
        assert scaled.min_eigenvalue == pytest.approx(plain.min_eigenvalue, rel=1e-12)

    def test_zero_diagonal_needs_a_zero_row(self):
        assert check_hermitian_psd(np.diag([1.0, 0.0])).is_positive_semidefinite
        coupled = np.array([[1.0, 1e-3], [1e-3, 0.0]])
        assert check_hermitian_psd(coupled).verdict == "indefinite"

    def test_rejects_non_hermitian(self):
        with pytest.raises(InadmissibleInputError):
            check_hermitian_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("least", [1.0, 1e-9, 0.0, -1e-9, -1.0, math.nan])
    def test_scalar_certificate_equals_the_stacked_one(self, least):
        scalar = _cert(np.float64(least), np.float64(1e-9))
        stacked = _cert(np.array([least]), np.array([1e-9]))
        assert type(scalar.min_eigenvalue) is float and type(scalar.tolerance) is float
        assert type(scalar.verdict) is str
        assert scalar.verdict == stacked.verdict[0]
        assert np.array_equal(scalar.min_eigenvalue, stacked.min_eigenvalue[0], equal_nan=True)
        assert scalar.tolerance == stacked.tolerance[0]


class TestSymplecticEigenvalues:
    def test_thermal_blocks(self):
        space = canonical_form(2)
        alpha = np.diag([2.0, 2.0, 0.7, 0.7])
        nu = symplectic_eigenvalues(alpha, space)
        assert nu == pytest.approx([2.0, 0.7])

    def test_descending_order(self, rng):
        alpha, nus = random_covariance(rng, 3)
        computed = symplectic_eigenvalues(alpha, canonical_form(3))
        assert np.all(np.diff(computed) <= 1e-12)
        assert computed == pytest.approx(nus, rel=1e-10)

    def test_rejects_non_positive(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError, match="not positive definite"):
            symplectic_eigenvalues(np.diag([1.0, -1.0]), space)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a nan passes every comparison and np.linalg.cholesky factors it without raising
        space = canonical_form(1)
        for alpha in (np.array([[bad, 0.0], [0.0, 1.0]]), np.array([[1.0, bad], [bad, 1.0]])):
            for solve in (symplectic_eigenvalues, williamson):
                with pytest.raises(InadmissibleInputError, match="not a finite number"):
                    solve(alpha, space)

    def test_stack_names_its_first_matrix_without_a_factor(self):
        # np.linalg.cholesky raises once for a whole stack, naming no matrix
        space = canonical_form(1)
        good, bad = np.eye(2), np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.stack([good, bad]))
        for stack, first in [([bad, good], 0), ([good, bad, bad], 1), ([good, good, good, bad], 3)]:
            with pytest.raises(InadmissibleInputError, match="not positive definite") as refused:
                symplectic_eigenvalues(np.stack(stack), space)
            assert refused.value.slice_index == first

    def test_solves_no_eigh(self, count_eigensolves):
        symplectic_eigenvalues(np.diag([2.0, 2.0, 0.7, 0.7]), canonical_form(2))
        assert count_eigensolves == ["cholesky", "eigvalsh"]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3))
    def test_invariant_under_symplectic_congruence(self, seed, modes):
        gen = np.random.default_rng(seed)
        space = canonical_form(modes)
        alpha, _ = random_covariance(gen, modes)
        S = random_symplectic(space, gen, scale=0.3)
        before = symplectic_eigenvalues(alpha, space)
        after = symplectic_eigenvalues(S @ alpha @ S.T, space)
        assert after == pytest.approx(before, rel=1e-8)


class TestWilliamson:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3))
    def test_roundtrip(self, seed, modes):
        gen = np.random.default_rng(seed)
        space = canonical_form(modes)
        alpha, nus = random_covariance(gen, modes)
        result = williamson(alpha, space)
        D = result.T.T @ alpha @ result.T
        assert D == pytest.approx(np.diag(np.repeat(result.nu, 2)), abs=1e-9)
        assert result.T.T @ space.delta @ result.T == pytest.approx(space.delta, abs=1e-9)
        assert result.nu == pytest.approx(nus, rel=1e-9)

    def test_identity_input(self):
        space = canonical_form(1)
        result = williamson(np.eye(2), space)
        assert result.nu == pytest.approx([1.0])

    def test_rejects_indefinite(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError):
            williamson(np.diag([1.0, -0.5]), space)

    def test_rejects_asymmetric(self):
        space = canonical_form(1)
        with pytest.raises(InadmissibleInputError):
            williamson(np.array([[1.0, 0.3], [0.0, 1.0]]), space)


class TestRandomSymplectic:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3))
    def test_preserves_form(self, seed, modes):
        gen = np.random.default_rng(seed)
        space = canonical_form(modes)
        S = random_symplectic(space, gen)
        assert S.T @ space.delta @ S == pytest.approx(space.delta, abs=1e-10)
