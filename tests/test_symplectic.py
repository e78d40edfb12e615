"""Tests for the symplectic core: forms, certificates, normal forms."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_covariance, random_symplectic, squeezed_covariance
from egain.errors import InadmissibleInputError
from egain.symplectic import (
    HermitianCert,
    _sum_of_squares,
    canonical_form,
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

    @pytest.mark.parametrize("s", [0, 1.5, math.nan, math.inf, "2"])
    def test_rejects_bad_mode_count(self, s):
        message = re.escape(f"mode count s must be an integer >= 1, got {s!r}")
        with pytest.raises(InadmissibleInputError, match=f"^{message}$"):
            canonical_form(s)


class TestHermitianCert:
    @pytest.mark.parametrize("least", [1.0, 1e-9, 0.0, -1e-9, -1.0, math.nan])
    def test_scalar_certificate_equals_the_stacked_one(self, least):
        leasts = [least, 1.0, -1.0]
        stacked = HermitianCert(np.array(leasts), np.full(3, 1e-9))
        for row, value in enumerate(leasts):
            scalar = HermitianCert(value, 1e-9)
            assert type(scalar.verdict) is str
            assert scalar.verdict == stacked.verdict[row]
            for answer in ("is_positive_definite", "is_positive_semidefinite"):
                answers = getattr(stacked, answer)
                assert answers.dtype == bool and answers.shape == (3,)
                assert type(getattr(scalar, answer)) is bool
                assert answers[row] == getattr(scalar, answer)
        if math.isnan(least):
            assert stacked.verdict[0] == "indefinite"


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

    def test_stack_with_a_matrix_without_a_factor_is_refused(self):
        # np.linalg.cholesky raises once for a whole stack, naming no matrix, and so does the refusal
        space = canonical_form(1)
        good, bad = np.eye(2), np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.stack([good, bad]))
        for stack in ([bad, good], [good, bad, bad], [good, good, good, bad]):
            with pytest.raises(InadmissibleInputError) as refused:
                symplectic_eigenvalues(np.stack(stack), space)
            assert str(refused.value) == "covariance matrix is not positive definite"

    @pytest.mark.parametrize(
        "alpha", [[[1e308, 9e307], [9e307, 1e308]], 1e200 * np.eye(2)], ids=["near-max", "1e200"]
    )
    def test_finite_entries_whose_squares_overflow_are_refused_by_name(self, alpha):
        # refused before any arithmetic warns, not as a spectrum that did not split or as [1e200]
        message = "^covariance matrix has entries whose squares sum past the float range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InadmissibleInputError, match=message) as alone:
                symplectic_eigenvalues(alpha, canonical_form(1))
            with pytest.raises(InadmissibleInputError) as refused:
                symplectic_eigenvalues(np.stack([np.eye(2), alpha]), canonical_form(1))
        assert str(refused.value) == str(alone.value)

    def test_sum_of_squares_matches_the_elementwise_sum(self):
        # BLAS and einsum add in their own order: within n^2 rounding steps of each positive sum
        stack = np.random.default_rng(7).normal(size=(20, 12, 12))
        reference = np.add.reduce(stack * stack, axis=(-2, -1))
        bound = 12 * 12 * np.finfo(float).eps * reference
        assert (np.abs(_sum_of_squares(stack) - reference) <= bound).all()
        assert all(abs(_sum_of_squares(a) - r) <= b for a, r, b in zip(stack, reference, bound))

    def test_asymmetry_whose_squares_overflow_is_refused_without_a_warning(self):
        # the squares of alpha sum to 1.62e308, a float; those of alpha - alpha^T to 6.48e308, past the range
        alpha = np.array([[0.0, 9e153], [-9e153, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InadmissibleInputError, match=r"^covariance matrix must be symmetric \(defect inf\)$"):
                symplectic_eigenvalues(alpha, canonical_form(1))

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

    def test_refuses_a_congruence_past_its_symplectic_defect_bound(self):
        # at tol = 1e-12 the bound is 100 max(tol, 1e-12 n) = 2e-10, which a squeezing of e^17 exceeds
        alpha = squeezed_covariance(1.5, 8.5, 1.0)
        with pytest.raises(InadmissibleInputError, match=r"^symplectic defect \S+ exceeds tolerance$"):
            williamson(alpha, canonical_form(1), tol=1e-12)
        williamson(alpha, canonical_form(1))  # the default tolerance's bound, 1e-7, holds it


class TestRandomSymplectic:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3))
    def test_preserves_form(self, seed, modes):
        gen = np.random.default_rng(seed)
        space = canonical_form(modes)
        S = random_symplectic(space, gen)
        assert S.T @ space.delta @ S == pytest.approx(space.delta, abs=1e-10)
