"""Tests for the classical counterexample with unbounded entropy gain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egain import classical
from egain.classical import (
    block_recursion_exhaustive,
    channel_row_entropy,
    doubly_stochastic_check,
    heavy_tail,
    normalizer,
    prefix_bijections_exhaustive,
    xor_family,
)
from egain.errors import InadmissibleInputError

# Frozen reference values, computed by an independent chunked summation with
# an integral bracket for the tail before the module was written.
PARTIAL_SUM_1E8 = 3.3334487217315925  # sum of raw weights to n = 1e8
TAIL_LO = 0.054286810178965327  # integral bracket on the tail beyond 1e8
TAIL_HI = 0.05428681023790647
NORMALIZER = 3.387735531940028  # partial sum + bracket midpoint
H_1E4 = 1.8466969516158678  # truncated entropy at N = 1e4
H_1E7 = 2.096608519460954  # truncated entropy at N = 1e7
H_AT_PREFIX = {
    1: 0.5562575821212936,
    2: 0.8097935192295846,
    5: 1.3221691211271678,
    10: 1.706327391207184,
    14: 1.8714239931628254,
}


class TestPermutation:
    def test_small_table_matches_xor(self):
        # n_j(i) = ((i-1) XOR (j-1)) + 1 on the 4x4 corner
        expected = np.array(
            [
                [1, 2, 3, 4],
                [2, 1, 4, 3],
                [3, 4, 1, 2],
                [4, 3, 2, 1],
            ]
        )
        index = np.arange(1, 5)
        assert np.array_equal(xor_family()(index[:, None], index), expected)

    def test_involution(self):
        # the XOR table is symmetric: row i at j equals row j at i
        index = np.arange(1, 20)
        table = xor_family()(index[:, None], index)
        assert np.array_equal(table, table.T)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 10), i=st.integers(1, 1024))
    def test_rows_are_prefix_bijections(self, k, i):
        n = 1 << k
        if i > n:
            i = ((i - 1) % n) + 1
        row = xor_family()(i, np.arange(1, n + 1))
        assert sorted(row.tolist()) == list(range(1, n + 1))


class TestNormalizer:
    def test_frozen_bracket(self):
        value, half_width = normalizer()
        assert value == pytest.approx(NORMALIZER, abs=1e-12)
        assert half_width < 5e-11
        assert TAIL_LO < (value - PARTIAL_SUM_1E8) < TAIL_HI

    @pytest.mark.parametrize("cutoff", [10**6, 10**7])
    def test_quadrature_matches_direct_sum(self, cutoff, monkeypatch):
        monkeypatch.setattr(classical, "_NORMALIZER_CUTOFF", cutoff)
        value, _ = normalizer.__wrapped__()
        direct = float(classical._raw_weight(np.arange(1, cutoff + 1, dtype=np.float64)).sum())
        midpoint = 0.5 * (1.0 / math.log(cutoff + 2.0) + 1.0 / math.log(cutoff))
        assert value == pytest.approx(direct + midpoint, abs=1e-14)

    def test_distribution_sums_to_one_in_the_limit(self):
        dist = heavy_tail(10_000_000)
        total = sum(dist.weight(np.arange(1, 1_000_001)).sum() for _ in range(1))
        # the first million terms already carry most of the mass
        assert 0.9 < total < 1.0


class TestTruncatedEntropy:
    def test_frozen_values(self):
        dist = heavy_tail(10_000_000)
        assert dist.truncated_entropy(10_000) == pytest.approx(H_1E4, abs=1e-12)
        assert dist.truncated_entropy(10_000_000) == pytest.approx(H_1E7, abs=1e-12)
        for k, expected in H_AT_PREFIX.items():
            assert dist.truncated_entropy(1 << k) == pytest.approx(expected, abs=1e-12)

    def test_strictly_increasing(self):
        dist = heavy_tail(1 << 16)
        values = [dist.truncated_entropy(1 << k) for k in range(1, 17)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        dist = heavy_tail(1000)
        with pytest.raises(InadmissibleInputError):
            dist.truncated_entropy(2000)


class TestChannelStructure:
    def test_row_entropy_is_input_independent_at_complete_prefixes(self):
        dist = heavy_tail(1 << 12)
        family = xor_family()
        n = 1 << 12
        reference = dist.truncated_entropy(n)
        for i in (1, 5, 100):
            value = channel_row_entropy(dist, family, i, n)
            assert value == pytest.approx(reference, abs=1e-12)

    def test_doubly_stochastic_small_prefixes(self):
        dist = heavy_tail(1 << 10)
        family = xor_family()
        assert all(doubly_stochastic_check(family, dist, k) for k in range(1, 11))

    def test_output_entropy_dominates_row_minimum(self, rng):
        # mixing never lowers the truncated output entropy below the
        # smallest row entropy at the same prefix
        k = 6
        n = 1 << k
        dist = heavy_tail(n)
        family = xor_family()
        weights = rng.dirichlet(np.ones(n))
        out = np.zeros(n)
        for i in range(1, n + 1):
            out += weights[i - 1] * dist.weight(family(i, np.arange(1, n + 1)))
        out_entropy = float(-(out * np.log(out)).sum())
        rows = [channel_row_entropy(dist, family, i, n) for i in range(1, n + 1)]
        assert out_entropy >= min(rows) - 1e-12


class TestDoublyStochasticEvaluation:
    @pytest.mark.parametrize("k, dtype", [(7, np.uint8), (8, np.uint16), (12, np.uint16)])
    def test_family_is_evaluated_in_the_smallest_dtype_holding_2_to_the_k(self, k, dtype):
        seen = set()

        def spy(i, j):
            seen.add((i.dtype, j.dtype))
            return xor_family()(i, j)

        assert doubly_stochastic_check(spy, heavy_tail(1 << k), k)
        assert seen == {(np.dtype(dtype), np.dtype(dtype))}

    @pytest.mark.parametrize("k, dtype", [(15, np.uint16), (16, np.uint32)])
    def test_wrong_origin_returns_after_one_call(self, k, dtype):
        seen = []

        def spy(i, j):
            seen.append((i.dtype, j.dtype))
            return i ^ j  # t(1, 1) = 0, not 1

        assert not doubly_stochastic_check(spy, heavy_tail(1 << k), k)
        assert seen == [(np.dtype(dtype), np.dtype(dtype))]

    @pytest.mark.parametrize("k", [7, 8, 12])
    def test_last_entry_of_the_prefix_is_checked(self, k):
        # the XOR table with t(2^k, 2^k) moved from 1 to 2, in the last stripe
        n = 1 << k

        def last_entry_moved(i, j):
            return xor_family()(i, j) + ((i == n) & (j == n))

        assert not doubly_stochastic_check(last_entry_moved, heavy_tail(n), k)


class TestExhaustive:
    def test_prefix_bijections_small(self):
        assert prefix_bijections_exhaustive(8)

    def test_block_recursion_small(self):
        assert block_recursion_exhaustive(8)

    @pytest.mark.parametrize("k_max, dtype", [(8, np.uint8), (9, np.uint16), (12, np.uint16)])
    def test_table_is_evaluated_in_stripes_of_the_smallest_dtype(self, k_max, dtype, monkeypatch):
        seen = []

        def spy(a, b):
            seen.append((a.dtype, b.dtype, a.shape[0]))
            return a ^ b

        monkeypatch.setattr(classical, "_xor_table", spy)
        assert prefix_bijections_exhaustive(k_max)
        assert {(a, b) for a, b, _ in seen} == {(np.dtype(dtype), np.dtype(dtype))}
        assert max(rows for _, _, rows in seen) == classical._STRIPE


def _swap_one_pair(a, b):
    """The 0-based XOR table with u(700, 600) and u(700, 601) swapped.

    Both entries lie in the bottom-right 2^9 quadrant of the 2^10 prefix; the
    swap keeps row 700 a bijection but repeats a value in columns 600 and 601.
    """
    u = a ^ b
    return np.where((a == 700) & ((b == 600) | (b == 601)), u ^ 1, u)


def _verdicts(k):
    return (
        doubly_stochastic_check(xor_family(), heavy_tail(1 << k), k),
        prefix_bijections_exhaustive(k),
        block_recursion_exhaustive(k),
    )


class TestChecksCanFail:
    def test_one_swapped_pair_fails_every_check(self, monkeypatch):
        monkeypatch.setattr(classical, "_xor_table", _swap_one_pair)
        column = xor_family()(np.arange(1, 1025), 601)
        assert np.unique(column).size == 1023
        # the 2^9 prefix does not contain the swap
        assert _verdicts(9) == (True, True, True)
        assert _verdicts(10) == (False, False, False)

    def test_cyclic_table_is_doubly_stochastic_but_not_of_xor_form(self):
        # False means "not of the XOR block form", not "not doubly stochastic"
        k = 4
        n = 1 << k

        def cyclic(i, j):
            return (i - 1 + j - 1) % n + 1

        table = cyclic(np.arange(1, n + 1)[:, None], np.arange(1, n + 1))
        prefix = np.arange(1, n + 1)
        assert all(np.array_equal(np.sort(line), prefix) for line in (*table, *table.T))
        assert not doubly_stochastic_check(cyclic, heavy_tail(n), k)

    def test_table_without_the_one_based_shift_fails(self):
        # (i-1) XOR (j-1) has every quadrant identity but takes values 0..n-1
        k = 4

        def unshifted(i, j):
            return (i - 1) ^ (j - 1)

        assert not doubly_stochastic_check(unshifted, heavy_tail(1 << k), k)
