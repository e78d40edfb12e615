"""Tests for the classical counterexample with unbounded entropy gain."""

import hashlib
import math
import os
import pathlib
import subprocess
import sys

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

    def test_tail_rule_is_numpys_gauss_legendre_rule_to_the_bit(self, monkeypatch):
        # _partial_sum mirrors the stored positive half into all 64 nodes and weights, which
        # must be leggauss(64)'s own bits; a spy on the module's numpy records the two mirrors
        mirrored = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def concatenate(self, arrays):
                mirrored.append(np.concatenate(arrays))
                return mirrored[-1]

        monkeypatch.setattr(classical, "np", Numpy())
        classical._partial_sum(10**6)
        nodes, weights = mirrored
        expected_nodes, expected_weights = np.polynomial.legendre.leggauss(64)
        assert nodes.tobytes() == expected_nodes.tobytes()
        assert weights.tobytes() == expected_weights.tobytes()

    def test_building_the_heavy_tail_imports_no_numpy_polynomial(self):
        # the stored rule leaves numpy.polynomial, which numpy does not import itself, unloaded;
        # Z keeps the bits it had when leggauss solved for the nodes
        script = (
            "import sys\n"
            "import egain\n"
            "print(egain.heavy_tail().normalizer, 'numpy.polynomial' in sys.modules)\n"
        )
        src = str(pathlib.Path(classical.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == "3.3877355319400357 False\n"

    def test_distribution_sums_to_one_in_the_limit(self):
        dist = heavy_tail()
        total = sum(dist.weight(np.arange(1, 1_000_001)).sum() for _ in range(1))
        # the first million terms already carry most of the mass
        assert 0.9 < total < 1.0


class TestTruncatedEntropy:
    def test_frozen_values(self):
        dist = heavy_tail()
        assert dist.truncated_entropy(10_000) == pytest.approx(H_1E4, abs=1e-12)
        assert dist.truncated_entropy(10_000_000) == pytest.approx(H_1E7, abs=1e-12)
        for k, expected in H_AT_PREFIX.items():
            assert dist.truncated_entropy(1 << k) == pytest.approx(expected, abs=1e-12)

    def test_strictly_increasing(self):
        dist = heavy_tail()
        values = [dist.truncated_entropy(1 << k) for k in range(1, 17)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(InadmissibleInputError, match=r"^N must lie in \[1, 10000000\], got 10000001$"):
            heavy_tail().truncated_entropy(10**7 + 1)


class TestFrozenBits:
    def test_weights_and_entropies_are_frozen_bit_for_bit(self):
        # md5 of q_n for n <= 2^16, of row entropies at i in {1, 2, 2^k} with
        # N = 2^k for k <= 12, and of H_{2^k} for k <= 16, as computed when
        # weight() tested its range with two compare passes and every
        # q log q term had its own temporaries
        dist = heavy_tail()
        family = xor_family()
        digest = hashlib.md5()
        digest.update(dist.weight(np.arange(1, 2**16 + 1)).tobytes())
        rows = [channel_row_entropy(dist, family, i, 1 << k) for k in range(1, 13) for i in (1, 2, 1 << k)]
        digest.update(np.array(rows).tobytes())
        digest.update(np.array([dist.truncated_entropy(1 << k) for k in range(1, 17)]).tobytes())
        assert digest.hexdigest() == "61f7386b6c01e7bc498bb7bc9b5566a9"


class TestRefusals:
    """Non-whole and non-finite sizes and indices are refused by name; whole floats are read as ints."""

    @pytest.mark.parametrize("i, N, named", [(1, 8.5, "N.*8.5"), (1.5, 8, "i.*1.5"), (0, 8, "i.*0")])
    def test_row_entropy_refuses_a_bad_row_or_prefix(self, i, N, named):
        with pytest.raises(InadmissibleInputError, match=f"{named}$"):
            channel_row_entropy(heavy_tail(), xor_family(), i, N)

    def test_row_entropy_refuses_a_prefix_past_the_support_before_building_it(self):
        # refused before any of the 2^24 indices is built
        def perms(i, j):
            raise AssertionError("the row was built")

        with pytest.raises(InadmissibleInputError, match=r"^N must lie in \[1, 10000000\], got 16777216$"):
            channel_row_entropy(heavy_tail(), perms, 1, 2**24)

    def test_prefix_past_the_cap_is_refused_by_its_numbers_before_any_table_call(self):
        def perms(i, j):
            raise AssertionError("the table was called")

        with pytest.raises(InadmissibleInputError, match=r"^prefix 2\^24 = 16777216 exceeds n_max = 10000000$"):
            doubly_stochastic_check(perms, heavy_tail(), 24)

    def test_row_entropy_reads_whole_floats(self):
        dist, family = heavy_tail(), xor_family()
        assert channel_row_entropy(dist, family, 3.0, 16.0) == channel_row_entropy(dist, family, 3, 16)

    @pytest.mark.parametrize("N, named", [(2.5, "2.5"), (math.nan, "nan"), ("4", "'4'"), (10**7 + 1, "10000001")])
    def test_truncated_entropy_refuses_a_bad_prefix(self, N, named):
        with pytest.raises(InadmissibleInputError, match=f"got {named}$"):
            heavy_tail().truncated_entropy(N)

    def test_truncated_entropy_reads_a_whole_float(self):
        dist = heavy_tail()
        assert dist.truncated_entropy(4.0) == dist.truncated_entropy(4)

    @pytest.mark.parametrize(
        "n, named",
        [
            (math.nan, "nan"), (1.5, "1.5"), (math.inf, "inf"), (0, "0"), ([2, 3.5, 7], "3.5"), ([1, 1.5], "1.5"),
            (np.array([4, 10**7 + 1]), "10000001"),
            ([[1, 2], [2.5, 0]], "2.5"), ([[3, 0], [-1, 2]], "0"),  # the first in C order
        ],
    )
    def test_weight_refuses_a_bad_index(self, n, named):
        with pytest.raises(InadmissibleInputError, match=rf"^indices must be whole numbers in \[1, 10000000\], got {named}$"):
            heavy_tail().weight(n)

    def test_weight_reads_whole_floats_and_empty_arrays(self):
        dist = heavy_tail()
        assert dist.weight(3.0) == dist.weight(3)
        assert np.array_equal(dist.weight([1.0, 64.0]), dist.weight(np.array([1, 64])))
        assert dist.weight(np.array([], dtype=np.int64)).shape == (0,)

    def test_integer_indices_skip_the_integrality_test(self, monkeypatch):
        dist = heavy_tail()
        expected = dist.weight(np.arange(1, 257))

        def floor(*args, **kwargs):
            raise AssertionError("integer indices are whole by type")

        monkeypatch.setattr(np, "floor", floor)
        assert np.array_equal(dist.weight(np.arange(1, 257, dtype=np.uint16)), expected)
        assert channel_row_entropy(dist, xor_family(), 5, 256) == pytest.approx(dist.truncated_entropy(256), abs=1e-12)


class TestChannelStructure:
    def test_row_entropy_is_input_independent_at_complete_prefixes(self):
        dist = heavy_tail()
        family = xor_family()
        n = 1 << 12
        reference = dist.truncated_entropy(n)
        for i in (1, 5, 100):
            value = channel_row_entropy(dist, family, i, n)
            assert value == pytest.approx(reference, abs=1e-12)

    def test_doubly_stochastic_small_prefixes(self):
        dist = heavy_tail()
        family = xor_family()
        assert all(doubly_stochastic_check(family, dist, k) for k in range(1, 11))

    def test_output_entropy_dominates_row_minimum(self, rng):
        # mixing never lowers the truncated output entropy below the
        # smallest row entropy at the same prefix
        k = 6
        n = 1 << k
        dist = heavy_tail()
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

        assert doubly_stochastic_check(spy, heavy_tail(), k)
        assert seen == {(np.dtype(dtype), np.dtype(dtype))}

    @pytest.mark.parametrize("k, dtype", [(15, np.uint16), (16, np.uint32)])
    def test_wrong_origin_returns_after_one_call(self, k, dtype):
        seen = []

        def spy(i, j):
            seen.append((i.dtype, j.dtype))
            return i ^ j  # t(1, 1) = 0, not 1

        assert not doubly_stochastic_check(spy, heavy_tail(), k)
        assert seen == [(np.dtype(dtype), np.dtype(dtype))]

    @pytest.mark.parametrize("k", [0, 1, 3, 7, 8, 12])
    def test_passing_table_is_evaluated_once_per_cell_in_bounded_stripes(self, k):
        seen = []

        def spy(i, j):
            seen.append((i.dtype, j.dtype, i.shape[0] * j.shape[-1]))
            return xor_family()(i, j)

        assert doubly_stochastic_check(spy, heavy_tail(), k)
        dtype = np.dtype(np.min_scalar_type(1 << k))
        assert {(a, b) for a, b, _ in seen} == {(dtype, dtype)}
        assert sum(cells for _, _, cells in seen) == 4**k
        assert max(cells for _, _, cells in seen) <= classical._STRIPE_CELLS

    @pytest.mark.parametrize(
        "spoil",
        [lambda t: t.astype(np.int64), lambda t: t[:, :-1], lambda t: t.tolist(), lambda t: 1],
        ids=["int64", "one-column-short", "list", "scalar"],
    )
    @pytest.mark.parametrize("k", [0, 5, 12])
    def test_table_of_the_wrong_shape_or_dtype_fails(self, spoil, k, monkeypatch):
        def family(i, j):
            return spoil(((i - 1) ^ (j - 1)) + 1)

        assert classical.first_failing_prefix(family, heavy_tail(), k) == 0
        assert not doubly_stochastic_check(family, heavy_tail(), k)
        monkeypatch.setattr(classical, "_xor_table", lambda a, b: spoil(a ^ b))
        assert not prefix_bijections_exhaustive(k)

    @pytest.mark.parametrize("k", [7, 8, 12])
    def test_last_entry_of_the_prefix_is_checked(self, k):
        # the XOR table with t(2^k, 2^k) moved from 1 to 2, in the last stripe
        n = 1 << k

        def last_entry_moved(i, j):
            return xor_family()(i, j) + ((i == n) & (j == n))

        assert not doubly_stochastic_check(last_entry_moved, heavy_tail(), k)


class TestPrefixExponent:
    CERTIFICATES = {
        "doubly_stochastic_check": lambda k: doubly_stochastic_check(
            xor_family(), heavy_tail(), k
        ),
        "prefix_bijections_exhaustive": prefix_bijections_exhaustive,
        "block_recursion_exhaustive": block_recursion_exhaustive,
    }

    @pytest.mark.parametrize("name", sorted(CERTIFICATES))
    @pytest.mark.parametrize("k, named", [(-1, "-1"), (2.5, "2.5"), ("3", "'3'")])
    def test_bad_exponent_is_refused_by_name(self, name, k, named):
        with pytest.raises(InadmissibleInputError, match=f"got {named}$"):
            self.CERTIFICATES[name](k)

    @pytest.mark.parametrize("name", sorted(CERTIFICATES))
    def test_integer_types_are_exponents(self, name):
        assert self.CERTIFICATES[name](np.int64(3))

    @pytest.mark.parametrize("name", sorted(CERTIFICATES))
    def test_whole_floats_are_exponents(self, name):
        assert self.CERTIFICATES[name](3.0)


class TestExhaustive:
    def test_prefix_bijections_small(self):
        assert prefix_bijections_exhaustive(8)

    def test_block_recursion_small(self):
        assert block_recursion_exhaustive(8)

    @pytest.mark.parametrize("k_max, dtype", [(8, np.uint8), (9, np.uint16), (12, np.uint16)])
    def test_table_is_evaluated_once_per_cell_in_the_smallest_dtype(self, k_max, dtype, monkeypatch):
        seen = []

        def spy(a, b):
            seen.append((a.dtype, b.dtype, a.shape[0] * b.shape[-1]))
            return a ^ b

        monkeypatch.setattr(classical, "_xor_table", spy)
        assert prefix_bijections_exhaustive(k_max)
        assert {(a, b) for a, b, _ in seen} == {(np.dtype(dtype), np.dtype(dtype))}
        assert sum(cells for _, _, cells in seen) == 4**k_max
        assert max(cells for _, _, cells in seen) <= classical._STRIPE_CELLS


def _swap_one_pair(a, b):
    """The 0-based XOR table with u(700, 600) and u(700, 601) swapped.

    Both entries lie in the bottom-right 2^9 quadrant of the 2^10 prefix; the
    swap keeps row 700 a bijection but repeats a value in columns 600 and 601.
    """
    u = a ^ b
    return np.where((a == 700) & ((b == 600) | (b == 601)), u ^ 1, u)


def _verdicts(k):
    return (
        doubly_stochastic_check(xor_family(), heavy_tail(), k),
        prefix_bijections_exhaustive(k),
        block_recursion_exhaustive(k),
    )


def _one_entry_moved(a0, b0, flip):
    """0-based and 1-based XOR tables with u(a0, b0) XORed with ``flip`` > 0."""

    def table(a, b):
        return (a ^ b) ^ (flip * ((a == a0) & (b == b0))).astype(a.dtype)

    def family(i, j):
        return table(i - 1, j - 1) + 1

    return table, family


class TestChecksCanFail:
    # (40, 50) lies in the bottom-right quadrant of the scale h = 32, and
    # (63, 63) is the last entry of the 2^6 prefix
    @pytest.mark.parametrize("k", [6, 12])
    @pytest.mark.parametrize("a, b", [(40, 50), (63, 63)])
    def test_one_entry_in_the_leading_block_fails(self, k, a, b, monkeypatch):
        table, family = _one_entry_moved(a, b, 1)
        assert not doubly_stochastic_check(family, heavy_tail(), k)
        monkeypatch.setattr(classical, "_xor_table", table)
        assert not prefix_bijections_exhaustive(k)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(1, 9))
    def test_any_one_entry_moved_fails(self, data, k):
        n = 1 << k
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table, family = _one_entry_moved(a, b, data.draw(st.integers(1, n - 1)))
        assert classical.first_failing_prefix(family, heavy_tail(), k) == max(a, b).bit_length()
        assert not doubly_stochastic_check(family, heavy_tail(), k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classical, "_xor_table", table)
            assert not prefix_bijections_exhaustive(k)

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
        assert not doubly_stochastic_check(cyclic, heavy_tail(), k)

    def test_table_without_the_one_based_shift_fails(self):
        # (i-1) XOR (j-1) has every quadrant identity but takes values 0..n-1
        k = 4

        def unshifted(i, j):
            return (i - 1) ^ (j - 1)

        assert not doubly_stochastic_check(unshifted, heavy_tail(), k)
