"""A classical channel whose entropy gain is unbounded below no closed form.

The channel maps an input letter i to output j with probability
p_ij = q_{n_j(i)}, where each row (n_j(i))_j is a permutation of the
positive integers and q is a fixed heavy-tailed distribution. The
permutation table used here is the XOR table

    n_j(i) = ((i - 1) XOR (j - 1)) + 1,

which satisfies n_1(i) = i, n_j(1) = j, restricts to a bijection of every
power-of-two prefix {1..2^k} in each row and column, and realizes the
hierarchical block structure A_k = [[A_{k-1}, B_{k-1}], [B_{k-1}, A_{k-1}]].
Consequently the 2^k x 2^k truncations are doubly stochastic up to
renormalization, every row carries the same truncated entropy

    H_N = -sum_{n<=N} q_n log q_n  (N = 2^k),

and H_N grows without bound (doubly logarithmically in N) when q has an
infinite entropy tail. The tail used here is q_n proportional to
1/(n log^2(n+1)): summable, but with divergent entropy series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleInputError

__all__ = [
    "PermutationFamily",
    "HeavyTailDistribution",
    "permutation",
    "xor_family",
    "heavy_tail",
    "normalizer",
    "channel_row_entropy",
    "doubly_stochastic_check",
    "prefix_bijections_exhaustive",
    "block_recursion_exhaustive",
]

_CHUNK = 1 << 22
_NORMALIZER_CUTOFF = 10**8
_HEAD_CUTOFF = 10**5
_TAIL_PANELS = 8
_TAIL_NODES = 64


def permutation(i: int, j: int) -> int:
    """The XOR permutation table n_j(i) = ((i-1) XOR (j-1)) + 1, 1-based."""
    if i < 1 or j < 1:
        raise InadmissibleInputError("indices are 1-based and must be >= 1")
    return ((int(i) - 1) ^ (int(j) - 1)) + 1


def _xor_vectorized(i, j):
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return ((i - 1) ^ (j - 1)) + 1


@dataclass(frozen=True, eq=False)
class PermutationFamily:
    """Family of row permutations (i, j) -> n_j(i) of the positive integers.

    ``vectorized`` evaluates the table on broadcast arrays of 1-based indices.
    """

    vectorized: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def row(self, i: int, n: int) -> np.ndarray:
        """First n entries (j = 1..n) of row i as an int64 array."""
        return self.vectorized(i, np.arange(1, n + 1, dtype=np.int64))

    def column(self, j: int, n: int) -> np.ndarray:
        """First n entries (i = 1..n) of column j as an int64 array."""
        return self.vectorized(np.arange(1, n + 1, dtype=np.int64), j)


def xor_family() -> PermutationFamily:
    """The canonical XOR permutation family."""
    return PermutationFamily(vectorized=_xor_vectorized)


def _raw_weight(n: np.ndarray) -> np.ndarray:
    return 1.0 / (n * np.log(n + 1.0) ** 2)


def _raw_weight_slope(x: float) -> float:
    """Derivative a'(x) of a(x) = 1/(x log^2(x+1))."""
    L = math.log1p(x)
    return -1.0 / (x * x * L * L) - 2.0 / (x * (x + 1.0) * L**3)


def _partial_sum(N: int) -> float:
    """sum_{n<=N} a_n: direct below M, quadrature plus Euler-Maclaurin from M to N."""
    M = min(_HEAD_CUTOFF, N)
    head = float(_raw_weight(np.arange(1, M, dtype=np.float64)).sum())
    # int_M^N a(x) dx = int 1/log1p(e^t)^2 dt over t = log x in [log M, log N]
    nodes, weights = np.polynomial.legendre.leggauss(_TAIL_NODES)
    edges = np.linspace(math.log(M), math.log(N), _TAIL_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = 0.5 * (edges[:-1, None] + edges[1:, None]) + half * nodes
    integral = float((half * weights / np.log1p(np.exp(t)) ** 2).sum())
    a_M, a_N = _raw_weight(np.array([M, N], dtype=np.float64))
    ends = 0.5 * (a_M + a_N) + (_raw_weight_slope(N) - _raw_weight_slope(M)) / 12.0
    return head + integral + float(ends)


@functools.lru_cache(maxsize=1)
def normalizer() -> tuple[float, float]:
    """Normalizer of q_n = a_n / Z with a_n = 1/(n log^2(n+1)), and its uncertainty.

    Z is the partial sum of a_n up to N = 1e8 plus the midpoint of the
    bracketing integral tails

        1/log(N+2) <= sum_{n>N} a_n <= 1/log(N),

    so the result is reproducible without a hard-coded constant. The second
    return value is the half width of the bracket.

    The partial sum comes in three parts: the terms n < M = 1e5 summed
    directly; the integral of a(x) from M to N by 64-node Gauss-Legendre on 8
    equal panels in t = log x, where the integrand is 1/log1p(e^t)^2; and the
    Euler-Maclaurin end terms (a(M) + a(N))/2 + (a'(N) - a'(M))/12. The first
    omitted term, (a'''(M) - a'''(N))/720, is below 1e-20 and the quadrature
    is exact to rounding, so the partial sum matches the term-by-term sum of
    all 1e8 terms to float64 rounding (a few 1e-15).
    """
    N = _NORMALIZER_CUTOFF
    tail_lo = 1.0 / math.log(N + 2.0)
    tail_hi = 1.0 / math.log(N)
    return _partial_sum(N) + 0.5 * (tail_lo + tail_hi), 0.5 * (tail_hi - tail_lo)


@dataclass(frozen=True, eq=False)
class HeavyTailDistribution:
    """Normalized heavy-tail weights q_n = 1/(Z n log^2(n+1)), evaluated lazily."""

    n_max: int
    normalizer: float
    normalizer_uncertainty: float

    def weight(self, n) -> np.ndarray:
        """q_n for 1 <= n <= n_max (vectorized)."""
        n = np.asarray(n, dtype=np.float64)
        if np.any(n < 1) or np.any(n > self.n_max):
            raise InadmissibleInputError(f"indices must lie in [1, {self.n_max}]")
        return _raw_weight(n) / self.normalizer

    def truncated_entropy(self, N: int) -> float:
        """Partial entropy sum H_N = -sum_{n<=N} q_n log q_n, in nats.

        Every term is positive (q_n < 1), so H_N is strictly increasing in N;
        it diverges like log log N because q_n log(1/q_n) ~ 1/(n log n).
        """
        if N < 1 or N > self.n_max:
            raise InadmissibleInputError(f"N must lie in [1, {self.n_max}]")
        total = 0.0
        for lo in range(1, N + 1, _CHUNK):
            hi = min(N, lo + _CHUNK - 1)
            q = self.weight(np.arange(lo, hi + 1, dtype=np.float64))
            total += float(-(q * np.log(q)).sum())
        return total


def heavy_tail(n_max: int = 10**7) -> HeavyTailDistribution:
    """Build the heavy-tail distribution supporting queries up to n_max."""
    if n_max < 1:
        raise InadmissibleInputError("n_max must be >= 1")
    if n_max > _NORMALIZER_CUTOFF:
        raise InadmissibleInputError(
            f"n_max beyond the normalizer cutoff {_NORMALIZER_CUTOFF} is unsupported"
        )
    Z, err = normalizer()
    return HeavyTailDistribution(n_max=int(n_max), normalizer=Z, normalizer_uncertainty=err)


def channel_row_entropy(
    dist: HeavyTailDistribution, perms: PermutationFamily, i: int, N: int
) -> float:
    """Truncated entropy of row i of the channel: -sum_{j<=N} p_ij log p_ij.

    At complete prefixes N = 2^k with i <= N the row indices are a
    permutation of {1..N}, so the value is independent of i.
    """
    if i < 1 or N < 1:
        raise InadmissibleInputError("need i >= 1 and N >= 1")
    idx = perms.row(i, N)
    q = dist.weight(idx)
    return float(-(q * np.log(q)).sum())


def _is_prefix_bijection(values: np.ndarray, n: int) -> bool:
    """True iff the n int values are exactly {1..n}."""
    if values.min() < 1 or values.max() > n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[values - 1] = True
    return bool(seen.all())


def doubly_stochastic_check(
    perms: PermutationFamily, dist: HeavyTailDistribution, k: int
) -> bool:
    """Check the 2^k x 2^k truncation is doubly stochastic after renormalization.

    Equivalent statement checked: every row and every column of the index
    table restricted to the prefix {1..2^k} is a bijection of the prefix, so
    each carries exactly the weight multiset {q_1, ..., q_{2^k}} (q is
    strictly decreasing, hence injective).
    """
    if k < 0:
        raise InadmissibleInputError("k must be nonnegative")
    n = 1 << k
    if n > dist.n_max:
        raise InadmissibleInputError("prefix exceeds the distribution support")
    for idx in range(1, n + 1):
        if not _is_prefix_bijection(perms.row(idx, n), n):
            return False
        if not _is_prefix_bijection(perms.column(idx, n), n):
            return False
    return True


def prefix_bijections_exhaustive(k_max: int = 16) -> bool:
    """Exhaustively verify all rows and columns of the XOR table to k_max.

    For every constant c in {0..2^k_max - 1} the sequence (c XOR t) over
    t < 2^k_max is checked to be injective (scatter with an epoch marker)
    and to map each power-of-two prefix into itself; full-length injectivity
    restricts to injectivity on every prefix, so together these make each
    applicable prefix a bijection. Row i of the XOR table is (i-1) XOR (j-1)
    over j and column j is (j-1) XOR (i-1) over i, so one pass over
    constants covers rows and columns alike.
    """
    n = 1 << k_max
    t = np.arange(n, dtype=np.uint32)
    seen = np.zeros(n, dtype=np.uint32)
    prefix_sizes = [1 << m for m in range(1, k_max + 1)]
    for c in range(n):
        v = np.uint32(c) ^ t
        epoch = np.uint32(c + 1)
        seen[v] = epoch
        if not np.all(seen == epoch):
            return False
        for m_size in prefix_sizes:
            # constant c corresponds to row/column c+1, which belongs to the
            # 2^m prefix table only when c < 2^m
            if c < m_size and int(v[:m_size].max()) >= m_size:
                return False
    return True


def block_recursion_exhaustive(k_max: int = 16, stripe: int = 256) -> bool:
    """Exhaustively verify the quadrant identity of the XOR table to k_max.

    For each k <= k_max and h = 2^(k-1), the 0-based table t(a, b) = a XOR b
    must satisfy t(a+h, b+h) = t(a, b) and t(a+h, b) = t(a, b+h) for all
    a, b < h: the table has the form [[A, B], [B, A]] at every scale.
    """
    for k in range(1, k_max + 1):
        h = 1 << (k - 1)
        cols = np.arange(h, dtype=np.uint32)
        for lo in range(0, h, stripe):
            a = np.arange(lo, min(lo + stripe, h), dtype=np.uint32)[:, None]
            tl = a ^ cols[None, :]
            br = (a + h) ^ (cols[None, :] + h)
            if not np.array_equal(tl, br):
                return False
            tr = a ^ (cols[None, :] + h)
            bl = (a + h) ^ cols[None, :]
            if not np.array_equal(tr, bl):
                return False
    return True
