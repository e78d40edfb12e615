"""A classical channel whose entropy gain is unbounded below no closed form.

The channel maps an input letter i to output j with probability
p_ij = q_{n_j(i)}, where each row (n_j(i))_j is a permutation of the
positive integers and q is a fixed heavy-tailed distribution. The
permutation table used here is the XOR table

    n_j(i) = ((i - 1) XOR (j - 1)) + 1,

which satisfies n_1(i) = i, n_j(1) = j and has the block form
A_k = [[A_{k-1}, A_{k-1} + h], [A_{k-1} + h, A_{k-1}]], h = 2^(k-1), from
A_0 = [1]. By induction each row and column restricts to a bijection of
every power-of-two prefix {1..2^k}; the checks below certify this form.
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
    "HeavyTailDistribution",
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
_STRIPE = 64


def _xor_table(a, b):
    """The 0-based XOR table u(a, b) = a XOR b, in the dtype of its indices."""
    return a ^ b


def _xor_vectorized(i, j):
    return _xor_table(i - 1, j - 1) + 1


def xor_family() -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The XOR permutation table (i, j) -> n_j(i) of the positive integers.

    It evaluates the table on broadcast arrays of 1-based indices. Other
    tables passed where this one is expected must do the same, and be exact
    in the smallest unsigned dtype that ``doubly_stochastic_check`` uses.
    """
    return _xor_vectorized


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


def channel_row_entropy(dist: HeavyTailDistribution, perms: Callable, i: int, N: int) -> float:
    """Truncated entropy of row i of the channel: -sum_{j<=N} p_ij log p_ij.

    At complete prefixes N = 2^k with i <= N the row indices are a
    permutation of {1..N}, so the value is independent of i.
    """
    if i < 1 or N < 1:
        raise InadmissibleInputError("need i >= 1 and N >= 1")
    idx = perms(i, np.arange(1, N + 1, dtype=np.int64))
    q = dist.weight(idx)
    return float(-(q * np.log(q)).sum())


def _block_form(table: Callable[..., np.ndarray], k: int, origin: int) -> bool:
    """True iff the table t on the 2^k prefix from ``origin`` has the XOR block form.

    Indices and values run from o = ``origin`` (0 for ``_xor_table``, 1 for a
    family). The form is t(o, o) = o and, at every scale h = 2^(j-1),
    j = 1..k, for all o <= a, b < o + h: t(a, b+h) = t(a+h, b) = t(a, b) + h
    and t(a+h, b+h) = t(a, b). That is A_j = [[A, A+h], [A+h, A]] with
    A = A_{j-1}, from A_0 = [o]; shifting every index and value by one maps
    the 0-based identities onto the 1-based ones. If every row and column of
    A is a bijection of {o..o+h-1}, every row of A_j is such a row beside
    that row plus h, a bijection of {o..o+2h-1}, and so is every column; by
    induction every 2^j prefix is a table of bijections.

    ``table(rows, cols)`` evaluates t on the broadcast grid of a column of
    row indices and a row of column indices, in the smallest unsigned dtype
    that holds 2^k - 1 + o (uint16 for k = 16 from 0, uint32 from 1). Scales
    run upwards, so t(a, b) < o + h is already certified when scale h is
    checked and t(a, b) + h <= 2^k - 1 + o cannot overflow. Each scale is
    swept in stripes of _STRIPE rows, and the first mismatch returns False.
    """
    dtype = np.min_scalar_type((1 << k) - 1 + origin)
    corner = np.full(1, origin, dtype=dtype)
    if table(corner[:, None], corner).item() != origin:
        return False
    for j in range(1, k + 1):
        h = 1 << (j - 1)
        cols = np.arange(origin, origin + h, dtype=dtype)
        right = cols + h
        for lo in range(origin, origin + h, _STRIPE):
            rows = np.arange(lo, min(lo + _STRIPE, origin + h), dtype=dtype)[:, None]
            low = rows + h
            base = table(rows, cols)
            shifted = base + h
            if not (
                np.array_equal(table(rows, right), shifted)
                and np.array_equal(table(low, cols), shifted)
                and np.array_equal(table(low, right), base)
            ):
                return False
    return True


def doubly_stochastic_check(perms: Callable, dist: HeavyTailDistribution, k: int) -> bool:
    """Certify that the 2^k x 2^k truncation is doubly stochastic after renormalization.

    True iff the table ``perms`` on the prefix {1..2^k}, in
    uint8 to k = 7, uint16 to k = 15 and uint32 at k = 16, has the 1-based
    XOR block form of ``_block_form``. Every row and column is then a
    bijection of the prefix, so each carries the weight multiset {q_1, ...,
    q_{2^k}}. The form is sufficient, not necessary: False means "not of the
    XOR block form", and a doubly stochastic table of another form, such as
    the cyclic ((i-1) + (j-1)) mod 2^k + 1, gets False too.
    """
    if k < 0:
        raise InadmissibleInputError("k must be nonnegative")
    if (1 << k) > dist.n_max:
        raise InadmissibleInputError("prefix exceeds the distribution support")
    return _block_form(perms, k, 1)


def prefix_bijections_exhaustive(k_max: int = 16) -> bool:
    """Verify that each row and column of the XOR table restricts to a
    bijection of every prefix {1..2^k}, k <= k_max, through the block form of
    ``_xor_table``, which implies them by the induction in ``_block_form``.
    """
    return _block_form(_xor_table, k_max, 0)


def block_recursion_exhaustive(k_max: int = 16) -> bool:
    """Verify that the XOR table has the form [[A, A+h], [A+h, A]] at every
    scale h = 2^(k-1), k <= k_max: the block form of ``_xor_table``, the
    certificate that ``prefix_bijections_exhaustive`` also uses.
    """
    return _block_form(_xor_table, k_max, 0)
