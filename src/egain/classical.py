"""A classical channel whose entropy gain is unbounded below no closed form.

The channel maps an input letter i to output j with probability
p_ij = q_{n_j(i)}, where each row (n_j(i))_j is a permutation of the
positive integers and q is a fixed heavy-tailed distribution. The
permutation table used here is the XOR table

    n_j(i) = ((i - 1) XOR (j - 1)) + 1,

which satisfies n_1(i) = i, n_j(1) = j and has the block form
A_k = [[A_{k-1}, A_{k-1} + h], [A_{k-1} + h, A_{k-1}]], h = 2^(k-1), from
A_0 = [1]. By induction each row and column restricts to a bijection of
every power-of-two prefix {1..2^k}; the checks below certify this form by
comparing a table with the XOR table once per cell, which is the same test.
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
import operator
from collections import namedtuple
from typing import Callable

import numpy as np

from .errors import InadmissibleInputError, _whole
from .records import ByIdentity, _refuse

__all__ = [
    "HeavyTailDistribution",
    "xor_family",
    "heavy_tail",
    "normalizer",
    "channel_row_entropy",
    "first_failing_prefix",
    "doubly_stochastic_check",
    "prefix_bijections_exhaustive",
    "block_recursion_exhaustive",
]

_CHUNK = 1 << 22
_NORMALIZER_CUTOFF = 10**8
_HEAD_CUTOFF = 10**5
_TAIL_PANELS = 8
_STRIPE_CELLS = 1 << 17
_WORD_BYTES = 1 << 16  # smaller stripes compare faster bytewise than through uint64 views
# The positive half of numpy.polynomial.legendre.leggauss(64), nodes ascending, as repr floats. leggauss
# symmetrizes the rule, x_i = -x_{63-i} and w_i = w_{63-i} bit for bit, so mirroring the half rebuilds it.
_HALF_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946, 0.571895646202634,
    0.6111553551723933, 0.6489654712546573, 0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803, 0.8659993981540928, 0.8893154459951141,
    0.9105221370785028, 0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_HALF_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)


def _xor_table(a, b):
    """The 0-based XOR table u(a, b) = a XOR b, in the dtype of its indices."""
    return a ^ b


def xor_family() -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The XOR permutation table (i, j) -> n_j(i) of the positive integers.

    It evaluates the table on broadcast arrays of 1-based indices. Other
    tables passed where this one is expected must do the same, and be exact
    in the smallest unsigned dtype that ``doubly_stochastic_check`` uses.
    """
    return lambda i, j: operator.iadd(_xor_table(i - 1, j - 1), 1)  # no second temporary


def _raw_weight(n: np.ndarray) -> np.ndarray:
    """a_n = 1/(n log^2(n+1)) in float64, in one temporary."""
    a = np.add(n, 1.0)
    np.log(a, out=a)
    np.square(a, out=a)  # what ** 2 dispatches to
    a *= n
    return np.divide(1.0, a, out=a)


def _entropy_of(q: np.ndarray) -> float:
    """-sum q log q, with the terms formed in place of log q."""
    terms = np.log(q)
    terms *= q
    return float(-terms.sum())


def _raw_weight_slope(x: float) -> float:
    """Derivative a'(x) of a(x) = 1/(x log^2(x+1))."""
    L = math.log1p(x)
    return -1.0 / (x * x * L * L) - 2.0 / (x * (x + 1.0) * L**3)


def _partial_sum(N: int) -> float:
    """sum_{n<=N} a_n: direct below M, quadrature plus Euler-Maclaurin from M to N."""
    M = min(_HEAD_CUTOFF, N)
    head = float(_raw_weight(np.arange(1, M, dtype=np.float64)).sum())
    # int_M^N a(x) dx = int 1/log1p(e^t)^2 dt over t = log x in [log M, log N]
    nodes, weights = np.array([_HALF_NODES, _HALF_WEIGHTS])
    nodes, weights = np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))
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

    The rule is mirrored from its stored positive half, ``_HALF_NODES`` and
    ``_HALF_WEIGHTS``, which is numpy's ``leggauss(64)`` to the bit: no nodes
    are solved at run time, and numpy.polynomial is never imported.
    """
    N = _NORMALIZER_CUTOFF
    tail_lo = 1.0 / math.log(N + 2.0)
    tail_hi = 1.0 / math.log(N)
    return _partial_sum(N) + 0.5 * (tail_lo + tail_hi), 0.5 * (tail_hi - tail_lo)


class HeavyTailDistribution(
    ByIdentity, namedtuple("HeavyTailDistribution", "normalizer normalizer_uncertainty")
):
    """Normalized heavy-tail weights q_n = 1/(Z n log^2(n+1)), evaluated lazily."""

    __slots__ = ()
    n_max = 10**7  # a cap on queries only: q is normalized over all positive integers
    normalizer: float
    normalizer_uncertainty: float

    def weight(self, n) -> np.ndarray:
        """q_n for whole 1 <= n <= n_max (vectorized); other indices are refused by name.

        An integer-typed array is whole by its type; any other is read as float64 and
        must be finite and whole.
        """
        n = np.asarray(n)
        if not n.ndim:  # a scalar: the in-place ufuncs below need an array
            return self.weight(n.reshape(1))[0]
        whole = n.dtype.kind in "iu"
        if not whole:
            n = n.astype(np.float64, copy=False)
            whole = (n == np.floor(n)).all()  # also fails at nan
        if not whole or n.size and not (1 <= n.min() and n.max() <= self.n_max):
            bad = ~((n >= 1) & (n <= self.n_max) & (n == np.floor(n)))  # the first in C order is named
            message = "indices must be whole numbers in [1, {n_max}], got {!r}"
            _refuse(bad, InadmissibleInputError, message, n.ravel().tolist(), n_max=self.n_max)
        q = _raw_weight(n)
        q /= self.normalizer
        return q

    def _prefix(self, N) -> int:
        """``N`` as an int, refused by name unless it is whole and in [1, n_max]."""
        N = _whole("N", N, 1)
        if N > self.n_max:
            raise InadmissibleInputError(f"N must lie in [1, {self.n_max}], got {N}")
        return N

    def truncated_entropy(self, N: int) -> float:
        """Partial entropy sum H_N = -sum_{n<=N} q_n log q_n, in nats.

        Every term is positive (q_n < 1), so H_N is strictly increasing in N;
        it diverges like log log N because q_n log(1/q_n) ~ 1/(n log n).
        """
        N, Z = self._prefix(N), self.normalizer
        total = 0.0
        for lo in range(1, N + 1, _CHUNK):
            hi = min(N, lo + _CHUNK - 1)
            # lo..hi lie in [1, n_max] by the check above: weight()'s range tests cannot fail
            q = _raw_weight(np.arange(lo, hi + 1, dtype=np.float64))
            q /= Z
            total += _entropy_of(q)
        return total


def heavy_tail() -> HeavyTailDistribution:
    """Build the heavy-tail distribution, answering queries up to its ``n_max``."""
    return HeavyTailDistribution(*normalizer())


def channel_row_entropy(dist: HeavyTailDistribution, perms: Callable, i: int, N: int) -> float:
    """Truncated entropy of row i of the channel: -sum_{j<=N} p_ij log p_ij.

    At complete prefixes N = 2^k with i <= N the row indices are a
    permutation of {1..N}, so the value is independent of i.
    """
    i, N = _whole("i", i, 1), dist._prefix(N)  # before any of the N indices is built
    return _entropy_of(dist.weight(perms(i, np.arange(1, N + 1, dtype=np.int64))))


def _block_form(table: Callable[..., np.ndarray], k: int, origin: int) -> int:
    """The least j <= k at which the table t from ``origin`` leaves the XOR
    block form on the 2^j prefix, or k + 1 if it keeps the form on 2^k.

    Indices and values run from o = ``origin`` (0 for ``_xor_table``, 1 for a
    family). The form is t(o, o) = o and, at every scale h = 2^(j-1), for all
    o <= a, b < o + h: t(a, b+h) = t(a+h, b) = t(a, b) + h and
    t(a+h, b+h) = t(a, b); so A_j = [[A, A+h], [A+h, A]] from A_0 = [o], and
    by induction every row and column of a 2^j prefix is a bijection of it.
    The corner and the identities fix every entry scale by scale, and the
    shifted XOR table ((a-o) XOR (b-o)) + o satisfies them, so t has the form
    on a prefix exactly when it equals that table there: j is the bit length
    of the least max(a-o, b-o) over mismatched cells.

    ``table(rows, cols)`` gets a column of row indices and a row of column
    indices in the smallest unsigned dtype holding 2^k - 1 + o, one row stripe
    of at most _STRIPE_CELLS cells per call, so a passing table is evaluated on
    each cell once; a stripe of the wrong shape or dtype fails throughout.
    """
    n = 1 << k
    dtype = np.min_scalar_type(n - 1 + origin)
    index = np.arange(n, dtype=dtype)
    shifted = np.arange(origin, n + origin, dtype=dtype) if origin else index
    stripe = min(n, max(1, _STRIPE_CELLS >> k))
    buffer = np.empty((stripe, n), dtype)
    words = buffer.nbytes >= _WORD_BYTES and n * buffer.itemsize % 8 == 0
    least = n
    for lo in range(0, n, stripe):
        if lo >= least:
            break
        expected = np.bitwise_xor(index[lo : lo + stripe, None], index, out=buffer)
        if origin:
            expected += origin
        got = table(shifted[lo : lo + stripe, None], shifted)
        if not isinstance(got, np.ndarray) or got.shape != expected.shape or got.dtype != dtype:
            return lo.bit_length()
        if words and got.flags.c_contiguous:
            same = (got.view(np.uint64) == expected.view(np.uint64)).all()
        else:
            same = (got == expected).all()
        if not same:
            rows, cols = np.nonzero(got != expected)
            least = min(least, int(np.maximum(rows + lo, cols).min()))
    return least.bit_length()


def first_failing_prefix(perms: Callable, dist: HeavyTailDistribution, k: int) -> int:
    """The least k' <= k whose 2^k' x 2^k' truncation is not certified doubly
    stochastic after renormalization, or k + 1.

    The 2^k' truncation is certified iff the table ``perms`` on the prefix
    {1..2^k'} equals the 1-based XOR table: the block form of ``_block_form``.
    Every row and column is then a bijection of the prefix, so each carries
    the weight multiset {q_1, ..., q_{2^k'}}. The form is sufficient, not
    necessary: the doubly stochastic cyclic ((i-1) + (j-1)) mod 2^k + 1 is
    not of it. One pass evaluates ``perms`` on the 2^k prefix in uint8 to
    k = 7, uint16 to k = 15 and uint32 at k = 16, and answers every k' <= k.
    """
    k = _whole("prefix exponent", k, 0)
    if (1 << k) > dist.n_max:
        raise InadmissibleInputError(f"prefix 2^{k} = {1 << k} exceeds n_max = {dist.n_max}")
    return _block_form(perms, k, 1)


def doubly_stochastic_check(perms: Callable, dist: HeavyTailDistribution, k: int) -> bool:
    """Certify that the 2^k x 2^k truncation is doubly stochastic after
    renormalization: True iff ``first_failing_prefix`` exceeds k."""
    return bool(first_failing_prefix(perms, dist, k) > k)


def prefix_bijections_exhaustive(k_max: int = 16) -> bool:
    """Verify that each row and column of the XOR table restricts to a bijection of
    every prefix {1..2^k}, k <= k_max, which the block form of ``_xor_table`` implies."""
    return _xor_table_has_form(k_max)


def block_recursion_exhaustive(k_max: int = 16) -> bool:
    """Verify that the XOR table has the form [[A, A+h], [A+h, A]] at every scale
    h = 2^(k-1), k <= k_max: ``_block_form``, as ``prefix_bijections_exhaustive``."""
    return _xor_table_has_form(k_max)


def _xor_table_has_form(k_max) -> bool:
    k_max = _whole("prefix exponent", k_max, 0)
    return bool(_block_form(_xor_table, k_max, 0) > k_max)
