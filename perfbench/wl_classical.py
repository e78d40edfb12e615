"""classical-xor: the classical counterexample of criteria 8-9 at fixed size.

Set-up builds the heavy-tail distribution (the normalizer sum). A round
computes H at 2^k and checks double stochasticity for k = 1..K, compares
row entropies at seeded rows against H at three prefixes, and runs both
exhaustive XOR checks at K_MAX. K and K_MAX are far below criterion 9's 16
so that a round takes about a second; they never change between commits.
One op is one library call; the mix is the same in every round.
"""

from __future__ import annotations

import time

import numpy as np

from common import RoundResult

K = 12
K_MAX = 13
ROW_LEVELS = (4, 8, 12)
ROWS_PER_LEVEL = 3
ROW_ATOL = 1e-10  # criterion 8


def setup():
    from egain import classical

    return classical.heavy_tail(), classical.xor_family()


class Workload:
    name = "classical-xor"

    def __init__(self, seed: int, state):
        self.seed = seed
        self.dist, self.family = state

    def make_inputs(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        return {
            level: [int(i) for i in rng.integers(1, (1 << level) + 1, size=ROWS_PER_LEVEL)]
            for level in ROW_LEVELS
        }

    def run_round(self, rows, meter, tracer=None) -> RoundResult:
        from egain import classical

        out = RoundResult()

        def op(label, fn, *args):
            if tracer is not None:
                tracer.op = label
            t0 = time.perf_counter()
            try:
                value = fn(*args)
            except Exception as exc:  # counted as a failed op, never dropped
                out.notes.append(f"{label}: {type(exc).__name__}: {exc}")
                value = exc
            out.latencies.append(time.perf_counter() - t0)
            return value

        def verdict(label, ok, message):
            out.digest.append((label, ok))
            if not ok:
                out.failed += 1
                out.wrong.append(f"{label}: {message}")

        entropies = {}
        for k in range(1, K + 1):
            entropies[k] = op(f"H{k}", self.dist.truncated_entropy, 1 << k)
            if isinstance(entropies[k], Exception):
                out.failed += 1
            elif k > 1 and not isinstance(entropies[k - 1], Exception):
                verdict(f"H{k}", entropies[k] > entropies[k - 1], "entropy growth has a plateau")
            ds = op(f"ds{k}", classical.doubly_stochastic_check, self.family, self.dist, k)
            if isinstance(ds, Exception):
                out.failed += 1
            else:
                verdict(f"ds{k}", ds is True, "truncation is not doubly stochastic")
        for level, indices in rows.items():
            reference = entropies[level]
            for i in indices:
                value = op(f"row{level}", classical.channel_row_entropy, self.dist, self.family, i, 1 << level)
                if isinstance(value, Exception) or isinstance(reference, Exception):
                    out.failed += 1
                else:
                    verdict(f"row{level}", abs(value - reference) <= ROW_ATOL, f"row {i} entropy depends on i")
        meter.split(len(out.latencies))
        for label, check in (
            ("prefix", classical.prefix_bijections_exhaustive),
            ("blocks", classical.block_recursion_exhaustive),
        ):
            value = op(label, check, K_MAX)
            if isinstance(value, Exception):
                out.failed += 1
            else:
                verdict(label, value is True, f"exhaustive check failed at k_max {K_MAX}")
        return out
