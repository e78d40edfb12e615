"""Shared pieces of the benchmark: locating the package, statistics, the
round loop, environment facts and result printing.

Nothing here imports numpy or egain at module level, so the set-up probes
can time a fresh ``import egain`` without this module paying part of it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Candidate percentiles for the latency tail, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

# Smallest singular value of a drawn channel matrix K (see random_regular_channel).
MIN_SINGULAR_K = 0.05


class MissingSourceError(RuntimeError):
    """The checkout holds no egain sources to benchmark."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on sys.path, or refuse to run."""
    if not os.path.isfile(os.path.join(SRC, "egain", "__init__.py")):
        raise MissingSourceError(f"no egain package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources, nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------- statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0 - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(n * p / 100.0 - 1e-9))


def tail_percentile(n: int):
    """The highest candidate percentile with at least ten samples beyond it, or None."""
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def median(values) -> float:
    return float(statistics.median(values))


# ------------------------------------------------------------------- inputs


def random_covariance(rng, modes: int, scale: float = 0.4):
    """Admissible covariance with known symplectic eigenvalues, and those values.

    A random symplectic exp(delta A), A symmetric Gaussian, applied to thermal
    blocks; drawn with numpy and scipy only, so the inputs do not depend on
    the package version being measured.
    """
    import numpy as np
    import scipy.linalg

    nus = np.sort(rng.uniform(0.6, 3.0, size=modes))[::-1]
    delta = np.kron(np.eye(modes), [[0.0, -1.0], [1.0, 0.0]])
    A = rng.normal(scale=scale, size=(2 * modes, 2 * modes))
    T = scipy.linalg.expm(delta @ (0.5 * (A + A.T)))
    alpha = T @ np.diag(np.repeat(nus, 2)) @ T.T
    return 0.5 * (alpha + alpha.T), nus


def random_regular_channel(rng, modes: int):
    """Matrices (K, mu) of a random regular channel with noise well above the bound.

    K is Gaussian, as in the test suite, redrawn until its smallest singular
    value is at least ``MIN_SINGULAR_K``. The beta at which an adaptive sweep
    converges falls with sigma_min(K)^2: kept draws converge by beta = 1e-8,
    far above the floor of 1e-12, while about 1 unfiltered draw in 400 is so
    close to singular that its sweep ends unconverged or is refused (see
    ``defects.py``).
    """
    import numpy as np

    while True:
        K = rng.normal(size=(2 * modes, 2 * modes))
        if np.linalg.svd(K, compute_uv=False)[-1] >= MIN_SINGULAR_K:
            return K, regular_noise(K, modes)


def regular_noise(K, modes: int):
    """Noise matrix mu well above the bound for channel matrix K."""
    import numpy as np

    delta = np.kron(np.eye(modes), [[0.0, -1.0], [1.0, 0.0]])
    gap = delta - K.T @ delta @ K
    return (0.6 * np.linalg.norm(gap, 2) + 0.5) * np.eye(2 * modes)


# ------------------------------------------------------------------- rounds


@dataclass
class RoundResult:
    """What one round of a workload did.

    ``latencies`` holds one entry per op in seconds. ``failed`` counts ops
    that raised, refused valid input, broke the exit-code contract or
    returned a wrong answer; ``wrong`` lists the wrong answers among them.
    ``digest`` captures verdicts and counts so two passes can be compared.
    """

    latencies: list = field(default_factory=list)
    failed: int = 0
    wrong: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    digest: list = field(default_factory=list)
    trials: int = 0
    reliable: int = 0


class Meter:
    """Times a round in segments, each bracketed by the reference kernel.

    ``split(ops_so_far)`` ends a segment. A segment's normalized time is its wall time
    over the mean of the reference times just before and just after it, so a
    host that slows down for a while slows both and the ratio holds.
    """

    def __init__(self, reference):
        self.reference = reference
        self.wall = 0.0
        self.norm = 0.0
        self.refs = [reference()]
        self.ops = [0]
        self._t0 = time.perf_counter()

    def split(self, ops_so_far: int) -> None:
        """End the segment; ``ops_so_far`` counts the round's ops up to here."""
        segment = time.perf_counter() - self._t0
        self.refs.append(self.reference())
        self.ops.append(ops_so_far)
        self.wall += segment
        self.norm += segment / (0.5 * (self.refs[-2] + self.refs[-1]))
        self._t0 = time.perf_counter()

    def normalize(self, latencies) -> list:
        """Each op latency over the mean kernel time around its segment."""
        out = []
        for i in range(len(self.ops) - 1):
            ref = 0.5 * (self.refs[i] + self.refs[i + 1])
            out.extend(x / ref for x in latencies[self.ops[i] : self.ops[i + 1]])
        return out


@dataclass
class Measurement:
    round_times: list = field(default_factory=list)
    round_norms: list = field(default_factory=list)
    round_refs: list = field(default_factory=list)
    norm_latencies: list = field(default_factory=list)
    rounds: list = field(default_factory=list)

    @property
    def latencies(self):
        return [x for r in self.rounds for x in r.latencies]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    @property
    def wrong(self):
        return [w for r in self.rounds for w in r.wrong]

    @property
    def notes(self):
        return [w for r in self.rounds for w in r.notes]

    @property
    def digest(self):
        return [r.digest for r in self.rounds]


def measure(make_inputs, run_round, reference, seconds: float, rounds: int | None = None) -> Measurement:
    """Closed loop over rounds of a fixed op mix.

    Inputs of round r come from ``make_inputs(r)`` outside the timed region;
    ``run_round(inputs, meter)`` may call ``meter.split(ops_so_far)``
    between its segments. With ``rounds`` unset, a new round starts only
    while it is expected to end within ``seconds`` of the first; at least
    one round always runs.
    """
    result = Measurement()
    began = time.perf_counter()
    r = 0
    while True:
        inputs = make_inputs(r)
        meter = Meter(reference)
        outcome = run_round(inputs, meter)
        meter.split(len(outcome.latencies))
        result.norm_latencies.extend(meter.normalize(outcome.latencies))
        result.round_times.append(meter.wall)
        result.round_norms.append(meter.norm)
        result.round_refs.append(sum(meter.refs) / len(meter.refs))
        result.rounds.append(outcome)
        r += 1
        elapsed = time.perf_counter() - began
        if rounds is not None:
            if r >= rounds:
                break
        elif elapsed + elapsed / r > seconds:
            break
    return result


# --------------------------------------------------------------- environment


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    """Machine and library facts recorded with every run."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


# ------------------------------------------------------------------- output


def say(line: str = "") -> None:
    print(line, flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The machine-readable result: always the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": metrics,
    }
    print(json.dumps(payload), flush=True)
