"""cli-oneshot: one fresh ``python -m egain`` child at a time over a fixed mix.

Every op pays interpreter start, ``import egain`` and its own set-up (a
dilation build, the normalizer). The mix covers every subcommand, the file
readers and writers, and invalid inputs from the README exit-code table.
Input files come from the seed and are written before the first round; every
round repeats the same invocations, so reports must repeat byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from common import BENCH_DIR, RoundResult, child_env, random_covariance, random_regular_channel
from spans import aggregate, merge_counts

CONTRACT = (0, 2, 3, 4)
CHILD_TIMEOUT_S = 120
FOCK_TRIALS = 5


def setup():
    return None


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def write_inputs(directory: str, seed: int) -> dict:
    """Seeded input files for the mix; returns the values the checks need."""
    rng = np.random.default_rng([seed, 0xC11])
    facts = {"k_att": float(rng.uniform(0.2, 0.9)), "k_amp": float(rng.uniform(1.2, 3.0))}
    s = int(rng.integers(1, 3))
    K, mu = random_regular_channel(rng, s)
    _write(os.path.join(directory, "channel.json"), {"K": K.tolist(), "mu": mu.tolist()})
    facts["log_det_K"] = float(np.linalg.slogdet(K)[1])
    A = rng.normal(size=(2 * s, 2 * s)) * 0.5
    _write(os.path.join(directory, "epsilon.json"), {"matrix": (A @ A.T + 0.1 * np.eye(2 * s)).tolist()})
    alpha, nus = random_covariance(rng, int(rng.integers(1, 4)))
    _write(os.path.join(directory, "covariance.json"), {"matrix": alpha.tolist()})
    facts["nus"] = nus.tolist()
    u, v = rng.normal(size=2), rng.normal(size=2)
    singular = {"K": np.outer(u, v).tolist(), "mu": (2.0 * np.eye(2)).tolist()}
    _write(os.path.join(directory, "singular.json"), singular)
    k_low = float(rng.uniform(1.5, 3.0))
    low_noise = {"K": (k_low * np.eye(2)).tolist(), "mu": (0.1 * np.eye(2)).tolist()}
    _write(os.path.join(directory, "lownoise.json"), low_noise)
    _write(os.path.join(directory, "ragged.json"), {"matrix": [[1.0, 0.0], [0.0]]})
    return facts


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _csv_rows(text: bytes):
    return [line.split(",") for line in text.decode().splitlines() if line and not line.startswith("#")][1:]


def check_gain(expected):
    def check(report):
        value = json.loads(report)["gain_closed_form"]
        if abs(value - expected) > 1e-9 * max(1.0, abs(expected)):
            return "wrong", f"gain {value!r}, expected {expected!r}"
        return None

    return check


def check_converged(report):
    if b"# converged: true" not in report:
        return "failed", "sweep did not converge above the beta floor"
    return None


def check_williamson(nus):
    def check(report):
        got = json.loads(report)["symplectic_eigenvalues"]
        if len(got) != len(nus) or max(abs(a - b) for a, b in zip(got, nus)) > 1e-8 * max(nus):
            return "wrong", f"symplectic eigenvalues {got}, expected {nus}"
        return None

    return check


def check_campaign(report):
    data = json.loads(report)
    if data["holds_count"] != data["trials"]:
        return "wrong", f"{data['trials'] - data['holds_count']} trials violate the bound"
    return None


def check_classical(report):
    rows = _csv_rows(report)
    entropies = [float(row[1]) for row in rows]
    if not all(row[2] == "true" for row in rows):
        return "wrong", "a truncation is not doubly stochastic"
    if not all(b > a for a, b in zip(entropies, entropies[1:])):
        return "wrong", "entropy growth has a plateau"
    return None


def check_unreliable(report):
    data = json.loads(report)
    if data["unreliable_count"] <= 0.05 * data["trials"]:
        return "wrong", "exit 4 without unreliable trials"
    return None


def mix(facts: dict, seed: int) -> list:
    """(name, argv, expected exit codes, report check) in run order."""
    fock_att = f"fock --preset attenuator --k 0.7 --dim 30 --trials {FOCK_TRIALS} --seed {seed}"
    fock_ext = f"fock --preset classical-noise --k 1 --noise 0.3 --dim 40 --trials 3 --extremality --seed {seed}"
    rows = [
        ("gain-preset", f"gain --preset attenuator --k {facts['k_att']!r}", (0,), check_gain(2.0 * math.log(facts["k_att"]))),
        ("gain-file", "gain --channel-file channel.json", (0,), check_gain(facts["log_det_K"])),
        ("sweep-preset", f"sweep --preset amplifier --k {facts['k_amp']!r}", (0,), check_converged),
        ("sweep-files", "sweep --channel-file channel.json --epsilon-file epsilon.json", (0,), check_converged),
        ("williamson", "williamson covariance.json", (0,), check_williamson(facts["nus"])),
        ("fock-attenuator", fock_att, (0,), check_campaign),
        ("fock-extremality", fock_ext, (0,), check_campaign),
        ("classical", "classical --k 8", (0,), check_classical),
        ("fock-attenuator-again", fock_att, (0,), check_campaign),
        ("singular-K", "gain --channel-file singular.json", (2,), None),
        ("noise-below-bound", "gain --channel-file lownoise.json", (2,), None),
        ("ragged-matrix", "williamson ragged.json", (2,), None),
        ("malformed-flag", "gain --preset attenuator --k half", (2,), None),
        ("inverted-beta-range", "sweep --preset attenuator --k 0.5 --beta-max 1e-3 --beta-min 1e-2", (2,), None),
        ("unreliable-amplifier", f"fock --preset amplifier --k 3 --dim 16 --trials 4 --seed {seed}", (4,), check_unreliable),
    ]
    return [(name, command.split(), expected, check) for name, command, expected, check in rows]


class Workload:
    name = "cli-oneshot"

    def __init__(self, seed: int, state, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.facts = write_inputs(workdir, seed)
        self.mix = mix(self.facts, seed)
        self.layers = {}
        self.counts = {}
        self.import_s = []
        self.invocations = 0
        self.in_contract = 0
        self.first_digest = None

    def make_inputs(self, r: int):
        return f"r{r}"

    def _spawn(self, tag, name, argv, traced):
        out = f"{tag}_{name}.out"
        argv = argv + ["--out", out]
        if traced:
            spans_path = os.path.join(self.workdir, f"{tag}_{name}.spans.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "launcher.py"), spans_path, name, "--", *argv]
        else:
            spans_path = None
            cmd = [sys.executable, "-m", "egain", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.workdir, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        latency = time.perf_counter() - t0
        if spans_path is not None:
            self._absorb(spans_path)
        return latency, proc, _read(os.path.join(self.workdir, out))

    def _absorb(self, path):
        try:
            with open(path) as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            return
        os.unlink(path)
        self.import_s.append(child["import_s"])
        for name, (calls, own) in aggregate(child["spans"]).items():
            entry = self.layers.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
        merge_counts(self.counts, child["counts"])

    def run_round(self, tag, meter, tracer=None) -> RoundResult:
        """Run the mix once; with a tracer, children run under the launcher."""
        out = RoundResult()
        reports = {}
        for i, (name, argv, expected, check) in enumerate(self.mix):
            if i:
                meter.split(len(out.latencies))
            latency, proc, report = self._spawn(tag, name, argv, tracer is not None)
            out.latencies.append(latency)
            code = proc.returncode
            traceback = b"Traceback (most recent call last)" in proc.stderr
            in_contract = code in CONTRACT and not traceback
            self.invocations += 1
            self.in_contract += in_contract
            problem = None
            if not in_contract:
                last = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
                problem = ("failed", f"exit {code}{' with a traceback' if traceback else ''}: {last[0]}")
            elif code not in expected:
                problem = ("wrong", f"exit {code}, expected {expected}")
            elif check is not None and code != 2:
                if report is None:
                    problem = ("wrong", "no report written")
                else:
                    try:
                        problem = check(report)
                        if name.startswith("fock") and expected == (0,):
                            data = json.loads(report)
                            out.trials += data["trials"]
                            out.reliable += data["reliable_count"]
                    except (ValueError, KeyError, IndexError) as exc:
                        problem = ("wrong", f"unreadable report: {exc!r}")
            reports[name] = report
            out.digest.append((name, code, hashlib.sha256(report).hexdigest() if report else None))
            if problem is not None:
                out.failed += 1
                kind, message = problem
                (out.wrong if kind == "wrong" else out.notes).append(f"{name}: {message}")
        if reports["fock-attenuator"] != reports["fock-attenuator-again"]:
            out.failed += 1
            out.wrong.append("same-seed fock reports differ within a round")
        if self.first_digest is None:
            self.first_digest = out.digest
        elif out.digest != self.first_digest:
            out.wrong.append("reports differ from the first round")
        for name in os.listdir(self.workdir):
            if name.startswith(tag + "_"):
                os.unlink(os.path.join(self.workdir, name))
        return out
