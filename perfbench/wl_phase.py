"""phase-space: a seeded stream of exact phase-space cases over 1..6 modes.

Every round is 48 cases, eight for each mode count, so rounds are alike in
size while the matrices differ. A case is one op: Williamson form, both
entropy routes, a random regular channel and its gain on the state, Gibbs
states at three temperatures, an adaptive beta sweep and tensor additivity.
All matrices are drawn before the round is timed. No Fock or classical code
runs here.
"""

from __future__ import annotations

import time

import numpy as np

from common import RoundResult, random_covariance, random_regular_channel

MODES = (1, 2, 3, 4, 5, 6)
CASES_PER_MODE = 8
CASES_PER_SEGMENT = 16
ENTROPY_RTOL = 1e-8  # criterion 3
GIBBS_RTOL = 1e-8  # criterion 4
ADDITIVITY_RTOL = 1e-12  # criterion 10
WILLIAMSON_RTOL = 1e-8
GAIN_RTOL = 1e-8


def setup():
    return None


def make_case(rng, s: int) -> dict:
    from egain.symplectic import canonical_form

    space = canonical_form(s)
    alpha, nus = random_covariance(rng, s)
    K, mu = random_regular_channel(rng, s)
    A = rng.normal(size=(2 * s, 2 * s)) * 0.5
    other_space = canonical_form(1 + s % 2)
    K2, mu2 = random_regular_channel(rng, other_space.s)
    return {
        "s": s,
        "space": space,
        "nus": nus,
        "alpha": alpha,
        "K": K,
        "mu": mu,
        "epsilon": A @ A.T + 0.1 * np.eye(2 * s),
        "betas": 10.0 ** rng.uniform(-3.0, 1.0, size=3),
        "other": (K2, mu2, other_space),
    }


def run_case(case: dict):
    """Run one case; return (digest, wrong answers, failure note or None)."""
    from egain import channels, gaussian, symplectic

    space, alpha = case["space"], case["alpha"]
    wrong = []
    nu = symplectic.williamson(alpha, space).nu
    if np.abs(nu - case["nus"]).max() > WILLIAMSON_RTOL * case["nus"].max():
        wrong.append("Williamson spectrum differs from the drawn one")
    via_sum = gaussian.entropy_of_covariance(alpha, space)
    via_matrix = gaussian.entropy_matrix_form(alpha, space)
    if abs(via_matrix - via_sum) > ENTROPY_RTOL * abs(via_sum):
        wrong.append(f"entropy routes differ: {via_sum!r} vs {via_matrix!r}")
    channel = channels.make_channel(case["K"], case["mu"], space)
    closed = channels.minimal_entropy_gain(channel)
    gain = channels.gaussian_gain(channel, alpha)
    if gain < closed - GAIN_RTOL * max(1.0, abs(closed), abs(gain)):
        wrong.append(f"gain {gain!r} below the closed form {closed!r}")
    ham = gaussian.quadratic_hamiltonian(space, case["epsilon"])
    for beta in case["betas"]:
        state = gaussian.gibbs_state(ham, beta)
        entropy = gaussian.gaussian_entropy(state.base)
        rhs = beta * gaussian.mean_energy(ham, state.base) + state.c_beta
        if abs(entropy - rhs) > GIBBS_RTOL * max(1.0, abs(entropy)):
            wrong.append(f"Gibbs identity off at beta {beta:.3e}")
    report = channels.gain_beta_sweep(channel, ham)
    K2, mu2, space2 = case["other"]
    other = channels.make_channel(K2, mu2, space2)
    combined = channels.tensor_channels(channel, other)
    total = closed + channels.minimal_entropy_gain(other)
    if abs(channels.minimal_entropy_gain(combined) - total) > ADDITIVITY_RTOL * max(1.0, abs(total)):
        wrong.append("gain is not additive over the tensor product")
    failure = None
    if not report.converged:
        failure = f"{case['s']}-mode sweep did not converge above the beta floor"
    digest = (case["s"], bool(report.converged), len(report.beta_grid), len(wrong))
    return digest, wrong, failure


class Workload:
    name = "phase-space"

    def __init__(self, seed: int, state):
        self.seed = seed

    def make_inputs(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        return [make_case(rng, s) for _ in range(CASES_PER_MODE) for s in MODES]

    def run_round(self, cases, meter, tracer=None) -> RoundResult:
        out = RoundResult()
        for i, case in enumerate(cases):
            if i and i % CASES_PER_SEGMENT == 0:
                meter.split(len(out.latencies))
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                digest, wrong, failure = run_case(case)
            except Exception as exc:  # refused or crashed case: counted, never dropped
                wrong, failure = [], f"{case['s']}-mode case: {type(exc).__name__}: {exc}"
                digest = (case["s"], type(exc).__name__)
            out.latencies.append(time.perf_counter() - t0)
            out.digest.append(digest)
            out.wrong.extend(wrong)
            if failure is not None:
                out.notes.append(failure)
            if wrong or failure is not None:
                out.failed += 1
        return out

