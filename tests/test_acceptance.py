"""Acceptance criteria for the package, one test per criterion.

Each test prints a single verdict line (visible with ``pytest -s``) of the
form ``[PASS] criterion N: <name> [elapsed / budget]`` and fails honestly if
either the mathematical requirement or the runtime budget is violated.
The bodies of criteria 8, 11 and 12 are in ``criteria.py``, where
``test_mutants.py`` also runs them against deliberately wrong programs.
"""

import math
import time

import numpy as np
import pytest

import criteria
from conftest import random_covariance, random_regular_channel, random_spd
from egain.channels import (
    gain_beta_sweep,
    minimal_entropy_gain,
    preset_channel,
    tensor_channels,
)
from egain.classical import block_recursion_exhaustive
from egain.fock import (
    build_dilation,
    lower_bound_campaign,
    extremality_campaign,
    thermal_state,
    verify_extremality,
    von_neumann_entropy,
)
from egain.gaussian import (
    entropy_matrix_form,
    entropy_of_covariance,
    gaussian_entropy,
    gibbs_covariance,
    gibbs_state,
    mean_energy,
    mode_entropy,
    quadratic_hamiltonian,
)
from egain.symplectic import canonical_form


def _verdict(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {num}: {name} [{elapsed:.1f}s / budget {budget:.0f}s]{suffix}"
    print(line)
    assert status == "PASS", line


def test_criterion_01_closed_form_preset_gains():
    start = time.time()
    failures = []
    for k in (0.3, 0.5, 2.0, 5.0):
        name = "attenuator" if k < 1 else "amplifier"
        gain = minimal_entropy_gain(preset_channel(name, k))
        if gain != 2.0 * math.log(k):
            failures.append(f"k={k}: {gain!r} != {2.0 * math.log(k)!r}")
    _verdict(
        1,
        "preset gains equal 2 log k at machine precision",
        not failures,
        time.time() - start,
        1.0,
        "; ".join(failures) or "4 presets exact",
    )


def test_criterion_02_sweep_attainment():
    start = time.time()
    failures = []
    for name, k in (("attenuator", 0.5), ("amplifier", 2.0)):
        channel = preset_channel(name, k)
        ham = quadratic_hamiltonian(canonical_form(1), np.eye(2))
        report = gain_beta_sweep(channel, ham)
        closed = 2.0 * math.log(k)
        gap = abs(report.gains[-1] - closed)
        if not report.converged or gap >= 1e-3:
            failures.append(f"{name}: final gap {gap:.2e}")
        if not np.all(np.diff(report.gains) < 0):
            failures.append(f"{name}: gains not monotone decreasing")
        if not np.all(report.gains >= closed - 1e-9):
            failures.append(f"{name}: sweep dips below the closed form")
    _verdict(
        2,
        "beta sweeps attain the closed form from above",
        not failures,
        time.time() - start,
        5.0,
        "; ".join(failures) or "both presets within 1e-3, monotone",
    )


def test_criterion_03_entropy_formula_equivalence():
    start = time.time()
    gen = np.random.default_rng(301)
    worst = 0.0
    for trial in range(200):
        modes = 1 + trial % 3
        alpha, _ = random_covariance(gen, modes)
        space = canonical_form(modes)
        via_sum = entropy_of_covariance(alpha, space)
        via_matrix = entropy_matrix_form(alpha, space)
        worst = max(worst, abs(via_matrix - via_sum) / abs(via_sum))
    _verdict(
        3,
        "matrix-function entropy matches the mode sum",
        worst < 1e-8,
        time.time() - start,
        30.0,
        f"worst relative difference {worst:.2e} over 200 covariances",
    )


def test_criterion_04_gibbs_consistency():
    start = time.time()
    gen = np.random.default_rng(401)
    worst_identity = 0.0
    for _ in range(50):
        modes = int(gen.integers(1, 4))
        space = canonical_form(modes)
        epsilon = random_spd(gen, 2 * modes)
        beta = float(10.0 ** gen.uniform(-3, 1))
        ham = quadratic_hamiltonian(space, epsilon)
        state = gibbs_state(ham, beta)
        entropy = gaussian_entropy(state.base)
        rhs = beta * mean_energy(ham, state.base) + state.c_beta
        worst_identity = max(
            worst_identity, abs(entropy - rhs) / max(1.0, abs(entropy))
        )
    # high-temperature asymptotics on a fresh draw
    space = canonical_form(2)
    epsilon = random_spd(gen, 4)
    ham = quadratic_hamiltonian(space, epsilon)
    beta = 1e-5
    alpha = gibbs_covariance(ham, beta)
    target = np.linalg.inv(epsilon) / (2.0 * beta)
    asym_rel = float(np.abs(alpha - target).max() / np.abs(target).max())
    ok = worst_identity < 1e-8 and asym_rel < 1e-3
    _verdict(
        4,
        "Gibbs entropy-energy identity and high-temperature asymptotics",
        ok,
        time.time() - start,
        30.0,
        f"identity residual {worst_identity:.2e}, asymptotic error {asym_rel:.2e}",
    )


def test_criterion_05_universal_bound_campaign():
    start = time.time()
    gen = np.random.default_rng(501)
    channels = [
        build_dilation("attenuator", 0.7, dim=60),
        build_dilation("amplifier", 1.5, dim=60),
        build_dilation("classical_noise", 1.0, dim=60, noise=0.3),
    ]
    holds = reliable = total = 0
    for channel in channels:
        summary = lower_bound_campaign(channel, 300, gen)
        holds += summary["holds_count"]
        reliable += summary["reliable_count"]
        total += summary["trials"]
    frac = reliable / total
    ok = holds == total and frac >= 0.95
    _verdict(
        5,
        "universal lower bound over 900 random Fock trials",
        ok,
        time.time() - start,
        180.0,
        f"holds {holds}/{total}, reliable {100 * frac:.1f}%",
    )


def test_criterion_06_extremality_campaign():
    start = time.time()
    gen = np.random.default_rng(601)
    strict = build_dilation("classical_noise", 1.0, dim=60, noise=0.3)
    summary = extremality_campaign(strict, 100, gen)
    thermal_record = verify_extremality(strict, thermal_state(1.0, 60))
    thermal_gap = abs(thermal_record["gain"] - thermal_record["gaussian_gain"])
    ok = summary["holds_count"] == 100 and thermal_gap < 1e-4
    _verdict(
        6,
        "Gaussian extremality through a strictly noisy channel",
        ok,
        time.time() - start,
        180.0,
        f"holds {summary['holds_count']}/100, thermal gap {thermal_gap:.2e}",
    )


def test_criterion_07_cross_oracle_entropy():
    start = time.time()
    worst = 0.0
    for nu in (0.6, 1.0, 2.0):
        fock_value = von_neumann_entropy(thermal_state(nu, 80))
        worst = max(worst, abs(fock_value - float(mode_entropy(nu))))
    _verdict(
        7,
        "thermal entropies agree across the two oracles",
        worst < 1e-6,
        time.time() - start,
        30.0,
        f"worst difference {worst:.2e} at dim 80",
    )


def test_criterion_08_classical_counterexample():
    start = time.time()
    ok, detail = criteria.classical_counterexample(criteria.CLASSICAL_EXPONENTS)
    _verdict(
        8,
        "classical channel is doubly stochastic with unbounded entropy",
        ok,
        time.time() - start,
        60.0,
        detail,
    )


def test_criterion_09_exhaustive_xor_structure():
    # prefix_bijections_exhaustive certifies through this same block form, so
    # one call settles both
    start = time.time()
    block_form = block_recursion_exhaustive(16)
    _verdict(
        9,
        "exhaustive XOR block form to k = 16, which implies the prefix bijections",
        block_form,
        time.time() - start,
        60.0,
        f"block_form={block_form}",
    )


def test_criterion_10_additivity():
    start = time.time()
    gen = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(10):
        a = random_regular_channel(gen, int(gen.integers(1, 3)))
        b = random_regular_channel(gen, int(gen.integers(1, 3)))
        combined = tensor_channels(a, b)
        total = minimal_entropy_gain(a) + minimal_entropy_gain(b)
        diff = abs(minimal_entropy_gain(combined) - total) / max(1.0, abs(total))
        worst = max(worst, diff)
    _verdict(
        10,
        "gain is additive over tensor products",
        worst < 1e-12,
        time.time() - start,
        30.0,
        f"worst relative deviation {worst:.2e}",
    )


def test_criterion_11_finite_truncations_have_no_positive_gain():
    start = time.time()
    ok, detail = criteria.finite_truncations_have_no_positive_gain(criteria.TRUNCATION_CASES)
    _verdict(
        11,
        "finite truncations have non-positive gain, and the oracle never calls that a violation",
        ok,
        time.time() - start,
        10.0,
        detail,
    )


def test_criterion_12_fock_route_brackets_the_infimum_from_above():
    start = time.time()
    ok, detail = criteria.fock_route_brackets_from_above(criteria.THERMAL_CASES)
    _verdict(
        12,
        "thermal inputs bring the Fock gain within delta of 2 log k",
        ok,
        time.time() - start,
        30.0,
        detail,
    )
