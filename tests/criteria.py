"""Bodies of the acceptance criteria that the committed mutants are run against.

Each function takes its cases and returns ``(ok, detail)``: the verdict and the text that
``test_acceptance.py`` prints after it. The package is read through its modules at call time,
so a mutant set with ``monkeypatch.setattr`` on a module reaches every call.
"""

import math

import numpy as np

from egain import classical, fock

CLASSICAL_EXPONENTS = range(1, 15)
TRUNCATION_CASES = tuple(
    (kind, k, noise, dim)
    for kind, k, noise in (("amplifier", 1.5, 0.0), ("amplifier", 3.0, 0.0), ("classical_noise", 1.0, 0.3))
    for dim in (16, 60)
)
THERMAL_CASES = (
    ("attenuator", 0.7, 0.0),
    ("amplifier", 1.5, 0.0),
    ("classical_noise", 1.0, 0.3),
    ("amplifier", 1.5, 0.2),
)
THERMAL_NUS, THERMAL_DIM = (10.0, 20.0), 400
SLACK_CAP, DELTA = 0.01, 0.05


def classical_counterexample(exponents):
    """Criterion 8: the XOR channel's 2^k truncations, k in ``exponents``, are doubly stochastic,
    H_{2^k} strictly increases, and rows 1, 5 and 100 carry the same entropy at 2^8 and 2^12."""
    dist = classical.heavy_tail()
    family = classical.xor_family()
    failures = []
    if not all(classical.doubly_stochastic_check(family, dist, k) for k in exponents):
        failures.append("a truncation is not doubly stochastic")
    entropies = [dist.truncated_entropy(1 << k) for k in exponents]
    if not all(b > a for a, b in zip(entropies, entropies[1:])):
        failures.append("entropy growth has a plateau")
    for n in (1 << 8, 1 << 12):
        reference = dist.truncated_entropy(n)
        for i in (1, 5, 100):
            if abs(classical.channel_row_entropy(dist, family, i, n) - reference) > 1e-10:
                failures.append(f"row entropy depends on i at prefix {n}")
    detail = f"H_2^{exponents[-1]} = {entropies[-1]:.6f}, all verdicts true"
    return not failures, "; ".join(failures) or detail


def finite_truncations_have_no_positive_gain(cases):
    """Criterion 11 on ``cases`` of (kind, k, noise, dim).

    Alicki's finite-dimensional side: a channel on d levels has minimal gain <= 0, which the flat
    input I_d/d attains for these truncations. Each such gain lies below the bound 2 log k >= 0 of
    the untruncated channel, so only the slack keeps the records from reading as violations. The
    flat inputs I_s/s, s = 1..dim, run as one stack; the slack is tightest on this ladder.
    """
    top_gain, least_ratio, breaches = -math.inf, math.inf, []
    for kind, k, noise, dim in cases:
        channel, bound = fock.build_dilation(kind, k, dim=dim, noise=noise), 2.0 * math.log(k)
        spectra = np.tril(np.ones((dim, dim))) / np.arange(1.0, dim + 1.0)[:, None]  # row s - 1: I_s/s
        rho = np.zeros((dim, dim, dim), dtype=complex)
        rho[:, np.arange(dim), np.arange(dim)] = spectra
        records = fock._records(channel, [{"bound": bound}] * dim, rho, spectra)
        top_gain = max(top_gain, records[-1]["gain"])
        for s, record in enumerate(records, 1):
            shortfall = bound - record["gain"]
            if not record["holds"] or shortfall > 0.0 and record["reliable"]:
                breaches.append(f"{kind} k = {k} at dim {dim}, s = {s}")
            if shortfall > 0.0:
                least_ratio = min(least_ratio, record["slack"] / shortfall)
    detail = (
        f"gain at s = dim at most {top_gain:.1e}, least slack/shortfall {least_ratio:.2f}, "
        f"{len(breaches)} breaches" + (f", the first {breaches[0]}" if breaches else "")
    )
    return top_gain <= 1e-12 and not breaches, detail


def fock_route_brackets_from_above(cases):
    """Criterion 12 on ``cases`` of (kind, k, noise): thermal inputs come within DELTA of 2 log k.

    The lower bound gain >= 2 log k - slack brackets the infimum from below; thermal inputs
    bracket it from above, since their gain tends to 2 log k as nu grows. Each channel runs
    ``verify_lower_bound`` on the thermal states nu = 10 and 20 at dim 400, and a rung counts only
    if its slack is at most SLACK_CAP. With gap = gain - 2 log k, the least gap + slack over
    the counted rungs must be at most DELTA, so the Fock route alone brackets the infimum in
    [2 log k - slack, 2 log k + DELTA]; and the gap must fall from nu = 10 to 20 where both count.

    A table built for k(1 + x) raises every gain by about 2x, so this check rejects x > 2.5%; a
    table off by less than about 2.5% in k needs a sharper reference: the thermal entropy-gain
    curve or a rate check (ROADMAP items 6 and 9).
    """
    leasts, failures = [], []
    for kind, k, noise in cases:
        channel, bound = fock.build_dilation(kind, k, dim=THERMAL_DIM, noise=noise), 2.0 * math.log(k)
        gaps = {}
        for nu in THERMAL_NUS:
            record = fock.verify_lower_bound(channel, fock.thermal_state(nu, THERMAL_DIM))
            if record["slack"] <= SLACK_CAP:
                gaps[nu] = (record["gain"] - bound, record["slack"])
        name = f"{kind} k = {k}, noise = {noise}"
        least = min((gap + slack for gap, slack in gaps.values()), default=math.inf)
        leasts.append(least)
        if not least <= DELTA:
            failures.append(f"{name}: least gap + slack {least:.4f} over {len(gaps)} counted rungs")
        lo, hi = THERMAL_NUS
        if len(gaps) == 2 and not gaps[hi][0] < gaps[lo][0]:
            failures.append(f"{name}: the gap does not fall from nu = {lo:g} to {hi:g}")
    detail = f"least gap + slack {', '.join(f'{v:.4f}' for v in leasts)} against delta = {DELTA}"
    return not failures, "; ".join(failures) or detail
