"""fock-campaign: whole Fock-oracle campaigns on the dilations of criteria 5-6.

A round is four campaign calls on the same seeded generator: the universal
lower bound on the attenuator (k = 0.7), the amplifier (k = 1.5) and
classical noise (0.3), then Gaussian extremality on classical noise, all at
dim 60. Trials per call keep criterion 5's 3:1 ratio to criterion 6. Each
campaign is one call with many trials, so batching across trials inside the
package would show here. One op is one trial; trials inside one call are not
timed separately from outside, so each gets its call's mean latency.
"""

from __future__ import annotations

import time

import numpy as np

from common import RoundResult

DIM = 60
LOWER_BOUND_TRIALS = 15
EXTREMALITY_TRIALS = 5
RELIABLE_FLOOR = 0.95  # criterion 5: at least 95% of trials reliable

CALLS = (
    ("lower_bound", "attenuator", LOWER_BOUND_TRIALS),
    ("lower_bound", "amplifier", LOWER_BOUND_TRIALS),
    ("lower_bound", "classical_noise", LOWER_BOUND_TRIALS),
    ("extremality", "classical_noise", EXTREMALITY_TRIALS),
)


def setup():
    """Program set-up: the three dilations."""
    from egain import fock

    return {
        "attenuator": fock.build_dilation("attenuator", 0.7, dim=DIM),
        "amplifier": fock.build_dilation("amplifier", 1.5, dim=DIM),
        "classical_noise": fock.build_dilation("classical_noise", 1.0, dim=DIM, noise=0.3),
    }


class Workload:
    name = "fock-campaign"

    def __init__(self, seed: int, state):
        self.seed = seed
        self.channels = state

    def make_inputs(self, r: int):
        return r, np.random.default_rng([self.seed, r])

    def run_round(self, inputs, meter, tracer=None) -> RoundResult:
        from egain import fock

        r, rng = inputs
        out = RoundResult()
        for i, (campaign, kind, trials) in enumerate(CALLS):
            if i:
                meter.split(len(out.latencies))
            if tracer is not None:
                tracer.op = (r, kind, campaign)
            run = fock.lower_bound_campaign if campaign == "lower_bound" else fock.extremality_campaign
            t0 = time.perf_counter()
            try:
                summary = run(self.channels[kind], trials, rng)
            except Exception as exc:  # a refused campaign counts all its trials as failed
                out.latencies.extend([(time.perf_counter() - t0) / trials] * trials)
                out.failed += trials
                out.trials += trials
                out.notes.append(f"{campaign} {kind}: {type(exc).__name__}: {exc}")
                out.digest.append((campaign, kind, type(exc).__name__))
                continue
            out.latencies.extend([(time.perf_counter() - t0) / trials] * trials)
            records = summary["records"]
            enough_reliable = summary["reliable_count"] >= RELIABLE_FLOOR * trials
            for record in records:
                if not record["holds"]:
                    out.failed += 1
                    out.wrong.append(f"{campaign} {kind}: bound violated, gain {record['gain']!r}")
                elif not (record["reliable"] or enough_reliable):
                    out.failed += 1
            if not enough_reliable:
                out.notes.append(
                    f"{campaign} {kind}: only {summary['reliable_count']}/{trials} reliable"
                )
            out.trials += trials
            out.reliable += summary["reliable_count"]
            out.digest.append(
                (
                    campaign,
                    kind,
                    summary["holds_count"],
                    summary["reliable_count"],
                    tuple((rec["holds"], rec["reliable"]) for rec in records),
                )
            )
        return out


def per_state_apply_ms(spans, self_s) -> dict:
    """apply_channel self time per input state, by dilation, from the timed pass."""
    total = {kind: 0.0 for kind in ("attenuator", "amplifier", "classical_noise")}
    states = dict.fromkeys(total, 0)
    for span, own in zip(spans, self_s):
        if span[0] == "fock.apply_channel" and isinstance(span[4], tuple):
            total[span[4][1]] += own
            states[span[4][1]] += 1
    return {kind: 1e3 * total[kind] / states[kind] if states[kind] else 0.0 for kind in total}
