"""Tests of the benchmark's own machinery.

Run with: python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402

common.use_checkout_sources()

import egain  # noqa: E402,F401
import spans  # noqa: E402
from egain import channels, classical, cli, fock, gaussian  # noqa: E402
from egain.symplectic import canonical_form  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert common.tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        cut = common.percentile(values, expected)
        assert sum(v > cut for v in values) >= 10


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(values, 50) == 3.0
    assert common.percentile(values, 90) == 5.0
    assert common.percentile(values, 20) == 1.0


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["other_root", 11.0, 12.5, -1, 1],
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0, 1.5]
    table = spans.aggregate(recorded)
    assert table["root"] == [1, 6.0]
    assert sum(own for _, own in table.values()) == pytest.approx(10.0 + 1.5)


def test_tracer_records_parents_and_op():
    tracer = spans.Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("second"):
            pass
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "second"]
    assert parents == [-1, 0, 0]
    assert all(s[4] == 7 for s in tracer.spans)
    assert all(s[1] <= s[2] for s in tracer.spans)


def _bindings():
    snapshot = {}
    for module in spans.egain_modules():
        for key, value in vars(module).items():
            snapshot[(module.__name__, key)] = value
    snapshot[("class", "truncated_entropy")] = classical.HeavyTailDistribution.__dict__["truncated_entropy"]
    return snapshot


def test_uninstall_restores_every_binding():
    before = _bindings()
    original_eigs = gaussian.symplectic_eigenvalues
    original_dilation = fock.build_dilation
    patches = spans.install(spans.Tracer())
    try:
        # Bindings imported by name into other modules are replaced too.
        assert gaussian.symplectic_eigenvalues is not original_eigs
        assert cli.build_dilation is not original_dilation
        assert egain.build_dilation is cli.build_dilation is fock.build_dilation
        assert classical.HeavyTailDistribution.__dict__["truncated_entropy"] is not before[("class", "truncated_entropy")]
    finally:
        spans.uninstall(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_intra_module_calls_are_nested_spans():
    channel = fock.build_dilation("attenuator", 0.7, dim=8)
    state = fock.random_low_support_state(np.random.default_rng(0), dim=8, support=3)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        record = fock.verify_lower_bound(channel, state)
    untraced = fock.verify_lower_bound(channel, state)
    assert record["holds"] == untraced["holds"]
    assert record["gain"] == untraced["gain"]
    names = [s[0] for s in tracer.spans]
    assert names[0] == "fock.verify_lower_bound"
    apply_index = names.index("fock.apply_channel")
    assert tracer.spans[apply_index][3] == 0
    assert tracer.counts["fock.apply_channel.flops_computed"] == 16 * len(channel.kraus) * 8**3


def test_post_hooks_count_sweep_points():
    tracer = spans.Tracer()
    channel = channels.preset_channel("attenuator", 0.5)
    ham = gaussian.quadratic_hamiltonian(channel.space, np.eye(2))
    with spans.installed(tracer):
        report = channels.gain_beta_sweep(channel, ham)
    assert tracer.counts["channels.gain_beta_sweep.grid_points"] == len(report.beta_grid)


def test_meter_divides_each_segment_by_the_kernel_around_it():
    refs = iter([1.0, 3.0, 5.0])
    meter = common.Meter(lambda: next(refs))
    meter.split(2)
    meter.split(3)
    assert meter.refs == [1.0, 3.0, 5.0]
    assert meter.ops == [0, 2, 3]
    assert meter.normalize([2.0, 4.0, 8.0]) == [1.0, 2.0, 2.0]


def test_drawn_channels_are_seeded_and_far_from_singular():
    for modes in (1, 3, 6):
        K, mu = common.random_regular_channel(np.random.default_rng([7, modes]), modes)
        again, _ = common.random_regular_channel(np.random.default_rng([7, modes]), modes)
        assert np.array_equal(K, again)
        assert np.linalg.svd(K, compute_uv=False)[-1] >= common.MIN_SINGULAR_K
        assert channels.make_channel(K, mu, canonical_form(modes)).regular
