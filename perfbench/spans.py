"""Timing wrappers installed from outside the package.

The egain modules import each other's functions by name, so one wrapper per
function object replaces every binding of that object in every ``egain.*``
module namespace (matched by identity). Calls between modules and calls
inside one module both go through module globals, so both are caught.

Each call becomes a span ``[name, start, end, parent, op]`` kept in memory;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

# The public functions timed per layer, by module.
TARGETS = {
    "symplectic": ("check_hermitian_psd", "symplectic_eigenvalues", "williamson"),
    "gaussian": (
        "gibbs_covariance",
        "log_partition",
        "gaussian_state",
        "entropy_of_covariance",
        "entropy_matrix_form",
        "mode_entropy",
    ),
    "channels": (
        "make_channel",
        "apply_to_covariance",
        "gaussian_gain",
        "gain_beta_sweep",
        "tensor_channels",
        "minimal_entropy_gain",
        "general_lower_bound",
    ),
    "fock": (
        "build_dilation",
        "random_low_support_state",
        "fock_density",
        "apply_channel",
        "von_neumann_entropy",
        "covariance_of",
        "truncation_flags",
        "verify_lower_bound",
        "verify_extremality",
    ),
    "classical": (
        "normalizer",
        "heavy_tail",
        "HeavyTailDistribution.truncated_entropy",
        "channel_row_entropy",
        "doubly_stochastic_check",
        "prefix_bijections_exhaustive",
        "block_recursion_exhaustive",
    ),
    "matio": ("read_json", "load_matrix", "decode_array", "write_json", "encode_array"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
DILATION_KINDS = ("attenuator", "amplifier", "classical_noise")
CLI_SUBCOMMANDS = ("gain", "sweep", "fock", "classical", "williamson")
# Counts that describe an object rather than accumulate; merged by max.
GAUGES = tuple(f"fock.kraus_operators.{kind}" for kind in DILATION_KINDS)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_grid(counts, args, kwargs, result):
    counts["channels.gain_beta_sweep.grid_points"] += len(result.beta_grid)


def _count_kraus(counts, args, kwargs, result):
    counts[f"fock.kraus_operators.{result.kind}"] = len(result.kraus)


def _count_apply(counts, args, kwargs, result):
    # Computed from shapes, not measured: V @ rho and the contraction with
    # V* are n_K complex d x d products each, 8 real flops per complex MAC.
    channel = _arg(args, kwargs, 0, "channel")
    n_k, d = len(channel.kraus), channel.dim
    counts["fock.apply_channel.flops_computed"] += 16 * n_k * d**3
    counts["fock.kraus_bytes_computed"] += 16 * n_k * d * d


def _count_written(counts, args, kwargs, result):
    counts["matio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


POST_HOOKS = {
    "channels.gain_beta_sweep": _count_grid,
    "fock.build_dilation": _count_kraus,
    "fock.apply_channel": _count_apply,
    "matio.write_json": _count_written,
}


class Tracer:
    """In-memory span recorder with a current op id."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name, fn):
        post = POST_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if post is not None:
                post(self.counts, args, kwargs, result)
            return result

        return wrapper


def egain_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "egain" or n.startswith("egain.")]


def install(tracer: Tracer) -> list:
    """Replace every binding of each target function; return what to undo."""
    modules = egain_modules()
    patches = []
    for modname, names in TARGETS.items():
        home = sys.modules[f"egain.{modname}"]
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            span_name = f"{modname}.{qualname}"
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is not None:
                    setattr(owner, attr, tracer.wrap(span_name, original))
                    patches.append((owner, attr, original))
                continue
            original = getattr(home, attr, None)
            if original is None:  # gone from this version of the package: reads 0 calls
                continue
            wrapper = tracer.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patches.append((module, key, original))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer):
    patches = install(tracer)
    try:
        yield
    finally:
        uninstall(patches)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(spans) -> dict:
    """name -> [calls, self seconds]."""
    table = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = table[span[0]]
        entry[0] += 1
        entry[1] += own
    return dict(table)


def merge_counts(into: dict, other: dict) -> None:
    for key, value in other.items():
        if key in GAUGES:
            into[key] = max(into.get(key, 0.0), value)
        else:
            into[key] = into.get(key, 0.0) + value
