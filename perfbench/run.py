"""Benchmark for egain: four seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload untraced and then traced on the same inputs, checks that
verdicts, counts and report bytes agree, and prints per-layer calls and self
time plus the tracing overhead. ``all`` runs every workload both ways and
then the cross-check against the ROADMAP baseline and the known-defect
probes of ``defects.py``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The package is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import common
import defects
import workloads
from common import metric, say

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
# ROADMAP baseline, measured at re-anchor on 2 cores.
REANCHOR = {
    "apply_channel attenuator per state": (23.0, "ms"),
    "apply_channel amplifier per state": (27.0, "ms"),
    "apply_channel classical_noise per state": (74.0, "ms"),
    "normalizer": (1.7, "s"),
    "egain gain": (0.38, "s"),
    "egain classical --k 14": (4.7, "s"),
}
LAYER_PREFIXES = {
    "phase-space": ("fock.", "classical."),
    "classical-xor": ("symplectic.", "gaussian.", "channels.", "fock."),
}


def probe(workload: str, import_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(common.BENCH_DIR, "probe.py"), workload]
    if import_only:
        cmd.append("--import-only")
    proc = subprocess.run(
        cmd, env=common.child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(name, m, setup, rss_children) -> dict:
    lat, norm = m.latencies, m.norm_latencies
    n = len(lat)
    metrics = {
        "setup_s": metric(common.median(setup), "s"),
        "run_ref": metric(common.median(m.round_norms), "ref"),
        "ops_per_ref": metric(n / sum(m.round_norms), "1/ref"),
        "op_p50_ref": metric(common.median(norm), "ref"),
        "peak_rss_mb": metric(common.peak_rss_mb(rss_children), "MB"),
    }
    rounds = len(m.rounds)
    what = "import egain" if name == "cli-oneshot" else "import egain + program set-up"
    say(f"1 ref = one run of the {name} reference kernel, median {1e3 * common.median(m.round_refs):.2f} ms here")
    say(f"setup_s      {metrics['setup_s']['value']:10.4f} s      median of {len(setup)} fresh processes ({what})")
    say(
        f"run_ref      {metrics['run_ref']['value']:10.3f} ref    median of {rounds} rounds of {n // rounds} ops"
        f"  (wall run_s {common.median(m.round_times):.4f} s)"
    )
    say(
        f"ops_per_ref  {metrics['ops_per_ref']['value']:10.4f} 1/ref  {n} ops"
        f"  (wall ops_per_s {n / sum(m.round_times):.3f} 1/s)"
    )
    say(
        f"op_p50_ref   {metrics['op_p50_ref']['value']:10.4f} ref    n={n}"
        f"  (wall op_ms_p50 {1e3 * common.median(lat):.3f} ms)"
    )
    tail = common.tail_percentile(n)
    if tail is not None and tail > 50:
        say(
            f"op_p{tail:g}_ref   {common.percentile(norm, tail):10.4f} ref    n={n}, "
            f"{common.samples_beyond(n, tail)} beyond  (wall {1e3 * common.percentile(lat, tail):.3f} ms)"
        )
    else:
        say(f"op latency tail: not reported, {n} ops leave fewer than 10 beyond p75")
    who = "largest child" if rss_children else "this process"
    say(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:10.1f} MB     {who}")
    return metrics


def per_layer(name, wl, tracer, timed_from, base, m, probes) -> dict:
    import spans
    import wl_fock

    if name == "cli-oneshot":
        table, counts = wl.layers, wl.counts
        imports = wl.import_s or [p["import_s"] for p in probes]
        contract = wl.in_contract / wl.invocations
    else:
        table, counts = spans.aggregate(tracer.spans), tracer.counts
        imports = [p["import_s"] for p in probes]
        contract = 0.0
    metrics = {}
    for span_name in spans.SPAN_NAMES:
        calls, own = table.get(span_name, (0, 0.0))
        metrics[f"{span_name}.calls"] = metric(calls, "count")
        metrics[f"{span_name}.self_s"] = metric(own, "s")
    for key, unit in (
        ("channels.gain_beta_sweep.grid_points", "count"),
        *((f"fock.kraus_operators.{kind}", "count") for kind in spans.DILATION_KINDS),
        ("fock.apply_channel.flops_computed", "flop"),
        ("fock.kraus_bytes_computed", "B"),
        ("matio.bytes_written", "B"),
    ):
        metrics[key] = metric(counts.get(key, 0.0), unit)
    trials = sum(r.trials for r in m.rounds)
    reliable = sum(r.reliable for r in m.rounds)
    metrics["fock.reliable_ratio"] = metric(reliable / trials if trials else 0.0, "ratio")
    timed_spans = tracer.spans[timed_from:]
    state_ms = wl_fock.per_state_apply_ms(timed_spans, spans.self_times(timed_spans))
    for kind in spans.DILATION_KINDS:
        metrics[f"fock.apply_channel.state_ms.{kind}"] = metric(state_ms[kind], "ms")
    metrics["cli.import_s"] = metric(common.median(imports), "s")
    for sub in spans.CLI_SUBCOMMANDS:
        metrics[f"cli.main.{sub}.self_s"] = metric(table.get(f"cli.main.{sub}", (0, 0.0))[1], "s")
    metrics["cli.exit_contract_ratio"] = metric(contract, "ratio")
    overhead = common.median(m.round_times) - common.median(base.round_times)
    metrics["trace.overhead_s"] = metric(overhead, "s")

    say(f"{'layer function':48s} {'calls':>9s} {'self_s':>10s}")
    for span_name in (*spans.SPAN_NAMES, *(f"cli.main.{s}" for s in spans.CLI_SUBCOMMANDS)):
        calls, own = table.get(span_name, (0, 0.0))
        if calls:
            say(f"{span_name:48s} {calls:9d} {own:10.4f}")
    for key in sorted(metrics):
        if not key.endswith((".calls", ".self_s")) and metrics[key]["value"]:
            say(f"{key:48s} {metrics[key]['value']:.6g} {metrics[key]['unit']}")
    say(
        f"tracing overhead: traced run_s {common.median(m.round_times):.4f} s - untraced "
        f"{common.median(base.round_times):.4f} s = {overhead:+.4f} s over {len(m.rounds)} rounds; "
        f"in reference units {common.median(m.round_norms) - common.median(base.round_norms):+.4f} ref"
    )
    load_checks(name, table, timed_spans, imports)
    return metrics


def load_checks(name, table, timed_spans, imports) -> None:
    """Confirm from the trace that the workload loads the layer it claims."""
    import spans

    if name == "fock-campaign":
        totals = spans.aggregate(timed_spans)
        share = totals.get("fock.apply_channel", (0, 0.0))[1] / sum(v[1] for v in totals.values())
        say(f"load check: fock.apply_channel is {100 * share:.1f}% of traced self time (claim >= 90%)")
    elif name in LAYER_PREFIXES:
        prefixes = LAYER_PREFIXES[name]
        calls = sum(v[0] for k, v in table.items() if k.startswith(prefixes))
        say(f"load check: {calls} calls into {', '.join(p[:-1] for p in prefixes)} (claim 0)")
    else:
        say(f"load check: cli.import_s {common.median(imports):.4f} s, median of {len(imports)} fresh imports")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    common.use_checkout_sources()
    probes = [probe(name, trace or name == "cli-oneshot") for _ in range(SETUP_SAMPLES)]
    import egain  # noqa: F401
    import reference
    import spans

    module = workloads.MODULES[name]
    ref_kernel = functools.partial(reference.seconds, name)
    say(f"== {name}  seed {seed}  trace {int(trace)}  seconds {seconds:g}  (closed loop, one caller)")
    say("env " + " ".join(f"{k}={v}" for k, v in common.environment().items()))
    tracer = spans.Tracer()
    if trace:
        tracer.op = "setup"
        with spans.installed(tracer):
            state = module.setup()
    else:
        state = module.setup()
    workdir = None
    try:
        if name == "cli-oneshot":
            scratch = os.path.join(common.ROOT, ".perfbench_work")
            os.makedirs(scratch, exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
            wl = module.Workload(seed, state, workdir)
        else:
            wl = module.Workload(seed, state)
        ref_kernel()  # the first call may pay one-time library start-up
        if not trace:
            m = common.measure(wl.make_inputs, wl.run_round, ref_kernel, seconds)
            metrics = end_to_end(name, m, [p["setup_s"] for p in probes], name == "cli-oneshot")
            wrong = m.wrong
        else:
            base = common.measure(wl.make_inputs, wl.run_round, ref_kernel, seconds / 2)
            timed_from = len(tracer.spans)
            with spans.installed(tracer):
                m = common.measure(
                    wl.make_inputs,
                    lambda inputs, meter: wl.run_round(inputs, meter, tracer),
                    ref_kernel,
                    seconds,
                    rounds=len(base.rounds),
                )
            wrong = base.wrong + m.wrong
            if base.digest != m.digest:
                wrong.append("traced and untraced runs disagree on verdicts, counts or report bytes")
            else:
                say(f"traced and untraced passes agree on all {len(m.rounds)} rounds")
            metrics = per_layer(name, wl, tracer, timed_from, base, m, probes)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass
    report_outcome(m, wrong)
    common.print_result(not wrong, m.attempted, m.failed, metrics)


def report_outcome(m, wrong) -> None:
    n = m.attempted
    say(f"failed_fraction {m.failed}/{n} = {m.failed / n:.4g}  (raised, refused, crashed or wrong)")
    trials = sum(r.trials for r in m.rounds)
    if trials:
        unreliable = trials - sum(r.reliable for r in m.rounds)
        say(f"unreliable_fraction {unreliable}/{trials} = {unreliable / trials:.4g}")
    for note in sorted(set(m.notes)):
        say(f"  failed: {note}")
    for item in sorted(set(wrong)):
        say(f"  WRONG: {item}")
    say(f"verdict: {'correct' if not wrong else 'INCORRECT'}")


def fresh_cli_seconds(argv, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "egain", *argv],
            env=common.child_env(),
            capture_output=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return common.median(times)


def run_all(seed: int, seconds: float) -> int:
    common.use_checkout_sources()
    results = {}
    for name in workloads.MODULES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", f"{seconds:g}", "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                say(line)
            results[name, trace] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            say()
    say("== cross-check against the ROADMAP re-anchor table")
    fock = results.get(("fock-campaign", 1)) or {"metrics": {}}
    classical = results.get(("classical-xor", 1)) or {"metrics": {}}
    measured = {
        f"apply_channel {kind} per state": fock["metrics"].get(f"fock.apply_channel.state_ms.{kind}", {}).get("value")
        for kind in ("attenuator", "amplifier", "classical_noise")
    }
    measured["normalizer"] = classical["metrics"].get("classical.normalizer.self_s", {}).get("value")
    measured["egain gain"] = fresh_cli_seconds(["gain", "--preset", "attenuator", "--k", "0.5"], 5)
    measured["egain classical --k 14"] = fresh_cli_seconds(["classical", "--k", "14"], 1)
    for key, (then, unit) in REANCHOR.items():
        now = measured.get(key)
        shown = "n/a" if now is None else f"{now:.3f} {unit} ({now / then - 1:+.0%})"
        say(f"{key:42s} re-anchor {then:g} {unit:3s} here {shown}")
    say("== known defects, outside the workloads (defects.py)")
    scratch = os.path.join(common.ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="defects-", dir=scratch)
    try:
        known = defects.probe_all(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for key, shows in known.items():
        say(f"{key}: {'still fails: ' + shows if shows else 'no longer fails'}")
    ok = all(r is not None and r["correct"] for r in results.values())
    say(f"all workloads: {'correct' if ok else 'INCORRECT or missing'}")
    summary = {f"{n}/trace{t}": (r["correct"], r["attempted"], r["failed"]) if r else None for (n, t), r in results.items()}
    print(json.dumps({"correct": ok, "runs": summary, "crosscheck": measured, "known_defects": known}), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.MODULES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
