"""Run one egain CLI invocation with the timing wrappers installed.

Usage: python3 perfbench/launcher.py SPANS_JSON OP -- <egain arguments>

Behaves like ``python -m egain <arguments>`` (same exit code, same output,
same traceback on a crash) and, whatever happens, writes the fresh-process
import time, the spans and the counts to SPANS_JSON.
"""

import json
import sys
import time

import common

if __name__ == "__main__":
    spans_path, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_JSON OP -- <egain arguments>")
    common.use_checkout_sources()
    t0 = time.perf_counter()
    import egain.cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.op = op
    spans.install(tracer)
    try:
        with tracer.span(f"cli.main.{argv[0] if argv else 'none'}"):
            code = egain.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    sys.exit(code)
