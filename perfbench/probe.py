"""Time ``import egain`` and a workload's program set-up in a fresh process.

Usage: python3 perfbench/probe.py WORKLOAD [--import-only]

Prints one JSON object with ``import_s`` and ``setup_s`` (import included).
"""

import json
import sys
import time

import common

if __name__ == "__main__":
    workload = sys.argv[1]
    common.use_checkout_sources()
    t0 = time.perf_counter()
    import egain  # noqa: F401

    import_s = time.perf_counter() - t0
    setup_s = import_s
    if "--import-only" not in sys.argv[2:]:
        import workloads

        setup = workloads.MODULES[workload].setup
        t1 = time.perf_counter()
        setup()
        setup_s += time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
