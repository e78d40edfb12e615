"""Workload registry, in the order the benchmark runs them."""

import wl_classical
import wl_cli
import wl_fock
import wl_phase

MODULES = {
    "fock-campaign": wl_fock,
    "phase-space": wl_phase,
    "classical-xor": wl_classical,
    "cli-oneshot": wl_cli,
}
