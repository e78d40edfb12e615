"""Fixed reference kernels, one per workload, timed next to every round.

The host this benchmark was built on changes speed by up to a third within
a minute, so a wall time alone does not compare two runs. Each kernel below
does the same kind of work as its workload (small dense eigensolves, stacked
complex products, uint32 scans, a fresh interpreter) with numpy alone, never
egain, so it is identical on every commit. Dividing a round's wall time by
the kernel's time measured around it cancels most of the host's drift.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_rng = np.random.default_rng(20261017)
_SMALL = [(_rng.normal(size=(n, n)), _rng.normal(size=(n, n))) for n in (2, 4, 6, 8, 10, 12)]
_SMALL = [(a + a.T, (b - b.T) * 1j + np.diag(np.arange(1.0, len(b) + 1.0))) for a, b in _SMALL]
_KRAUS = [_rng.normal(size=(60, 60)) + 1j * _rng.normal(size=(60, 60)) for _ in range(60)]
_RHO = _rng.normal(size=(60, 60)) + 1j * _rng.normal(size=(60, 60))
_RHO = _RHO @ _RHO.conj().T
_T = np.arange(1 << 13, dtype=np.uint32)


def _dense_small():
    for _ in range(40):
        for sym, herm in _SMALL:
            w, v = np.linalg.eigh(sym)
            np.linalg.eigvalsh(herm)
            np.allclose(v @ v.T, np.eye(len(w)))


def _stacked_products():
    for _ in range(2):
        stack = np.stack(_KRAUS)
        moved = stack @ _RHO
        np.linalg.eigvalsh(np.einsum("aij,akj->ik", moved, stack.conj()))


def _uint_scans():
    seen = np.zeros(_T.size, dtype=np.uint32)
    for c in range(1024):
        v = np.uint32(c) ^ _T
        seen[v] = c + 1
        np.all(seen == c + 1)


def _fresh_interpreter():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)


KERNELS = {
    "fock-campaign": _stacked_products,
    "phase-space": _dense_small,
    "classical-xor": _uint_scans,
    "cli-oneshot": _fresh_interpreter,
}


def seconds(workload: str) -> float:
    """Wall time of one run of the workload's reference kernel."""
    kernel = KERNELS[workload]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
