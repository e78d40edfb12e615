"""Known defects of the package, probed outside the timed workloads.

The workloads are chosen so that no op fails, which keeps ``failed`` at 0
and makes any failure news. These inputs fail on the package as it is; the
probes here rerun them so that ``run.py --workload all`` shows whether each
defect still reproduces.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from common import child_env, regular_noise

TINY_BETA_MIN = ["sweep", "--preset", "attenuator", "--k", "0.5", "--beta-min", "1e-300"]


def cli_tiny_beta_min(workdir: str):
    """Valid input that should give an answer or exit 2; None when it does."""
    proc = subprocess.run(
        [sys.executable, "-m", "egain", *TINY_BETA_MIN],
        cwd=workdir, env=child_env(), capture_output=True, timeout=120,
    )
    traceback = b"Traceback (most recent call last)" in proc.stderr
    if proc.returncode in (0, 2, 3, 4) and not traceback:
        return None
    return f"exit {proc.returncode}{' with a traceback' if traceback else ''}"


def near_singular_sweep():
    """Adaptive sweep of a 2-mode channel with sigma_min(K) = 1e-4; None when it converges."""
    from egain import channels, gaussian
    from egain.symplectic import canonical_form

    rng = np.random.default_rng(0x5ED)
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    K = q1 @ np.diag(np.geomspace(2.0, 1e-4, 4)) @ q2.T
    A = rng.normal(size=(4, 4)) * 0.5
    space = canonical_form(2)
    channel = channels.make_channel(K, regular_noise(K, 2), space)
    ham = gaussian.quadratic_hamiltonian(space, A @ A.T + 0.1 * np.eye(4))
    try:
        report = channels.gain_beta_sweep(channel, ham)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if not report.converged:
        return "did not converge above the beta floor"
    if np.any(report.gains < report.closed_form - 1e-9):
        return "a Gibbs gain lies below the closed-form minimum"
    return None


def probe_all(workdir: str) -> dict:
    """Each defect's name and how it shows now, or None once it is gone."""
    return {
        "egain " + " ".join(TINY_BETA_MIN): cli_tiny_beta_min(workdir),
        "gain_beta_sweep, sigma_min(K) = 1e-4": near_singular_sweep(),
    }
