"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy.linalg

from egain.matio import encode_array, write_json
from egain.symplectic import canonical_form


def random_symplectic(space, rng, scale=0.5):
    """Random symplectic matrix exp(delta @ A) for symmetric Gaussian A.

    ``scale`` sets the entry scale of A and thereby the squeezing strength.
    """
    n = 2 * space.s
    A = rng.normal(scale=scale, size=(n, n))
    A = 0.5 * (A + A.T)
    return scipy.linalg.expm(space.delta @ A)


def save_matrix(path, arr):
    """Write a matrix file in the format ``matio.load_matrix`` reads."""
    write_json(path, encode_array(arr))


def random_covariance(rng, modes, nu_min=0.6, nu_max=3.0, scale=0.4):
    """Random nondegenerate admissible covariance with a known normal form.

    Symplectic congruence preserves the symplectic spectrum, so conjugating
    a direct sum of thermal blocks by a random symplectic yields a
    covariance whose exact symplectic eigenvalues are the drawn nu values.
    Returns (alpha, nu_descending).
    """
    space = canonical_form(modes)
    nus = np.sort(rng.uniform(nu_min, nu_max, size=modes))[::-1]
    T = random_symplectic(space, rng, scale=scale)
    alpha = T @ np.diag(np.repeat(nus, 2)) @ T.T
    return 0.5 * (alpha + alpha.T), nus


def squeezed_covariance(nu, r, theta=0.0):
    """One-mode covariance nu R diag(e^2r, e^-2r) R^T, R the rotation by theta.

    Its symplectic eigenvalue is nu, so nu = 1/2 is a pure squeezed vacuum
    and nu < 1/2 violates the uncertainty bound at every squeezing r.
    """
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    alpha = nu * R @ np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) @ R.T
    return 0.5 * (alpha + alpha.T)


# inadmissible squeezed states that a certificate scaled by the spectral
# radius of alpha + (i/2) delta accepted at r = 5
BELOW_THE_BOUND = [(nu, r) for nu in (0.4999, 0.49, 0.45) for r in (3, 4, 5)]


def random_spd(rng, dim, scale=0.5):
    """Random symmetric positive definite matrix with eigenvalues >= 0.1."""
    A = rng.normal(size=(dim, dim)) * scale
    return A @ A.T + 0.1 * np.eye(dim)


def random_regular_channel(rng, modes, tol=1e-9):
    """Random admissible regular channel (K, mu) with generous noise."""
    from egain.channels import make_channel

    space = canonical_form(modes)
    K = rng.normal(size=(2 * modes, 2 * modes))
    # K from a continuous distribution is invertible almost surely; the
    # noise is sized well above the positivity bound so the cert is strict.
    gap = space.delta - K.T @ space.delta @ K
    mu = (0.6 * np.linalg.norm(gap, 2) + 0.5) * np.eye(2 * modes)
    return make_channel(K, mu, space, tol=tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def count_eigensolves(monkeypatch):
    """List that gains the solver's name at each np.linalg.eigh, eigvalsh or cholesky call.

    Stacked calls count once. Clear the list to start a new count.
    """
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
