"""Gaussian states, Gibbs states of quadratic Hamiltonians, and entropies.

Entropies are in nats. A Gaussian state with symplectic eigenvalues nu_j
has von Neumann entropy sum_j g(nu_j) with

    g(nu) = (nu + 1/2) log(nu + 1/2) - (nu - 1/2) log(nu - 1/2),

continuously extended by g(1/2) = 0. The Gibbs state of the Hamiltonian
built from a symmetric positive definite matrix ``epsilon`` at inverse
temperature ``beta`` has covariance determined by

    2 delta^-1 alpha_beta = cot(beta epsilon delta),

and log-partition function c(beta) = 1/2 sum_j log(nu_j^2 - 1/4) over the
symplectic eigenvalues of alpha_beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleInputError
from .symplectic import (
    DEFAULT_TOL,
    HermitianCert,
    PhaseSpace,
    check_hermitian_psd,
    _require_symmetric,
    _sym_sqrt,
    symplectic_eigenvalues,
)

__all__ = [
    "GaussianState",
    "QuadraticHamiltonian",
    "GibbsState",
    "gaussian_state",
    "vacuum_state",
    "quadratic_hamiltonian",
    "gibbs_covariance",
    "log_partition",
    "gibbs_state",
    "mode_entropy",
    "entropy_of_covariance",
    "gaussian_entropy",
    "entropy_matrix_form",
    "gaussify",
    "mean_energy",
]


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state given by mean vector, covariance and its admissibility cert."""

    space: PhaseSpace
    mean: np.ndarray
    alpha: np.ndarray
    cert: HermitianCert

    @property
    def nondegenerate(self) -> bool:
        """True iff alpha - (i/2) delta is positive definite.

        The matrices alpha +/- (i/2) delta are complex conjugates of each
        other, hence share their (real) spectrum; one certificate covers
        both signs.
        """
        return self.cert.is_positive_definite


def gaussian_state(
    space: PhaseSpace,
    mean: np.ndarray,
    alpha: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> GaussianState:
    """Validate moments and assemble a Gaussian state.

    Rejects covariances for which alpha + (i/2) delta is indefinite.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (2 * space.s,):
        raise InadmissibleInputError(
            f"mean must have length {2 * space.s}, got shape {mean.shape}"
        )
    alpha = _require_symmetric(alpha, space, tol)
    cert = check_hermitian_psd(alpha + 0.5j * space.delta, tol)
    if not cert.is_positive_semidefinite:
        raise InadmissibleInputError(
            "covariance fails the uncertainty bound: min eigenvalue of "
            f"alpha + (i/2) delta is {cert.min_eigenvalue:.3e}"
        )
    return GaussianState(space=space, mean=mean, alpha=alpha, cert=cert)


def vacuum_state(space: PhaseSpace) -> GaussianState:
    """Gaussian state with zero mean and covariance identity/2."""
    n = 2 * space.s
    return gaussian_state(space, np.zeros(n), 0.5 * np.eye(n))


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Positive definite quadratic Hamiltonian, represented by its matrix."""

    space: PhaseSpace
    epsilon: np.ndarray


def quadratic_hamiltonian(
    space: PhaseSpace, epsilon: np.ndarray, tol: float = DEFAULT_TOL
) -> QuadraticHamiltonian:
    epsilon = _require_symmetric(epsilon, space, tol)
    w = np.linalg.eigvalsh(epsilon)
    if w[0] <= tol * max(1.0, w[-1]):
        raise InadmissibleInputError(
            f"Hamiltonian matrix must be positive definite (min eigenvalue {w[0]:.3e})"
        )
    return QuadraticHamiltonian(space=space, epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class GibbsState:
    """Gibbs state of a quadratic Hamiltonian at inverse temperature beta."""

    base: GaussianState
    beta: float
    hamiltonian: QuadraticHamiltonian
    c_beta: float


def _stable_cot(z: np.ndarray) -> np.ndarray:
    """cot(z) = i (1 + 2 / expm1(2iz)) for complex z, stable in either half plane.

    The sign is chosen so that |exp(+-2iz)| <= 1, and expm1 keeps the
    denominator accurate at small |z|, where exp(2iz) - 1 would cancel.
    """
    z = np.asarray(z, dtype=complex)
    sign = np.where(z.imag >= 0, 1.0, -1.0)
    return sign * 1j * (1.0 + 2.0 / np.expm1(sign * 2j * z))


def gibbs_covariance(
    hamiltonian: QuadraticHamiltonian, beta: float, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Covariance of the Gibbs state: alpha_beta = (1/2) delta cot(beta epsilon delta).

    The matrix cotangent is evaluated by diagonalizing epsilon @ delta over
    the complex numbers and applying the scalar cotangent to its (purely
    imaginary) spectrum. For numerical stability the eigenproblem is solved
    in the Hermitian form i epsilon^(1/2) delta epsilon^(1/2), which is
    similar to i epsilon delta.
    """
    if not beta > 0:
        raise InadmissibleInputError("beta must be positive")
    space = hamiltonian.space
    delta = space.delta
    root, inv_root = _sym_sqrt(hamiltonian.epsilon, tol)
    herm = 1j * (root @ delta @ root)
    w, U = np.linalg.eigh(herm)
    # |w| are the normal-mode frequencies m and alpha grows like 1/(2 beta m);
    # the checks below square its entries, which overflows near beta m = 1e-154
    # for epsilon = I, so refuse well before, leaving room for ill-conditioning
    if beta * np.abs(w).min() < 1e-100:
        raise InadmissibleInputError(
            f"beta = {beta:.3g} is too small: the Gibbs covariance would overflow"
        )
    # epsilon @ delta = root @ (-i herm) @ inv_root has eigenvalues -i w.
    cot_vals = _stable_cot(-1j * beta * w)
    cot_core = (U * cot_vals) @ U.conj().T
    cot_mat = root @ cot_core @ inv_root
    alpha = 0.5 * (delta @ cot_mat)
    scale = max(1.0, np.abs(alpha).max())
    resid = np.abs(alpha.imag).max()
    if resid > 1e-9 * scale:
        raise RuntimeError(f"matrix cotangent has imaginary residue {resid:.3e}")
    alpha = alpha.real
    asym = np.abs(alpha - alpha.T).max()
    if asym > 1e-9 * scale:
        raise RuntimeError(f"matrix cotangent result asymmetric by {asym:.3e}")
    alpha = 0.5 * (alpha + alpha.T)
    nu = symplectic_eigenvalues(alpha, space, tol)
    # The exact result is nondegenerate for every beta > 0; in floating point
    # coth saturates for very large beta and nu rounds down to exactly 1/2,
    # so only genuine admissibility failures are treated as errors here.
    if nu[-1] < 0.5 - tol * max(1.0, nu[0]):
        raise RuntimeError(
            f"Gibbs covariance left the admissible cone, min nu {nu[-1]:.6e}"
        )
    return alpha


def log_partition(
    hamiltonian: QuadraticHamiltonian, beta: float, tol: float = DEFAULT_TOL
) -> float:
    """log of the partition function: c(beta) = 1/2 sum_j log(nu_j^2 - 1/4).

    The Gibbs covariance has symplectic eigenvalues nu_j = coth(beta m_j)/2
    over the normal-mode frequencies m_j (the symplectic eigenvalues of
    epsilon), so the sum equals -sum_j log(2 sinh(beta m_j)). The latter form
    is used because it stays finite in floating point when beta m_j is large
    enough for coth to saturate at 1.
    """
    if not beta > 0:
        raise InadmissibleInputError("beta must be positive")
    m = symplectic_eigenvalues(hamiltonian.epsilon, hamiltonian.space, tol)
    x = beta * m
    # log(2 sinh x) = x + log(1 - exp(-2x)), stable for all x > 0
    return float(-np.sum(x + np.log(-np.expm1(-2.0 * x))))


def gibbs_state(
    hamiltonian: QuadraticHamiltonian, beta: float, tol: float = DEFAULT_TOL
) -> GibbsState:
    """Assemble the Gibbs state (zero mean) with its log-partition value."""
    alpha = gibbs_covariance(hamiltonian, beta, tol)
    c_beta = log_partition(hamiltonian, beta, tol)
    base = gaussian_state(hamiltonian.space, np.zeros(2 * hamiltonian.space.s), alpha, tol)
    return GibbsState(base=base, beta=float(beta), hamiltonian=hamiltonian, c_beta=c_beta)


def mode_entropy(nu) -> np.ndarray:
    """Single-mode entropy g(nu), continuously extended by g(1/2) = 0."""
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0.5 - 1e-9):
        raise InadmissibleInputError(f"symplectic eigenvalues must be >= 1/2, got {nu}")
    # with x = nu - 1/2, g = log1p(x) + x log1p(1/x): two nonnegative terms,
    # so nothing cancels for x near 0 or for the large x of small beta
    x = np.maximum(nu - 0.5, 0.0)
    return np.log1p(x) + x * np.log1p(1.0 / np.where(x > 0.0, x, 1.0))


def entropy_of_covariance(
    alpha: np.ndarray, space: PhaseSpace, tol: float = DEFAULT_TOL
) -> float:
    """Entropy of the Gaussian state with the given covariance, in nats."""
    nu = symplectic_eigenvalues(alpha, space, tol)
    return float(np.sum(mode_entropy(nu)))


def gaussian_entropy(state: GaussianState, tol: float = DEFAULT_TOL) -> float:
    """von Neumann entropy of a Gaussian state (mean plays no role)."""
    return entropy_of_covariance(state.alpha, state.space, tol)


def entropy_matrix_form(
    alpha: np.ndarray, space: PhaseSpace, tol: float = DEFAULT_TOL
) -> float:
    """Entropy as a matrix function, an independent verification path.

    Evaluates

        1/2 log det(delta^-1 alpha - (i/2) I) + tr[(delta^-1 alpha) arccot(2 delta^-1 alpha)]

    with arccot(z) = arctan(1/z) on the principal branch, via a complex
    eigendecomposition. Requires a nondegenerate covariance; degenerate
    modes make the arccot term singular.
    """
    alpha = _require_symmetric(alpha, space, tol)
    n = 2 * space.s
    W = -(space.delta @ alpha)  # delta^-1 = -delta
    lam, V = np.linalg.eig(W)
    if np.any(np.abs(lam) <= 0.5 + 1e-12):
        raise InadmissibleInputError(
            "matrix-function entropy requires a nondegenerate covariance"
        )
    arccot = np.arctan(1.0 / (2.0 * lam))
    f = (V * arccot) @ np.linalg.inv(V)
    term2 = np.trace(W @ f)
    sign, logabs = np.linalg.slogdet(W - 0.5j * np.eye(n))
    if abs(sign - 1.0) > 1e-6:
        raise RuntimeError(f"determinant in entropy formula not real positive: {sign}")
    if abs(term2.imag) > 1e-9 * max(1.0, abs(term2.real)):
        raise RuntimeError(f"trace term has imaginary residue {term2.imag:.3e}")
    return float(0.5 * logabs + term2.real)


def gaussify(
    space: PhaseSpace,
    mean: np.ndarray,
    second_moments: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> GaussianState:
    """Gaussian state matching the given first and symmetrized second moments.

    The covariance is second_moments minus the (symmetric) outer product of
    the mean with itself.
    """
    mean = np.asarray(mean, dtype=float)
    outer = np.outer(mean, mean)
    alpha = np.asarray(second_moments, dtype=float) - 0.5 * (outer + outer.T)
    return gaussian_state(space, mean, alpha, tol)


def mean_energy(hamiltonian: QuadraticHamiltonian, state: GaussianState) -> float:
    """Expectation of the quadratic Hamiltonian: tr(epsilon alpha) + m.eps.m."""
    alpha_part = float(np.trace(hamiltonian.epsilon @ state.alpha))
    mean_part = float(state.mean @ hamiltonian.epsilon @ state.mean)
    return alpha_part + mean_part
