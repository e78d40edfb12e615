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

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .errors import InadmissibleInputError
from .records import ByIdentity, _refuse
from .symplectic import (
    DEFAULT_TOL,
    HermitianCert,
    PhaseSpace,
    _certified,
    _factor,
    _ROUNDING,
    _require_symmetric,
    _spectrum_from_factor,
    _uncertainty_cert,
    symplectic_eigenvalues,  # noqa: F401  (perfbench/tests reads it from this module)
)

__all__ = [
    "GaussianState",
    "QuadraticHamiltonian",
    "GibbsState",
    "gaussian_state",
    "quadratic_hamiltonian",
    "gibbs_covariance",
    "log_partition",
    "gibbs_state",
    "mode_entropy",
    "entropy_of_covariance",
    "gaussian_entropy",
    "entropy_matrix_form",
    "mean_energy",
]


class GaussianState(ByIdentity, namedtuple("GaussianState", "space mean alpha cert nu")):
    """Gaussian state given by mean vector, covariance and its admissibility cert.

    ``nu`` holds the symplectic eigenvalues of ``alpha`` (descending), kept
    from validation so the entropy needs no eigensolve; ``alpha`` is
    read-only so that they cannot go stale.
    """

    __slots__ = ()
    space: PhaseSpace
    mean: np.ndarray
    alpha: np.ndarray
    cert: HermitianCert
    nu: np.ndarray

    @property
    def nondegenerate(self) -> bool:
        """True iff alpha +/- (i/2) delta is positive definite: nu_min - 1/2 > tolerance."""
        return self.cert.is_positive_definite


def gaussian_state(space: PhaseSpace, mean: np.ndarray, alpha: np.ndarray) -> GaussianState:
    """Validate moments and assemble a Gaussian state with its symplectic spectrum.

    Rejects a mean with an entry that is not a finite number, and a
    covariance for which alpha + (i/2) delta is indefinite or whose verdict
    its conditioning leaves undecidable. alpha becomes read-only.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (2 * space.s,):
        raise InadmissibleInputError(
            f"mean must have length {2 * space.s}, got shape {mean.shape}"
        )
    if not all(map(math.isfinite, mean.tolist())):
        raise InadmissibleInputError("mean has an entry that is not a finite number")
    alpha, nu, cert = _covariance(alpha, space)
    alpha.flags.writeable = False
    return GaussianState(space=space, mean=mean, alpha=alpha, cert=cert, nu=nu)


def _covariance(alpha: np.ndarray, space: PhaseSpace):
    """alpha made exactly symmetric, with the spectrum and certificate it is admitted by, or refused."""
    alpha = _require_symmetric(alpha, space, DEFAULT_TOL)
    return (alpha, *_certified(alpha, space, "covariance matrix"))


class QuadraticHamiltonian(
    ByIdentity, namedtuple("QuadraticHamiltonian", "space epsilon factor inv_factor w U U_H least_frequency")
):
    """Positive definite quadratic Hamiltonian, with its normal modes solved once.

    ``factor`` is the Cholesky factor L of the read-only ``epsilon``
    (epsilon = L L^T) and ``inv_factor`` is L^-1. ``w``, ``U`` are the
    eigenpairs of the Hermitian matrix i L^T delta L, whose eigenvalues are
    the normal-mode frequencies +-m_j. The beta-independent pieces of every
    Gibbs state are solved once too: ``U_H`` is U^H, ``least_frequency`` is
    min |w|, and ``frequencies`` holds the m_j, descending, on first use, read
    off ``factor`` as ``symplectic_eigenvalues(epsilon)`` gives them.
    """

    space: PhaseSpace
    epsilon: np.ndarray
    factor: np.ndarray
    inv_factor: np.ndarray
    w: np.ndarray
    U: np.ndarray
    U_H: np.ndarray
    least_frequency: float

    @cached_property
    def frequencies(self) -> np.ndarray:
        return _spectrum_from_factor(self.factor, self.space)


def quadratic_hamiltonian(
    space: PhaseSpace, epsilon: np.ndarray, tol: float = DEFAULT_TOL
) -> QuadraticHamiltonian:
    """Validate epsilon and solve its normal modes for every later use."""
    epsilon = _require_symmetric(epsilon, space, tol, "Hamiltonian matrix")
    factor = _factor(epsilon, "Hamiltonian matrix")
    w, U = np.linalg.eigh(1j * (factor.T @ space.delta @ factor))
    epsilon.flags.writeable = False
    return QuadraticHamiltonian(
        space, epsilon, factor, np.linalg.inv(factor), w, U, U.conj().T, float(abs(w).min())
    )


class GibbsState(ByIdentity, namedtuple("GibbsState", "base beta hamiltonian c_beta")):
    """Gibbs state of a quadratic Hamiltonian at inverse temperature beta."""

    __slots__ = ()
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


def gibbs_covariance(hamiltonian: QuadraticHamiltonian, beta: float) -> np.ndarray:
    """Covariance of the Gibbs state: alpha_beta = (1/2) delta cot(beta epsilon delta).

    The matrix cotangent is evaluated by diagonalizing epsilon @ delta over
    the complex numbers and applying the scalar cotangent to its (purely
    imaginary) spectrum. For numerical stability the eigenproblem is solved
    in the Hermitian form i L^T delta L, L the Cholesky factor of epsilon,
    which is similar to i epsilon delta = L (i L^T delta L) L^-1, once when
    the Hamiltonian is built. A covariance whose admissibility its
    conditioning leaves undecidable is refused (see ``gaussian_state``).
    """
    return _gibbs_covariances(hamiltonian, beta)[0]


def _gibbs_covariances(hamiltonian: QuadraticHamiltonian, betas):
    """Gibbs covariances at each beta (a scalar or a 1-d stack) and their symplectic spectra.

    The spectra are those the covariances are certified by (``_certified``),
    returned so that an entropy of the same covariances need not solve for
    them again.
    """
    alpha = _gibbs_cotangent(hamiltonian, betas)
    return alpha, _certified(alpha, hamiltonian.space, "Gibbs covariance")[0]


def _gibbs_cotangent(hamiltonian: QuadraticHamiltonian, betas) -> np.ndarray:
    """Gibbs covariances at each beta, not certified; their imaginary residue and asymmetry are refused.

    Both are rounding, refused past 1e-9 max(1, |alpha|). Inputs through ``quadratic_hamiltonian`` reach
    both: L amplifies the rounding for an epsilon whose eigenvalues span some 16 orders of magnitude.
    """
    betas = np.asarray(betas, dtype=float)
    factor, inv_factor = hamiltonian.factor, hamiltonian.inv_factor
    w, U, least = hamiltonian.w, hamiltonian.U, hamiltonian.least_frequency
    # one beta that passes both checks below is let through on Python floats
    one = betas.ndim == 0 and 0 < betas.item() < math.inf and betas.item() * least >= 1e-100
    if not one:  # an infinite beta would make the cotangent's argument nan (inf * 0)
        admissible = (betas > 0) & (betas < math.inf)
        _refuse(~admissible, InadmissibleInputError, "beta must be positive and finite")
        # |w| are the normal-mode frequencies m and alpha grows like 1/(2 beta m);
        # the checks below square its entries, which overflows near beta m = 1e-154
        # for epsilon = I, so refuse well before, leaving room for ill-conditioning
        too_small = "beta = {:.3g} is too small: the Gibbs covariance would overflow"
        _refuse(betas * least < 1e-100, InadmissibleInputError, too_small, betas)
    # with herm = i L^T delta L = U diag(w) U^H, epsilon @ delta =
    # L @ (-i herm) @ L^-1 has eigenvalues -i w.
    cot_vals = _stable_cot(-1j * betas[..., None] * w)
    cot_core = (U * cot_vals[..., None, :]) @ hamiltonian.U_H
    cot_mat = factor @ cot_core @ inv_factor
    alpha = 0.5 * (hamiltonian.space.delta @ cot_mat)
    resid = np.abs(alpha.imag).max(axis=(-2, -1))
    real = alpha.real
    asym = np.abs(real - real.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (resid > 1e-9).any() or (asym > 1e-9).any():  # the scale is >= 1: nothing smaller is refused
        scale = np.maximum(1.0, np.abs(alpha).max(axis=(-2, -1)))
        _refuse(resid > 1e-9 * scale, InadmissibleInputError, "matrix cotangent has imaginary residue {:.3e}", resid)
        _refuse(asym > 1e-9 * scale, InadmissibleInputError, "matrix cotangent result asymmetric by {:.3e}", asym)
    # The exact result is nondegenerate for every beta > 0; in floating point
    # coth saturates for very large beta and nu rounds down to exactly 1/2,
    # which the certificate accepts, so only genuine failures are refused.
    return 0.5 * (real + real.swapaxes(-1, -2))


def log_partition(hamiltonian: QuadraticHamiltonian, beta: float) -> float:
    """log of the partition function: c(beta) = 1/2 sum_j log(nu_j^2 - 1/4).

    The Gibbs covariance has symplectic eigenvalues nu_j = coth(beta m_j)/2
    over the normal-mode frequencies m_j (the symplectic eigenvalues of
    epsilon), so the sum equals -sum_j log(2 sinh(beta m_j)). The latter form
    is used because it stays finite in floating point when beta m_j is large
    enough for coth to saturate at 1.
    """
    if not 0 < beta < math.inf:  # an infinite beta would give c = -inf
        raise InadmissibleInputError("beta must be positive and finite")
    x = beta * hamiltonian.frequencies
    # log(2 sinh x) = x + log(1 - exp(-2x)), stable for all x > 0
    return float(-np.sum(x + np.log(-np.expm1(-2.0 * x))))


def gibbs_state(hamiltonian: QuadraticHamiltonian, beta: float) -> GibbsState:
    """Assemble the Gibbs state (zero mean) with its log-partition value."""
    alpha, nu = _gibbs_covariances(hamiltonian, beta)
    c_beta = log_partition(hamiltonian, beta)
    space = hamiltonian.space
    alpha.flags.writeable = False
    cert = _uncertainty_cert(nu, DEFAULT_TOL)
    base = GaussianState(space, np.zeros(2 * space.s), alpha, cert, nu)
    return GibbsState(base=base, beta=float(beta), hamiltonian=hamiltonian, c_beta=c_beta)


def mode_entropy(nu) -> np.ndarray:
    """Single-mode entropy g(nu), continuously extended by g(1/2) = 0.

    ``nu`` is given from outside and checked: a 2-d ``nu`` holds one
    spectrum per row, each checked on its own, and a nan or an infinity is
    refused as a value below 1/2 is. The package's own entropies read
    certified spectra instead (``_entropies``).
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 1 or not all(0.5 - 1e-9 <= v < math.inf for v in nu.tolist()):  # on floats
        rows = nu if nu.ndim > 1 else nu[None]
        _refuse(
            ~np.all((rows >= 0.5 - 1e-9) & (rows < np.inf), axis=-1),
            InadmissibleInputError,
            "symplectic eigenvalues must be finite and >= 1/2, got {}",
            rows if nu.ndim else nu,  # a 0-d nu has a single flag, and is named whole
        )
    return _g(nu)


def _g(nu: np.ndarray) -> np.ndarray:
    """g(nu) of each entry, with no check: an entry below 1/2 reads as 1/2, so g = 0.

    A deliberate copy of ``fock._g``: the phase-space core computes its own numbers.
    """
    # with x = nu - 1/2, g = log1p(x) + x log1p(1/x): two nonnegative terms,
    # so nothing cancels for x near 0 or for the large x of small beta
    x = np.maximum(nu - 0.5, 0.0)
    return np.log1p(x) + x * np.log1p(1.0 / np.where(x > 0.0, x, 1.0))


def entropy_of_covariance(alpha: np.ndarray, space: PhaseSpace) -> float:
    """Entropy of the Gaussian state with the given covariance, in nats.

    The covariance is refused where ``gaussian_state`` refuses it, and the
    entropy is read off the spectrum it is certified by.
    """
    return float(_entropies(_covariance(alpha, space)[1]))


def _entropies(nu: np.ndarray) -> np.ndarray:
    """Entropy sum_j g(nu_j) of each certified spectrum along the last axis of nu.

    A certified spectrum passes the uncertainty bound within its tolerance,
    so an nu_j below 1/2 is rounding and counts as g(1/2) = 0.
    """
    return np.sum(_g(nu), axis=-1)


def gaussian_entropy(state: GaussianState) -> float:
    """von Neumann entropy of a Gaussian state (mean plays no role)."""
    return float(_entropies(state.nu))


def entropy_matrix_form(alpha: np.ndarray, space: PhaseSpace) -> float:
    """Entropy as a matrix function, an independent verification path.

    Evaluates

        1/2 log det(delta^-1 alpha - (i/2) I) + tr[(delta^-1 alpha) arccot(2 delta^-1 alpha)]

    with arccot(z) = arctan(1/z) on the principal branch, via a complex
    eigendecomposition. Requires a positive-definite, nondegenerate covariance;
    degenerate modes make the arccot term singular. For such alpha the
    eigenvalues of delta^-1 alpha are +-i nu_j, so the determinant is
    prod_j (nu_j^2 - 1/4) > 0 and the trace term is real: the phase and residue
    checks below fail only by rounding, and inputs reach them, so they refuse
    the input as past this route's precision. With alpha = R diag(nu e^r,
    nu e^-r) R^T, R a rotation, a mode near pure (nu = 1/2 + 1e-11, r = 10)
    moves the phase by 1e-4, and r near 19 leaves a residue above 1e-9 through
    the conditioning of the eigenvectors. Milder cases pass both with a wrong value, so the entropy is
    refused where its first-order error u kappa(V) ||W|| / min_j (|lambda_j| - 1/2), in Frobenius
    norms, exceeds 1e-9 max(1, |entropy|). A symmetric matrix that is not
    positive definite, such as diag(1, -1) (determinant -5/4) or -I (which
    would read as I), is refused first.
    """
    alpha = _require_symmetric(alpha, space, DEFAULT_TOL)
    _factor(alpha, "covariance matrix")
    n = 2 * space.s
    W = -(space.delta @ alpha)  # delta^-1 = -delta
    lam, V = np.linalg.eig(W)
    if np.any(np.abs(lam) <= 0.5 + 1e-12):
        raise InadmissibleInputError(
            "matrix-function entropy requires a nondegenerate covariance"
        )
    arccot = np.arctan(1.0 / (2.0 * lam))
    V_inv = np.linalg.inv(V)
    f = (V * arccot) @ V_inv
    term2 = np.trace(W @ f)
    sign, logabs = np.linalg.slogdet(W - 0.5j * np.eye(n))
    if abs(sign - 1.0) > 1e-6:
        raise InadmissibleInputError(
            f"matrix-function entropy cannot resolve this covariance: determinant phase {sign:.3g}, not 1"
        )
    if abs(term2.imag) > 1e-9 * max(1.0, abs(term2.real)):
        raise InadmissibleInputError(
            f"matrix-function entropy cannot resolve this covariance: trace residue {term2.imag:.3e}"
        )
    entropy = float(0.5 * logabs + term2.real)
    error = _ROUNDING * np.linalg.norm(V) * np.linalg.norm(V_inv) * np.linalg.norm(W) / (np.abs(lam).min() - 0.5)
    if error > 1e-9 * max(1.0, abs(entropy)):
        raise InadmissibleInputError(
            f"matrix-function entropy cannot resolve this covariance: error estimate {error:.3e}"
        )
    return entropy


def mean_energy(hamiltonian: QuadraticHamiltonian, state: GaussianState) -> float:
    """Expectation of the quadratic Hamiltonian: tr(epsilon alpha) + m.eps.m."""
    alpha_part = float(np.trace(hamiltonian.epsilon @ state.alpha))
    mean_part = float(state.mean @ hamiltonian.epsilon @ state.mean)
    return alpha_part + mean_part
