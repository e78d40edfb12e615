"""Symplectic linear algebra on canonical phase space.

All matrices use the interleaved variable ordering (q1, p1, ..., qs, ps).
The commutation matrix ``delta`` is the s-fold block diagonal of
[[0, -1], [1, 0]]; it is skew-symmetric, squares to minus the identity and
has unit determinant, so ``delta**-1 == -delta``.

A real symmetric ``alpha`` is an admissible covariance matrix iff the
Hermitian matrix ``alpha + (i/2) delta`` is positive semidefinite,
equivalently iff every symplectic eigenvalue of ``alpha`` is >= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InadmissibleInputError

DEFAULT_TOL = 1e-9

VERDICT_PD = "positive_definite"
VERDICT_PSD = "positive_semidefinite"
VERDICT_INDEFINITE = "indefinite"

_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """Mode count together with the canonical commutation matrix."""

    s: int
    delta: np.ndarray


def canonical_form(s: int) -> PhaseSpace:
    """Return the s-mode phase space with the canonical commutation matrix, shared per s."""
    if int(s) != s or s < 1:
        raise InadmissibleInputError("mode count s must be a positive integer")
    return _phase_space(int(s))


@lru_cache(maxsize=16)
def _phase_space(s: int) -> PhaseSpace:
    delta = np.kron(np.eye(s), _BLOCK)
    delta.flags.writeable = False
    return PhaseSpace(s=s, delta=delta)


@dataclass(frozen=True)
class HermitianCert:
    """Outcome of a positivity check on a Hermitian matrix.

    ``tolerance`` is the absolute eigenvalue threshold actually applied:
    the verdict is ``positive_definite`` iff min_eigenvalue > tolerance and
    ``positive_semidefinite`` iff min_eigenvalue >= -tolerance. A certificate
    of a stack of matrices holds one array entry per matrix in each field.
    """

    min_eigenvalue: float
    tolerance: float
    verdict: str

    @property
    def is_positive_definite(self) -> bool:
        return self.verdict == VERDICT_PD

    @property
    def is_positive_semidefinite(self) -> bool:
        return self.verdict != VERDICT_INDEFINITE


def _refuse(bad, error: type, message: str, *values, **constants) -> None:
    """Raise ``error`` for the first flagged matrix of a stack.

    ``bad`` holds one flag per matrix (0-d or a bool for a single matrix) and
    each of ``values`` one entry per matrix to format into ``message``, as
    ``constants`` are by name; with no flag set it returns at once, unformatted.
    The exception records the matrix as ``slice_index``, so that a caller
    evaluating many points at once can find the failure a point-by-point loop
    meets first.
    """
    if not (bad.any() if getattr(bad, "ndim", 0) else bad):
        return
    i = int(np.argmax(bad))
    exc = error(message.format(*(np.atleast_1d(v)[i] for v in values), **constants))
    exc.slice_index = i
    raise exc


def _cert(min_eig, abs_tol) -> HermitianCert:
    """Certificate of a least eigenvalue against its absolute threshold, or of a stack of them."""
    if getattr(min_eig, "ndim", 0) == 0:
        least, tol = float(min_eig), float(abs_tol)
        verdict = VERDICT_PD if least > tol else VERDICT_PSD if least >= -tol else VERDICT_INDEFINITE
        return HermitianCert(least, tol, verdict)
    verdict = np.where(
        min_eig > abs_tol,
        VERDICT_PD,
        np.where(min_eig >= -abs_tol, VERDICT_PSD, VERDICT_INDEFINITE),
    )
    return HermitianCert(min_eig, abs_tol, verdict)


def check_hermitian_psd(M: np.ndarray, tol: float = DEFAULT_TOL) -> HermitianCert:
    """Certify positive (semi)definiteness of a Hermitian matrix.

    ``tol`` is relative; it is scaled by the spectral radius (floored at 1)
    to obtain the absolute threshold reported in the certificate.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InadmissibleInputError("expected a square matrix")
    adjoint = M.T.conj()
    defect = np.linalg.norm(M - adjoint)
    if defect > tol * max(np.linalg.norm(M), 1.0):
        raise InadmissibleInputError(
            f"matrix is not Hermitian within tolerance (defect {defect:.3e})"
        )
    eigs = np.linalg.eigvalsh(0.5 * (M + adjoint))
    return _cert(eigs[0], tol * max(1.0, np.abs(eigs).max()))


def _uncertainty_cert(nu: np.ndarray, tol: float) -> HermitianCert:
    """Certificate of alpha + (i/2) delta read off alpha's descending symplectic spectrum nu.

    A Williamson congruence takes alpha + (i/2) delta to D + (i/2) delta,
    D = diag(nu_1, nu_1, ..., nu_s, nu_s), whose eigenvalues are nu_j +- 1/2;
    congruence keeps the verdict, and ``check_hermitian_psd``'s rule applied
    to that form needs no eigensolve. Its absolute threshold does not grow
    with the squeezing of alpha, so it refuses a squeezed state below the
    uncertainty bound however strongly squeezed. ``nu`` may be one spectrum
    or a stack of them, one per row; one is read on Python floats.
    """
    if nu.ndim == 1:
        return _cert(nu[-1].item() - 0.5, tol * max(nu[0].item() + 0.5, 1.0))
    return _cert(nu[..., -1] - 0.5, tol * np.maximum(1.0, nu[..., 0] + 0.5))


def _require_symmetric(
    alpha: np.ndarray, space: PhaseSpace, tol: float, what: str = "covariance matrix"
) -> np.ndarray:
    """Symmetrized copy of a 2s x 2s matrix, or of each matrix in a (B, 2s, 2s) stack."""
    alpha = np.asarray(alpha, dtype=float)
    n = 2 * space.s
    if alpha.shape[-2:] != (n, n) or alpha.ndim > 3:
        raise InadmissibleInputError(f"expected a {n}x{n} matrix, got {alpha.shape}")
    transpose = alpha.swapaxes(-1, -2)  # of each matrix in a stack, as ndarray.mT in numpy 2
    # np.linalg.norm(., axis=(-2, -1)) of both, in its own sums but without its dispatch
    defect, size = (np.sqrt(np.add.reduce(M * M, axis=(-2, -1))) for M in (alpha - transpose, alpha))
    _refuse(
        defect > tol * np.maximum(size, 1.0),
        InadmissibleInputError,
        "{what} must be symmetric (defect {:.3e})",
        defect,
        what=what,
    )
    return 0.5 * (alpha + transpose)


def _require_definite(w: np.ndarray, tol: float, what: str = "matrix") -> None:
    """Refuse each ascending spectrum in w whose least eigenvalue is not above tol * max(1, largest)."""
    if w.ndim == 1 and w[0].item() > tol * max(w[-1].item(), 1.0):
        return  # one spectrum that passes, on Python floats
    _refuse(
        w[..., 0] <= tol * np.maximum(1.0, w[..., -1]),
        InadmissibleInputError,
        "{what} fails the test min eigenvalue > tol * max(1, max eigenvalue): "
        "min eigenvalue {:.3e}, max eigenvalue {:.3e}, tol {tol:.3g}",
        w[..., 0],
        w[..., -1],
        what=what,
        tol=tol,
    )


def _sym_sqrt(alpha: np.ndarray, tol: float, what: str = "matrix"):
    """Eigenpairs and square root of each symmetric positive definite matrix."""
    w, Q = np.linalg.eigh(alpha)
    _require_definite(w, tol, what)
    return w, Q, (Q * np.sqrt(w)[..., None, :]) @ Q.swapaxes(-1, -2)


def _positive_half(ev: np.ndarray, s: int) -> np.ndarray:
    """Descending positive half of each ascending spectrum of +/- pairs in ev, checked to pair up."""
    if ev.ndim == 1:  # one spectrum on Python floats; max(x, 1.0) keeps a nan x as np.maximum does
        e = ev.tolist()
        atol = DEFAULT_TOL * max(abs(e[-1]), 1.0)
        if all(abs(a + b) <= atol + 1e-5 * abs(b) for a, b in zip(e, reversed(e))):
            return ev[::-1][:s].copy()
    # np.allclose(ev, -ev[::-1]) for each matrix
    mirror = -ev[..., ::-1]
    atol = DEFAULT_TOL * np.maximum(1.0, np.abs(ev[..., -1]))
    paired = np.abs(ev - mirror) <= atol[..., None] + 1e-5 * np.abs(mirror)
    _refuse(
        ~paired.all(axis=-1), RuntimeError, "symplectic spectrum did not split into +/- pairs"
    )
    return ev[..., ::-1][..., :s].copy()


def _symplectic_spectrum(alpha: np.ndarray, space: PhaseSpace) -> np.ndarray:
    """``symplectic_eigenvalues`` of an exactly symmetric matrix or stack, which it does not validate."""
    _, _, root = _sym_sqrt(alpha, DEFAULT_TOL)
    herm = -1j * (root @ space.delta @ root)  # i * delta^-1 conjugated by alpha^(1/2)
    return _positive_half(np.linalg.eigvalsh(herm), space.s)


def symplectic_eigenvalues(alpha: np.ndarray, space: PhaseSpace) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive definite matrix, descending.

    Computed as the positive spectrum of the Hermitian matrix
    ``alpha^(1/2) (i delta^-1) alpha^(1/2)``, which is similar to
    ``i delta^-1 alpha`` and therefore carries the pairs (+nu_j, -nu_j).
    A (B, 2s, 2s) stack gives one row of eigenvalues per matrix.
    """
    return _symplectic_spectrum(_require_symmetric(alpha, space, DEFAULT_TOL), space)


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Symplectic congruence T and symplectic eigenvalues nu (descending).

    ``T.T @ alpha @ T`` equals ``diag(nu_1, nu_1, ..., nu_s, nu_s)`` and
    ``T.T @ delta @ T`` equals ``delta``.
    """

    T: np.ndarray
    nu: np.ndarray


def williamson(
    alpha: np.ndarray, space: PhaseSpace, tol: float = DEFAULT_TOL
) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive definite matrix.

    Eigenvectors w_j of the Hermitian matrix alpha^(1/2) (i delta^-1) alpha^(1/2)
    at eigenvalue +nu_j are pulled back to u_j = alpha^(-1/2) w_j; writing
    u_j = x_j + i y_j, the columns (sqrt(2 nu_j) x_j, -sqrt(2 nu_j) y_j) are
    symplectic and diagonalize alpha by congruence.
    """
    alpha = _require_symmetric(alpha, space, tol)
    eigenvalues, Q, root = _sym_sqrt(alpha, tol)
    herm = -1j * (root @ space.delta @ root)
    w, W = np.linalg.eigh(herm)
    order = np.argsort(w)[::-1][: space.s]
    nu = w[order]
    U = (Q / np.sqrt(eigenvalues)) @ Q.T @ W[:, order]  # alpha^(-1/2) W
    n = 2 * space.s
    T = np.empty((n, n))
    scale = np.sqrt(2.0 * nu)
    T[:, 0::2] = scale * U.real
    T[:, 1::2] = -scale * U.imag
    defect = np.linalg.norm(T.T @ space.delta @ T - space.delta)
    if defect > max(tol, 1e-12 * n) * 100:
        raise RuntimeError(f"symplectic defect {defect:.3e} exceeds tolerance")
    return WilliamsonDecomposition(T=T, nu=nu)
