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

import math
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
    """Certify positive (semi)definiteness of a Hermitian matrix, on its diagonal scaling.

    The certificate is that of D^-1 M D^-1 with D = diag(|M_jj|)^(1/2), a
    zero diagonal entry scaled by 1: that matrix has the verdict of M and a
    unit diagonal, so its least eigenvalue does not grow or shrink with the
    scale of any one row. ``tol`` is relative; it is scaled by the spectral
    radius of the scaled matrix (floored at 1) to obtain the absolute
    threshold reported in the certificate.
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
    herm = 0.5 * (M + adjoint)
    scale = np.sqrt(np.abs(herm.diagonal().real))
    scale[scale == 0.0] = 1.0
    eigs = np.linalg.eigvalsh(herm / np.multiply.outer(scale, scale))
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
    """Symmetrized copy of a finite 2s x 2s matrix, or of each matrix in a (B, 2s, 2s) stack."""
    alpha = np.asarray(alpha, dtype=float)
    n = 2 * space.s
    if alpha.shape[-2:] != (n, n) or alpha.ndim > 3:
        raise InadmissibleInputError(f"expected a {n}x{n} matrix, got {alpha.shape}")
    # np.linalg.norm(., axis=(-2, -1)), in its own sums but without its dispatch
    size = np.sqrt(np.add.reduce(alpha * alpha, axis=(-2, -1)))
    # a nan or inf entry makes the size non-finite, and so may the overflow of finite entries
    if not (math.isfinite(size) if size.ndim == 0 else np.isfinite(size).all()):
        _refuse(
            ~np.isfinite(alpha).all(axis=(-2, -1)),
            InadmissibleInputError,
            "{what} has an entry that is not a finite number",
            what=what,
        )
    transpose = alpha.swapaxes(-1, -2)  # of each matrix in a stack, as ndarray.mT in numpy 2
    asymmetry = alpha - transpose
    defect = np.sqrt(np.add.reduce(asymmetry * asymmetry, axis=(-2, -1)))
    _refuse(
        defect > tol * np.maximum(size, 1.0),
        InadmissibleInputError,
        "{what} must be symmetric (defect {:.3e})",
        defect,
        what=what,
    )
    return 0.5 * (alpha + transpose)


def _factor(alpha: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Cholesky factor L, alpha = L L^T, of each matrix; a matrix that has none is refused.

    On a stack numpy raises one error that names no matrix, so the first
    matrix without a factor is looked for only then.
    """
    try:
        return np.linalg.cholesky(alpha)
    except np.linalg.LinAlgError:
        pass
    stack = alpha.reshape(-1, *alpha.shape[-2:])
    for first, matrix in enumerate(stack):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            break
    _refuse(np.arange(len(stack)) == first, InadmissibleInputError, f"{what} is not positive definite")


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


def _spectrum_and_factor(alpha: np.ndarray, space: PhaseSpace, what: str):
    """Symplectic spectrum and Cholesky factor of an exactly symmetric matrix or stack.

    The matrix is not validated beyond its factorization.
    """
    factor = _factor(alpha, what)
    herm = -1j * (factor.swapaxes(-1, -2) @ space.delta @ factor)  # similar to i delta^-1 alpha
    return _positive_half(np.linalg.eigvalsh(herm), space.s), factor


def symplectic_eigenvalues(alpha: np.ndarray, space: PhaseSpace) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive definite matrix, descending.

    With the Cholesky factor alpha = L L^T they are the positive spectrum of
    the Hermitian matrix ``-i L^T delta L``, which is similar to
    ``i delta^-1 alpha`` and therefore carries the pairs (+nu_j, -nu_j). A
    matrix without a Cholesky factor is refused as not positive definite.
    A (B, 2s, 2s) stack gives one row of eigenvalues per matrix.
    """
    alpha = _require_symmetric(alpha, space, DEFAULT_TOL)
    return _spectrum_and_factor(alpha, space, "covariance matrix")[0]


# the unit roundoff u; eta = (n + 2) u bounds the relative error, per entry,
# of the rounding of a matrix's entries and the backward error of its factor
_ROUNDING = np.finfo(float).eps / 2


def _decided(gap, lam, spread):
    """True where nu_min, known to a relative eps = reach / lam, lies on one side of the threshold.

    gap is nu_min minus the threshold and spread is reach * nu_min, so that
    nu_min (1 - eps) >= threshold reads gap * lam >= spread, and
    nu_min (1 + eps) < threshold reads -gap * lam > spread; neither holds for lam <= 0.
    """
    return (gap * lam >= spread) | (-gap * lam > spread)


def _require_decidable(nu, tol: float, alpha, factor, what: str = "covariance matrix") -> None:
    """Refuse each matrix whose admissibility verdict at ``tol`` its conditioning leaves open.

    With D = diag(alpha)^(1/2) and A = D^-1 alpha D^-1, which has a unit
    diagonal, a perturbation with |d alpha_ij| <= eta (alpha_ii alpha_jj)^(1/2)
    lies between -eps alpha and eps alpha in the Loewner order, with
    eps = n eta / lambda_min(A) (Demmel and Veselic, SIAM J. Matrix Anal. Appl.
    13, 1204 (1992)); symplectic eigenvalues are monotone in that order
    (Bhatia and Jain, J. Math. Phys. 56, 112201 (2015)), so each nu_j is known
    to a relative eps. eta = (n + 2) u covers the rounding of the entries and
    the backward error of the Cholesky factor. Against the threshold
    t = 1/2 - tol max(1, nu_max + 1/2) of the certificate, alpha is admissible
    when nu_min (1 - eps) >= t, inadmissible when nu_min (1 + eps) < t, and
    refused as undecidable otherwise.

    lambda_min(A) is first bounded below by det(A) ((n - 1)/n)^(n - 1), by
    AM-GM on the other eigenvalues, whose sum is below tr A = n; det(A) is
    prod_j L_jj^2 / alpha_jj, read off the factor. A values-only eigensolve of
    A runs only where that bound leaves the verdict open. ``nu`` holds one
    descending spectrum per matrix of ``alpha``; one is read on Python floats.
    """
    n = alpha.shape[-1]
    reach = n * (n + 2) * _ROUNDING  # eps * lambda_min(A)
    free = ((n - 1) / n) ** (n - 1)
    if nu.ndim == 1 or len(nu) == 1:  # one spectrum, on Python floats
        spectrum = nu.reshape(-1).tolist()
        least = spectrum[-1]
        pairs = zip(factor.reshape(n, n).diagonal().tolist(), alpha.reshape(n, n).diagonal().tolist())
        gap = least - 0.5 + tol * max(1.0, spectrum[0] + 0.5)
        if _decided(gap, free * math.prod(f * f / a for f, a in pairs), reach * least):
            return
    alpha = alpha.reshape(-1, n, n)
    factor, nu = factor.reshape(alpha.shape), nu.reshape(len(alpha), -1)
    least = nu[:, -1]
    gap = least - 0.5 + tol * np.maximum(1.0, nu[:, 0] + 0.5)
    diag, pivots = alpha.diagonal(0, -2, -1), factor.diagonal(0, -2, -1)
    lam = free * np.prod(pivots * pivots / diag, axis=-1)
    undecided = ~_decided(gap, lam, reach * least)
    if not undecided.any():
        return
    d = np.sqrt(diag[undecided])
    lam[undecided] = np.linalg.eigvalsh(alpha[undecided] / (d[:, :, None] * d[:, None, :]))[:, 0]
    _refuse(
        ~_decided(gap, lam, reach * least),
        InadmissibleInputError,
        "admissibility of the {what} is undecidable at this conditioning: "
        "lambda_min(D^-1 alpha D^-1) = {:.3e}, D = diag(alpha)^(1/2), leaves min nu = {:.12g} "
        "uncertain by a relative {:.3e}, too much for the threshold at tol {tol:.3g}",
        lam,
        least,
        np.divide(reach, lam, out=np.full_like(lam, np.inf), where=lam > 0.0),
        what=what,
        tol=tol,
    )


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

    With the Cholesky factor alpha = L L^T, eigenvectors w_j of the Hermitian
    matrix -i L^T delta L at eigenvalue +nu_j are pulled back to
    u_j = L^-T w_j; writing u_j = x_j + i y_j, the columns
    (sqrt(2 nu_j) x_j, -sqrt(2 nu_j) y_j) are symplectic and diagonalize alpha
    by congruence. A matrix without a Cholesky factor is refused as not
    positive definite, and one whose admissibility at ``tol`` its conditioning
    leaves undecidable is refused too (see ``_require_decidable``).
    """
    alpha = _require_symmetric(alpha, space, tol)
    factor = _factor(alpha, "covariance matrix")
    w, W = np.linalg.eigh(-1j * (factor.T @ space.delta @ factor))
    order = np.argsort(w)[::-1][: space.s]
    nu = w[order]
    _require_decidable(nu, tol, alpha, factor)
    U = np.linalg.solve(factor.T, W[:, order])  # L^-T W
    n = 2 * space.s
    T = np.empty((n, n))
    scale = np.sqrt(2.0 * nu)
    T[:, 0::2] = scale * U.real
    T[:, 1::2] = -scale * U.imag
    defect = np.linalg.norm(T.T @ space.delta @ T - space.delta)
    if defect > max(tol, 1e-12 * n) * 100:
        raise RuntimeError(f"symplectic defect {defect:.3e} exceeds tolerance")
    return WilliamsonDecomposition(T=T, nu=nu)
