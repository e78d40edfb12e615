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
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import InadmissibleInputError, _whole
from .records import ByIdentity

DEFAULT_TOL = 1e-9

VERDICT_PD = "positive_definite"
VERDICT_PSD = "positive_semidefinite"
VERDICT_INDEFINITE = "indefinite"

_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


class PhaseSpace(ByIdentity, namedtuple("PhaseSpace", "s delta")):
    """Mode count together with the canonical commutation matrix."""

    __slots__ = ()
    s: int
    delta: np.ndarray


def canonical_form(s: int) -> PhaseSpace:
    """Return the s-mode phase space with the canonical commutation matrix, shared per s."""
    return _phase_space(_whole("mode count s", s, 1))


@lru_cache(maxsize=16)
def _phase_space(s: int) -> PhaseSpace:
    delta = np.kron(np.eye(s), _BLOCK)
    delta.flags.writeable = False
    return PhaseSpace(s=s, delta=delta)


class HermitianCert(namedtuple("HermitianCert", "min_eigenvalue tolerance")):
    """Outcome of a positivity check on a Hermitian matrix.

    ``tolerance`` is the absolute eigenvalue threshold actually applied: the
    matrix is positive definite iff min_eigenvalue > tolerance and positive
    semidefinite iff min_eigenvalue >= -tolerance, so a nan is indefinite.
    A certificate of a stack holds one array entry per matrix in each field,
    and answers, ``verdict`` included, with one array entry per matrix.
    """

    __slots__ = ()
    min_eigenvalue: float
    tolerance: float

    @property
    def is_positive_definite(self) -> bool:
        return self.min_eigenvalue > self.tolerance

    @property
    def is_positive_semidefinite(self) -> bool:
        return self.min_eigenvalue >= -self.tolerance

    @property
    def verdict(self) -> str:
        psd = np.where(self.is_positive_semidefinite, VERDICT_PSD, VERDICT_INDEFINITE)
        verdict = np.where(self.is_positive_definite, VERDICT_PD, psd)
        return verdict if verdict.ndim else str(verdict)


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


def _uncertainty_cert(nu: np.ndarray, tol: float) -> HermitianCert:
    """Certificate of alpha + (i/2) delta read off alpha's descending symplectic spectrum nu.

    A Williamson congruence takes alpha + (i/2) delta to D + (i/2) delta,
    D = diag(nu_1, nu_1, ..., nu_s, nu_s), whose eigenvalues are nu_j +- 1/2,
    with the same verdict. Its threshold, ``tol`` times the spectral radius
    (floored at 1), does not grow with the squeezing of alpha, so a state below
    the uncertainty bound is refused however squeezed. ``nu`` is one spectrum,
    read on Python floats, or a stack of them, one per row.
    """
    if nu.ndim == 1:
        spectrum = nu.tolist()
        return HermitianCert(spectrum[-1] - 0.5, float(tol * max(spectrum[0] + 0.5, 1.0)))
    return HermitianCert(nu[..., -1] - 0.5, tol * np.maximum(1.0, nu[..., 0] + 0.5))


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
    """True where gap, known to within eps size = spread / lam with eps = reach / lam, has a sure sign."""
    return (gap * lam >= spread) | (-gap * lam > spread)


def _require_decidable(gap, size, alpha, factor, what: str, symbol: str = "alpha") -> None:
    """Refuse each matrix whose certificate's margin ``gap`` its conditioning leaves of unsure sign.

    gap = min_eigenvalue + tolerance, whose sign is the verdict, moves by at
    most eps ``size`` when the factored ``alpha`` (``symbol`` in the message)
    moves by a relative eps, one entry each per matrix. With D = diag(alpha)^(1/2)
    and A = D^-1 alpha D^-1, the rounding of alpha's entries and the backward
    error of its factor, |d alpha_ij| <= (n + 2) u (alpha_ii alpha_jj)^(1/2),
    lie between -eps alpha and eps alpha in the Loewner order with
    eps = n (n + 2) u / lambda_min(A) (Demmel and Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1204 (1992)). Symplectic eigenvalues are monotone in that order
    (Bhatia and Jain, J. Math. Phys. 56, 112201 (2015)), so a covariance's size
    is nu_min; a noise bound's congruence by the factor moves by eps I, size 1.
    lambda_min(A) >= det(A) ((n - 1)/n)^(n - 1) by AM-GM on the other
    eigenvalues, whose sum is below tr A = n, with det(A) = prod_j L_jj^2 / alpha_jj
    read off the factor; A is solved for only where that bound leaves the verdict
    open. One matrix is read on Python floats.
    """
    n = alpha.shape[-1]
    reach = n * (n + 2) * _ROUNDING  # eps * lambda_min(A)
    free = ((n - 1) / n) ** (n - 1)
    if alpha.ndim == 2 or len(alpha) == 1:  # one matrix, on Python floats
        pairs = zip(factor.reshape(n, n).diagonal().tolist(), alpha.reshape(n, n).diagonal().tolist())
        lam = free * math.prod(f * f / a for f, a in pairs)
        if _decided(np.asarray(gap).item(), lam, reach * np.asarray(size).item()):
            return
    alpha, factor = alpha.reshape(-1, n, n), factor.reshape(-1, n, n)
    gap, spread = np.reshape(gap, -1), reach * np.reshape(size, -1)
    diag, pivots = alpha.diagonal(0, -2, -1), factor.diagonal(0, -2, -1)
    lam = free * np.prod(pivots * pivots / diag, axis=-1)
    undecided = ~_decided(gap, lam, spread)
    if not undecided.any():
        return
    d = np.sqrt(diag[undecided])
    lam[undecided] = np.linalg.eigvalsh(alpha[undecided] / (d[:, :, None] * d[:, None, :]))[:, 0]
    _refuse(
        ~_decided(gap, lam, spread),
        InadmissibleInputError,
        "admissibility of the {what} is undecidable at this conditioning: "
        "lambda_min(D^-1 {m} D^-1) = {:.3e}, D = diag({m})^(1/2), leaves {m} uncertain "
        "by a relative {:.3e}, too much for the margin {:.3e} of its certificate",
        lam,
        np.divide(reach, lam, out=np.full_like(lam, np.inf), where=lam > 0.0),
        gap,
        what=what,
        m=symbol,
    )


def _certified(alpha: np.ndarray, space: PhaseSpace, what: str):
    """Symplectic spectrum and uncertainty certificate of an exactly symmetric matrix or stack.

    The spectrum is read off the Cholesky factor, the verdict at the default
    tolerance is checked to be decidable at alpha's conditioning, and a
    matrix below the uncertainty bound is refused. Each check runs on the
    whole stack before the next, and names the first matrix it refuses.
    """
    nu, factor = _spectrum_and_factor(alpha, space, what)
    cert = _uncertainty_cert(nu, DEFAULT_TOL)
    _require_decidable(cert.min_eigenvalue + cert.tolerance, nu[..., -1], alpha, factor, what)
    _refuse(
        np.logical_not(cert.is_positive_semidefinite),
        InadmissibleInputError,
        "{what} fails the uncertainty bound: min eigenvalue of "
        "alpha + (i/2) delta in Williamson coordinates is {:.3e}",
        cert.min_eigenvalue,
        what=what,
    )
    return nu, cert


def _noise_certified(K: np.ndarray, mu: np.ndarray, space: PhaseSpace, tol: float) -> HermitianCert:
    """Certificate of a channel's noise bound M = mu - (i/2)(delta - K.T delta K); noise below it is refused.

    M is read in its congruence by L^-1, L the Cholesky factor of mu + Z, Z putting 1 on each
    zero mu_jj (whose row of M must then be zero): its least eigenvalue does not change with any
    squeezing of mu, and ``tol`` times its spectral radius (floored at 1) is the threshold. The
    verdict must be decidable at the conditioning of mu + Z, which must have a Cholesky factor
    even where M is semidefinite.
    """
    base = mu + np.diag(mu.diagonal() == 0.0) if 0.0 in mu.diagonal().tolist() else mu
    factor = _factor(base, "channel noise mu")
    # L = D U, D = diag(L): M is scaled by D^-1, times reciprocals to keep the certificates of
    # diagonal mu bit for bit, then taken by U^-1 unless U = I
    pivots = factor.diagonal()
    herm = (mu - 0.5j * (space.delta - K.T @ space.delta @ K)) * (1.0 / np.multiply.outer(pivots, pivots))
    if np.count_nonzero(factor) > len(factor):
        inverse = np.linalg.inv(factor / pivots[:, None])
        herm = inverse @ herm @ inverse.T
    least, *_, top = np.linalg.eigvalsh(herm).tolist()
    cert = HermitianCert(least, tol * max(1.0, -least, top))
    _require_decidable(least + cert.tolerance, 1.0, base, factor, "channel noise mu", "mu")
    if not cert.is_positive_semidefinite:
        raise InadmissibleInputError(
            f"channel noise is below the admissibility bound: min eigenvalue {least:.3e}"
        )
    return cert


class WilliamsonDecomposition(ByIdentity, namedtuple("WilliamsonDecomposition", "T nu")):
    """Symplectic congruence T and symplectic eigenvalues nu (descending).

    ``T.T @ alpha @ T`` equals ``diag(nu_1, nu_1, ..., nu_s, nu_s)`` and
    ``T.T @ delta @ T`` equals ``delta``.
    """

    __slots__ = ()
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
    cert = _uncertainty_cert(nu, tol)
    _require_decidable(cert.min_eigenvalue + cert.tolerance, nu[-1], alpha, factor, "covariance matrix")
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
