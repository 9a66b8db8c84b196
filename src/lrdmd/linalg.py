"""Shared dense linear algebra: one thin SVD for matrices of every shape,
and the relative numerical rank behind every rank decision.

All routines are deterministic: singular vectors follow a fixed sign
convention (the largest-magnitude entry of each left singular vector is
made positive, first index winning ties) so repeated runs produce
bit-identical factors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_TOL = 1e-12

# Smallest sigma_min / sigma_max for which the CholeskyQR2 result is kept.
# Its first pass factors M^T M, whose spectrum is the square of M's, so
# below this ratio the Cholesky factor carries too little precision for
# the second pass to restore; LAPACK takes over instead.
CHOLQR_MIN_RATIO = 1e-6

# Smallest p / q for which CholeskyQR2 is tried: it replaces only the QR of
# a tall matrix by BLAS-3 products and still ends in a q-by-q SVD, so it
# beats LAPACK only once p is 4 to 6 times q (q = 40, 100; one BLAS thread).
CHOLQR_MIN_ASPECT = 5


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD triple M = W diag(sigma) V^T of a p-by-q matrix.

    W is p-by-rho and V is q-by-rho with orthonormal columns, rho =
    min(p, q); sigma is a nonnegative, nonincreasing vector of length rho.
    """

    W: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.W * self.sigma) @ self.V.T

    def numerical_rank(self, tol: float = DEFAULT_TOL) -> int:
        return numerical_rank(self.sigma, tol)


def numerical_rank(sigma: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Count singular values above tol relative to the largest one."""
    if sigma.size == 0:
        return 0
    smax = sigma[0]
    if smax <= 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * smax))


def _fix_signs(W: np.ndarray, V: np.ndarray) -> None:
    # largest-|entry| of each W column made positive. Column maxima and
    # minima decide it (a column-wise argmax over a tall W costs several
    # times more); where they tie in magnitude the first index wins, which
    # is the documented tie-break and what np.argmax returns.
    top, bottom = W.max(axis=0), -W.min(axis=0)
    flip = bottom > top
    for j in np.flatnonzero(bottom == top):
        flip[j] = W[np.argmax(np.abs(W[:, j])), j] < 0.0
    sign = np.where(flip, -1.0, 1.0)
    W *= sign
    V *= sign


def _cholesky_qr2(M: np.ndarray):
    """(W, sigma, V) of a tall M by CholeskyQR2 (Fukaya et al. 2014), or
    None when a Cholesky factorization fails or sigma_min falls below
    CHOLQR_MIN_RATIO * sigma_max.

    M = Q R1 and Q = Q2 R2 are two Cholesky-QR passes, the second restoring
    the orthogonality the first loses; the SVD of the small R2 R1 = U S V^T
    then gives M = (Q R2^-1 U) S V^T.
    """
    try:
        R1 = np.linalg.cholesky(M.T @ M).T
        # cond(R1) >= max|r_ii| / min|r_ii|: skip the n-by-q passes early
        d = np.abs(np.diag(R1))
        if d.min() < CHOLQR_MIN_RATIO * d.max():
            return None
        Q = M @ np.linalg.inv(R1)
        R2 = np.linalg.cholesky(Q.T @ Q).T
    except np.linalg.LinAlgError:
        return None
    U, sigma, Vt = np.linalg.svd(R2 @ R1)
    if not sigma[-1] >= CHOLQR_MIN_RATIO * sigma[0]:
        return None
    return Q @ np.linalg.solve(R2, U), sigma, Vt.T


def thin_svd(M: np.ndarray) -> SvdFactors:
    """Thin SVD of a real p-by-q matrix of any shape.

    A wide matrix is factored through its transpose. A tall one, with
    p >= CHOLQR_MIN_ASPECT * q, takes the CholeskyQR2 route when its
    spectrum allows (see CHOLQR_MIN_RATIO); every other input goes to
    LAPACK. The route depends on the input alone.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValidationError("matrix contains non-finite entries")
    wide = M.shape[0] < M.shape[1]
    T = M.T if wide else M
    fast = _cholesky_qr2(T) if T.shape[0] >= CHOLQR_MIN_ASPECT * T.shape[1] > 0 else None
    if fast is None:
        W, sigma, Vt = np.linalg.svd(T, full_matrices=False)
        fast = W, sigma, Vt.T.copy()
    W, sigma, V = fast
    if wide:
        W, V = V, W
    _fix_signs(W, V)
    return SvdFactors(W=W, sigma=sigma, V=V)
