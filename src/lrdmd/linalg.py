"""Shared dense linear algebra: one tall factorization M = Q R with its
orthonormal basis Q in implicit form, the thin SVD of small matrices, the
numerical rank behind every rank decision and the blocks of n-row passes.
Tall matrices go to qr_factor, small ones to LAPACK's SVD (thin_svd): the
SVD of a tall M is that of its small R, lifted through the basis.

qr_factor factors a tall matrix by Cholesky QR, which needs only BLAS-3
products over its long side: CholeskyQR2 when it is well enough
conditioned, shifted CholeskyQR3 beyond that, up to condition numbers of
about 1e13 (Fukaya et al. 2014, 2020). Householder QR (LAPACK) factors the
rest: near-square matrices and tall ones that are rank deficient to working
precision. The basis is kept as Q = Q1 T, Q1 the p-row matrix of the last
Cholesky pass and T a small triangular factor that is never multiplied
out; QrFactors.lift_rows applies it to a small matrix at one p-row product.

All routines are deterministic: singular vectors follow a fixed sign
convention (the largest-magnitude entry of each left singular vector is
made positive, first index winning ties) so repeated runs produce
bit-identical factors. A LAPACK breakdown in qr_factor or thin_svd (numpy's
LinAlgError) is raised as NumericalGuardError, and so is a Cholesky Gram
that overflows (data near 1e160), before it is factored.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, ValidationError

DEFAULT_TOL = 1e-12

# Smallest sigma_min / sigma_max for which the unshifted CholeskyQR2 result
# is kept. Its first pass factors M^T M, whose spectrum is the square of
# M's, so below this ratio the Cholesky factor carries too little precision
# for the second pass to restore; the shifted pass takes over instead.
CHOLQR_MIN_RATIO = 1e-6

# Smallest spread of the Cholesky diagonal of Q0 = M R0^-1, after the
# shifted pass, on which CholeskyQR2 is run: about the square root of the
# unit roundoff, the inverse of the largest condition number CholeskyQR2
# takes. cond(Q0) ~ sqrt(s) / sigma_min(M), so M falls below it only when
# sigma_min / sigma_max < 1e-8 sqrt(s) / ||M||_2, about 3e-13 at 8000 x 100:
# when it is rank deficient to working precision. LAPACK takes those.
SHIFTED_MIN_RATIO = 1e-8

# unit roundoff of float64, in the shift of shifted CholeskyQR
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

# Smallest p / q for which qr_factor tries the Cholesky routes before
# Householder QR. Best of 25 on one BLAS thread, ms, Cholesky vs Householder:
# at q = 100, p/q = 4: 1.80 vs 1.51, 5: 1.91 vs 2.45, 8: 2.44 vs 4.21; at
# q = 40 Householder stays ahead up to p/q = 8 (0.28 vs 0.23).
CHOLQR_MIN_ASPECT = 5

# Rows per block of every n-row loop: a block stays in cache, and no n-row
# temporary is formed.
_ROW_BLOCK = 256


def row_blocks(n: int):
    """Slices of rows 0..n-1 in order, _ROW_BLOCK (read at each call) at a time."""
    for r in range(0, n, _ROW_BLOCK):
        yield slice(r, r + _ROW_BLOCK)


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD triple M = W diag(sigma) V^T of a p-by-q matrix.

    W is p-by-rho and V is q-by-rho with orthonormal columns, rho =
    min(p, q); sigma is a nonnegative, nonincreasing vector of length rho.
    """

    W: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def numerical_rank(sigma: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Count singular values strictly above tol times the largest one."""
    if sigma.size == 0:
        return 0
    smax = sigma[0]
    if smax <= 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * smax))


def _check_tol(tol: float) -> float:
    """tol, relative to the largest singular value, if it lies in [0, 1);
    a NaN, negative or larger one raises ValidationError."""
    if not 0 <= tol < 1:
        raise ValidationError(f"tol must lie in [0, 1), got {tol!r}")
    return tol


def column_signs(W: np.ndarray) -> np.ndarray:
    """+1 or -1 for each column of W: the sign that makes the column's
    largest-magnitude entry positive, the first index winning ties; +1
    for every column of a W with no rows (the SVD of a 0-by-0 core)."""
    if W.shape[0] == 0:
        return np.ones(W.shape[1])
    # Column maxima and minima decide it (a column-wise argmax over a tall W
    # costs several times more); where they tie in magnitude the first index
    # wins, which is the documented tie-break and what np.argmax returns.
    # Callers pass n-row W column-major (a fit's left factor, see
    # solvers.Factorization.fit): the scan then runs down contiguous
    # columns, where on a row-major W it strides across rows, numpy's slow
    # case (0.018 ms against 0.55 ms at 8000 x 5, best of 5 runs of 200).
    top, bottom = W.max(axis=0), -W.min(axis=0)
    sign = np.where(bottom > top, -1.0, 1.0)
    for j in np.flatnonzero(bottom == top):
        sign[j] = -1.0 if W[np.argmax(np.abs(W[:, j])), j] < 0.0 else 1.0
    return sign


def _as_matrix(M, checked: bool = False) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={M.ndim}")
    if not checked and not np.all(np.isfinite(M)):
        raise ValidationError("matrix contains non-finite entries")
    return M


@dataclass(frozen=True)
class QrFactors:
    """M = Q R for a p-by-q matrix M, the orthonormal p-by-rho basis Q kept
    in implicit form Q = Q1 T (rho = min(p, q); T None means the identity).

    R is rho-by-q. Q1 is p-by-rho and T rho-by-rho; Q itself is never
    formed, so every use of the basis is one p-row product with a small
    matrix (lift_rows and project) or with another basis (inner).
    A Cholesky route holds Q1 column-major, so lift_rows, which forms a
    fit's factors, is a plain product with the row-major Q1^T.
    """

    Q1: np.ndarray
    T: np.ndarray | None
    R: np.ndarray

    def _small(self, B: np.ndarray) -> np.ndarray:
        return B if self.T is None else self.T @ B

    def lift_rows(self, C: np.ndarray) -> np.ndarray:
        """C Q^T, k-by-p, from a k-by-rho C."""
        return self._small(C.T).T @ self.Q1.T

    def project(self, M: np.ndarray) -> np.ndarray:
        """Q^T M, rho-by-k, from a p-by-k M."""
        coords = self.Q1.T @ M
        return coords if self.T is None else self.T.T @ coords

    def inner(self, other: "QrFactors") -> np.ndarray:
        """Q^T Q', rho-by-rho', with the basis Q' of another p-row
        factorization, at one p-row product."""
        G = self.project(other.Q1)
        return G if other.T is None else G @ other.T


def _right_solve(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M R^-1 for a p-by-q M and an upper triangular R, column-major, as
    (R^-T M^T)^T, for the flops of M @ inv(R). At 8000 x 100 on one
    OpenBLAS thread, lift_rows of k rows then takes 0.54 ms, against 0.65 ms
    with a row-major Q1, at k = 10, and 2.41 against 2.86 ms at k = 90
    (median of 201 calls)."""
    return (np.linalg.inv(R).T @ M.T).T


def _cholesky_qr2(M: np.ndarray, G: np.ndarray, min_ratio: float):
    """(Q, R2, R1) with M = Q R1 and Q = Q2 R2, Q2 orthonormal, by two
    Cholesky-QR passes (Fukaya et al. 2014), the first from the Gram
    G = M^T M; None when a Cholesky factorization fails or the diagonal of
    R1 spans less than min_ratio.

    cond(R1) >= max|r_ii| / min|r_ii|, so that test skips the p-by-q passes
    of inputs that are certain to be rejected.
    """
    try:
        R1 = np.linalg.cholesky(G).T
        d = np.abs(np.diag(R1))
        if d.min() < min_ratio * d.max():
            return None
        Q = _right_solve(M, R1)
        R2 = np.linalg.cholesky(Q.T @ Q).T
    except np.linalg.LinAlgError:
        return None
    return Q, R2, R1


def _cholesky_qr(M: np.ndarray) -> QrFactors | None:
    """M = Q R of a tall p-by-q M by Cholesky QR, or None when M is rank
    deficient to working precision.

    CholeskyQR2 is tried first and kept when sigma_min(R) >= CHOLQR_MIN_RATIO
    * sigma_max(R). Otherwise its Gram G = M^T M serves one shifted Cholesky
    pass (shifted CholeskyQR3, Fukaya et al. 2020): M = Q0 R0 with R0 =
    chol(G + s I), s = 11 (pq + q(q+1)) u ||M||_2^2, which keeps the Cholesky
    factor from breaking down, and CholeskyQR2 then factors Q0 unless
    SHIFTED_MIN_RATIO refuses it. Either way M = Q R with Q = Q1 R2^-1 and
    R = R2 R1 [R0]. A Gram with a non-finite entry, squares of M that
    overflow, raises NumericalGuardError.
    """
    p, q = M.shape
    with np.errstate(over="ignore", invalid="ignore"):
        G = M.T @ M
    if not np.all(np.isfinite(G)):
        raise NumericalGuardError(f"the Gram matrix of a {p}-by-{q} matrix overflows: "
                                  "its entries are too large to square")
    found = _cholesky_qr2(M, G, CHOLQR_MIN_RATIO)
    if found is not None:
        Q1, R2, R1 = found
        R = R2 @ R1
        sigma = np.linalg.svd(R, compute_uv=False)
        if sigma[-1] >= CHOLQR_MIN_RATIO * sigma[0]:
            return QrFactors(Q1=Q1, T=np.linalg.inv(R2), R=R)
        del found, Q1  # the refused p-by-q basis, before the shifted pass
    # ||M||_2^2 is the top eigenvalue of G; trace(G) overestimates it up to
    # q-fold, and the larger shift leaves Q0 too ill conditioned
    shift = 11.0 * (p * q + q * (q + 1)) * UNIT_ROUNDOFF * np.linalg.eigvalsh(G)[-1]
    try:
        R0 = np.linalg.cholesky(G + shift * np.eye(q)).T
    except np.linalg.LinAlgError:
        return None
    Q0 = _right_solve(M, R0)
    found = _cholesky_qr2(Q0, Q0.T @ Q0, SHIFTED_MIN_RATIO)
    if found is None:
        return None
    Q1, R2, R1 = found
    return QrFactors(Q1=Q1, T=np.linalg.inv(R2), R=R2 @ R1 @ R0)


def qr_factor(M: np.ndarray, checked: bool = False) -> QrFactors:
    """M = Q R of a real p-by-q matrix of any shape, Q in implicit form;
    every tall matrix is factored here, small ones go to thin_svd.

    A tall one, with p >= CHOLQR_MIN_ASPECT * q, takes the Cholesky routes:
    CholeskyQR2, else shifted CholeskyQR3 from the same Gram matrix. Every
    other input, and a tall one that those refuse (see SHIFTED_MIN_RATIO),
    goes to Householder QR. The route depends on the input alone. M may
    have any memory layout; checked=True skips the pass that refuses
    non-finite entries, for data a SnapshotSet has validated.
    """
    M = _as_matrix(M, checked)
    p, q = M.shape
    try:
        found = _cholesky_qr(M) if p >= CHOLQR_MIN_ASPECT * q > 0 else None
        if found is None:
            Q, R = np.linalg.qr(M)
            found = QrFactors(Q1=Q, T=None, R=R)
    except np.linalg.LinAlgError as exc:
        raise NumericalGuardError(f"LAPACK failed to factor a {p}-by-{q} matrix: {exc}") from exc
    return found


def thin_svd(M: np.ndarray) -> SvdFactors:
    """Thin SVD of a small real p-by-q matrix of any shape by LAPACK, with
    the module's sign convention. Small means a core or an R factor: a tall
    matrix goes to qr_factor, and the SVD of its R, lifted, is its own.
    """
    try:
        W, sigma, Vt = np.linalg.svd(_as_matrix(M), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalGuardError(f"LAPACK failed on the SVD of a small matrix: {exc}") from exc
    V = Vt.T.copy()
    sign = column_signs(W)
    W *= sign
    V *= sign
    return SvdFactors(W=W, sigma=sigma, V=V)
