"""Spectral decomposition of the fitted low-rank operator: eigenvalues,
modes, and their time-varying amplitudes.

The operator A = L R (A = P Q^T in the paper's notation) is never formed:
its nonzero eigenvalues are those of a rho-by-rho matrix, whose
eigenvectors are mapped back to state space. Two mappings ship:

* ``exact_reconstruction`` (default): the eigenpairs (lambda, w) of the
  operator's transition R L give phi = L w, since A (L w) = L (R L w) =
  lambda L w. These satisfy A phi = lambda phi up to roundoff, which
  verify_eigenpairs checks. The transition and the singular values of R,
  which the rank guard checks, come with the operator (at size c for an
  optimal fit); the one n-row product left is the map w -> L w.
* ``as_stated``: with the thin SVD Q = R^T = Wq Sq Vq^T, the eigenvectors
  w of Wq^T L Vq Sq give phi = Wq w. Reported as-is; these columns are not
  in general eigenvectors of A, and verify_eigenpairs quantifies by how
  much. With Q = Qb Rb, Wq = Qb Ur comes from the small SVD Rb = Ur Sq
  Vq^T, and is never formed: the core is Ur^T (Qb^T L) Vq Sq, one n-row
  product, and the modes Qb (Ur w).

Either map is one real n-row product (as in DMD_RRR, Drmac, Mezic & Mohr
2018): LAPACK's real eigenvector basis of the small matrix, a real vector
for each real eigenvalue and [Re w, Im w] for each conjugate pair, is
lifted by L (or, mapped by Ur, by Qb), n k^2 flops. A real spectrum then
gives float64 modes, as np.linalg.eig gives a real W; a spectrum with a
conjugate pair gives complex modes, the second of each pair the exact
conjugate of the first. verify_eigenpairs, amplitudes and
rom.reconstruct_from_modes follow the dtype.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeWarning, RankGuardError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    _check_tol,
    column_signs,
    numerical_rank,
    qr_factor,
    row_blocks,
    thin_svd,
)
from .solvers import DmdOperator

VARIANTS = ("exact_reconstruction", "as_stated")


@dataclass(frozen=True)
class DmdModes:
    """Eigenvalue/mode pairs of a fitted operator.

    eigenvalues is a vector of length k and modes is n-by-k; column i is
    the unit-norm mode paired with eigenvalues[i], else ValidationError.
    compute_modes returns float64 eigenvalues and modes when the spectrum
    is real, and complex128 ones, each conjugate pair's modes exact
    conjugates, when it is not; every consumer follows the dtype.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        lam, phi = np.shape(self.eigenvalues), np.shape(self.modes)
        if len(lam) != 1 or len(phi) != 2 or phi[1] != lam[0]:
            raise ValidationError(
                f"modes must be n-by-k for a vector of k eigenvalues; got "
                f"eigenvalues of shape {lam} and modes of shape {phi}"
            )


@dataclass(frozen=True)
class AmplitudeSchedule:
    """values[t-1, i] is the amplitude of mode i at time t = 1..T."""

    values: np.ndarray


@dataclass(frozen=True)
class EigenpairReport:
    """Residuals ||A phi_i - lambda_i phi_i|| for each mode, with a
    pass/fail flag against the caller's tolerance."""

    residuals: np.ndarray
    tolerance: float

    @property
    def passed(self) -> np.ndarray:
        return self.residuals <= self.tolerance

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def _spectral_sort(eigenvalues: np.ndarray) -> np.ndarray:
    """Deterministic order: descending |lambda|, then descending real part,
    then descending imaginary part (conjugate pairs stay adjacent, +i first,
    unless a pair repeats: the stable sort then gives lambda, lambda, conj,
    conj)."""
    return np.lexsort((-eigenvalues.imag, -eigenvalues.real, -np.abs(eigenvalues)))


def _unit_modes(U: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Unit modes from the lifted real eigenvector basis U (n-by-k).

    Columns first[p] and second[p] hold the real and imaginary parts of one
    complex mode u + i v, which goes to column first[p] and its conjugate to
    second[p]; every other column is a real mode. Each mode has unit l2
    norm and its largest-magnitude entry made real positive, the first index
    winning ties: column_signs for a real mode, the phase of that entry for
    a complex one. Real modes alone are U itself, scaled in place; with a
    pair the modes are complex and C-contiguous, each column of their real
    view a combination of at most two columns of U, formed by one product.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", U, U))
    norms[first] = norms[second] = np.hypot(norms[first], norms[second])
    if np.any(norms == 0.0):
        raise ValidationError("mode column collapsed to zero")
    scale = column_signs(U) / norms
    if first.size == 0:
        U *= scale
        return U
    mag = U[:, first] ** 2
    mag += U[:, second] ** 2
    i = np.argmax(mag, axis=0)  # the first index wins ties
    phase = U[i, first] - 1j * U[i, second]  # conjugate of the pivot
    phase /= np.abs(phase) * norms[first]
    k = U.shape[1]
    S = np.zeros((k, k, 2))  # S[:, j] gives (Re, Im) of mode j
    S[np.arange(k), np.arange(k), 0] = scale
    # (u + i v)(c + i s) = (u c - v s) + i (u s + v c); the conjugates are
    # copied after the product, so that they are exact
    S[first, first, 0], S[first, first, 1] = phase.real, phase.imag
    S[second, first, 0], S[second, first, 1] = -phase.imag, phase.real
    modes = (U @ S.reshape(k, 2 * k)).view(np.complex128)
    for f, s in zip(first.tolist(), second.tolist()):
        np.conjugate(modes[:, f], out=modes[:, s])
    return modes


def _dtype(modes: "DmdModes") -> np.dtype:
    """float64 when both the modes and the eigenvalues are real, else
    complex128: the dtype of Phi diag(lambda) and of the amplitudes."""
    return np.result_type(modes.modes, modes.eigenvalues, np.float64)


def _real_view(Z: np.ndarray) -> np.ndarray:
    """Z itself when it is float64; a complex Z as its interleaved (re, im)
    columns, a float64 view of it made C-contiguous."""
    return Z if Z.dtype == np.float64 else np.ascontiguousarray(Z).view(np.float64)


def compute_modes(
    op: DmdOperator,
    variant: str = "exact_reconstruction",
    tol: float = DEFAULT_TOL,
) -> DmdModes:
    """Eigenvalues and modes of the fitted operator A = L R.

    ``exact_reconstruction`` solves the rho-by-rho eigenproblem for
    op.transition (R L) and maps w to L w; modes paired with zero
    eigenvalues are dropped with a warning. ``as_stated`` solves it for
    Wq^T L Vq Sq (with R^T = Wq Sq Vq^T) and maps w to Wq w. Either way R
    must have numerical rank rho, by op.right_singular_values; tol, as in
    factorize, must lie in [0, 1).
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown mode variant {variant!r}; expected one of {VARIANTS}")
    _check_tol(tol)
    k = op.declared_rank
    rank_q = numerical_rank(op.right_singular_values, tol)
    if rank_q < k:
        raise RankGuardError(
            f"operator factor Q lost rank ({rank_q} < {k}); reduce the target rank"
        )
    as_stated = variant == "as_stated"
    if as_stated:
        # Wq = Qb Ur is never formed: Wq^T L = Ur^T (Qb^T L)
        b = qr_factor(op.right.T)
        fq = thin_svd(b.R)
        core = fq.W.T @ b.project(op.left) @ (fq.V * fq.sigma)
    else:
        core = op.transition
    eigenvalues, W = np.linalg.eig(core)
    kept = np.ones(eigenvalues.shape, dtype=bool)
    if not as_stated:
        scale = max(float(np.abs(eigenvalues).max(initial=0.0)), float(np.linalg.norm(core)))
        kept = np.abs(eigenvalues) > tol * scale
        if not np.all(kept):
            dropped = int(np.count_nonzero(~kept))
            warnings.warn(
                f"dropped {dropped} mode(s) with zero eigenvalue; the "
                "exact_reconstruction variant reports nonzero eigenvalues only",
                DegenerateModeWarning,
                stacklevel=2,
            )
    order = _spectral_sort(eigenvalues)
    order = order[kept[order]]
    # LAPACK's real basis: a pair's +imag column j is V[:, j] + i V[:, j+1]
    # (a conjugate has the same modulus, so both are kept or dropped)
    pairs = np.flatnonzero(kept & (eigenvalues.imag > 0))
    V = np.real(W).copy()
    V[:, pairs + 1] = np.imag(W[:, pairs])
    place = np.empty(eigenvalues.shape, dtype=np.intp)
    place[order] = np.arange(order.size)
    # one real n-row product, column-major: (V^T L^T)^T = L V, or Wq V =
    # ((Ur V)^T Qb^T)^T
    V = V[:, order]
    U = b.lift_rows((fq.W @ V).T).T if as_stated else (V.T @ op.left.T).T
    modes = _unit_modes(U, place[pairs], place[pairs + 1])
    return DmdModes(eigenvalues=eigenvalues[order], modes=modes)


def verify_eigenpairs(modes: DmdModes, op: DmdOperator) -> EigenpairReport:
    """Residuals ||A phi_i - lambda_i phi_i||_2 evaluated through the factors:
    L (R Phi) - Phi diag(lambda), with R Phi rho-by-k, block by block of rows.

    Both sides are formed on the real view of the modes (_real_view): real
    modes with real eigenvalues take real products of k columns, and a
    complex Phi or lambda takes those of the 2k interleaved (re, im)
    columns. The residuals take no shortcut through the fit: they use the
    n-row factors, so they check the modes independently of the k-by-k
    core they came from. The report's tolerance is 1e-8 * ||A||_F, the
    scale at which the exact_reconstruction variant is expected to be
    exact; ||A||_F is DmdOperator.frobenius, at size c for an optimal fit.
    """
    n, k = modes.modes.shape
    if op.n != n:
        raise ValidationError("operator and modes have mismatched dimensions")
    phi = np.asarray(modes.modes, dtype=_dtype(modes))
    reduced = op.right @ _real_view(phi)
    squares = np.zeros(reduced.shape[1])
    for rows in row_blocks(n):
        block = op.left[rows] @ reduced
        block -= _real_view(phi[rows] * modes.eigenvalues)
        squares += np.einsum("ij,ij->j", block, block)
    # one column per mode, two when complex; k = 0 gives an empty report
    residuals = np.sqrt(squares.reshape(k, phi.itemsize // 8).sum(axis=1))
    return EigenpairReport(residuals=residuals, tolerance=1e-8 * op.frobenius)


def _check_theta(theta, n):
    """theta as a finite float64 vector of dimension n, else ValidationError."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (n,):
        raise ValidationError(f"theta must be a vector of dimension {n}")
    if not np.all(np.isfinite(theta)):
        raise ValidationError("theta contains non-finite values")
    return theta


def _check_horizon(horizon, stride=1):
    """ValidationError unless horizon >= 1 and stride >= 1."""
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if stride < 1:
        raise ValidationError("stride must be >= 1")


def amplitudes(modes: DmdModes, theta: np.ndarray, horizon: int) -> AmplitudeSchedule:
    """Amplitude schedule nu[t, i] = lambda_i^(t-1) * (phi_i^* theta).

    Built by the geometric recurrence nu[t+1] = lambda * nu[t], as one
    running product down the time axis (np.cumprod), not by raising
    eigenvalues to powers. For real eigenvalues it is bit-identical to
    multiplying step by step; for complex ones numpy's accumulating product
    may round differently, by about 1e-14 relative over 1000 steps.
    """
    _check_horizon(horizon)
    theta = _check_theta(theta, modes.modes.shape[0])
    k = modes.eigenvalues.shape[0]
    values = np.empty((horizon, k), dtype=_dtype(modes))
    values[0] = np.conj(theta @ modes.modes)
    values[1:] = modes.eigenvalues
    np.cumprod(values, axis=0, out=values)
    return AmplitudeSchedule(values=values)
