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
  Vq^T.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeWarning, RankGuardError, ValidationError
from .linalg import DEFAULT_TOL, _check_tol, numerical_rank, qr_factor, row_blocks, thin_svd
from .solvers import DmdOperator

VARIANTS = ("exact_reconstruction", "as_stated")


@dataclass(frozen=True)
class DmdModes:
    """Eigenvalue/mode pairs of a fitted operator.

    eigenvalues has length k and modes is n-by-k complex; column i is the
    unit-norm mode paired with eigenvalues[i].
    """

    eigenvalues: np.ndarray
    modes: np.ndarray


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
    then descending imaginary part (conjugate pairs stay adjacent, +i first)."""
    return np.lexsort((-eigenvalues.imag, -eigenvalues.real, -np.abs(eigenvalues)))


def _column_squares(Z: np.ndarray) -> np.ndarray:
    """Squared l2 norms of the columns of a complex p-by-k Z, summed over
    its interleaved (re, im) columns without a p-by-k temporary."""
    R = np.ascontiguousarray(Z, dtype=np.complex128).view(np.float64)
    return np.einsum("ij,ij->j", R, R).reshape(-1, 2).sum(axis=1)


def _normalize_columns(modes: np.ndarray) -> np.ndarray:
    """Unit l2 columns with the largest-magnitude entry made real positive
    (the first index winning ties), in place; returns modes."""
    norms = np.sqrt(_column_squares(modes))
    if np.any(norms == 0.0):
        raise ValidationError("mode column collapsed to zero")
    modes /= norms
    k = modes.shape[1]
    cols = np.arange(k)
    top = np.full(k, -1.0)
    pivots = np.empty(k, dtype=modes.dtype)
    for rows in row_blocks(modes.shape[0]):
        block = modes[rows]
        mag = np.abs(block)
        i = np.argmax(mag, axis=0)
        peak = mag[i, cols]
        better = peak > top  # strictly: an earlier block wins ties
        top[better] = peak[better]
        pivots[better] = block[i, cols][better]
    modes *= np.conj(pivots) / np.abs(pivots)
    return modes


def _real_times_complex(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A @ Z for a real A and a complex Z, as one real product on the
    interleaved (re, im) columns of Z instead of a complex one on an
    upcast A."""
    Z = np.ascontiguousarray(Z, dtype=np.complex128)
    return (A @ Z.view(np.float64)).view(np.complex128)


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
    if variant == "as_stated":
        b = qr_factor(op.right.T)
        fq = thin_svd(b.R)
        Wq = b.lift(fq.W)
        core = Wq.T @ op.left @ (fq.V * fq.sigma)
    else:
        core = op.transition
    eigenvalues, W = np.linalg.eig(core)
    order = _spectral_sort(eigenvalues)
    eigenvalues = eigenvalues[order]
    W = W[:, order]
    if variant == "as_stated":
        modes = _real_times_complex(Wq, W)
    else:
        scale = max(float(np.abs(eigenvalues).max(initial=0.0)), float(np.linalg.norm(core)))
        nonzero = np.abs(eigenvalues) > tol * scale
        if not np.all(nonzero):
            dropped = int(np.count_nonzero(~nonzero))
            warnings.warn(
                f"dropped {dropped} mode(s) with zero eigenvalue; the "
                "exact_reconstruction variant reports nonzero eigenvalues only",
                DegenerateModeWarning,
                stacklevel=2,
            )
            eigenvalues = eigenvalues[nonzero]
            W = W[:, nonzero]
        modes = _real_times_complex(op.left, W)
    return DmdModes(eigenvalues=eigenvalues, modes=_normalize_columns(modes))


def verify_eigenpairs(modes: DmdModes, op: DmdOperator) -> EigenpairReport:
    """Residuals ||A phi_i - lambda_i phi_i||_2 evaluated through the factors:
    L (R Phi) - Phi diag(lambda), with R Phi rho-by-k, block by block of rows.

    The residuals take no shortcut through the fit: they use the n-row
    factors, so they check the modes independently of the k-by-k core they
    came from. The report's tolerance is 1e-8 * ||A||_F, the scale at which
    the exact_reconstruction variant is expected to be exact; ||A||_F is
    DmdOperator.frobenius, at size c for an optimal fit.
    """
    n = modes.modes.shape[0]
    if op.n != n:
        raise ValidationError("operator and modes have mismatched dimensions")
    reduced = _real_times_complex(op.right, modes.modes)
    squares = np.zeros(modes.eigenvalues.shape[0])
    for rows in row_blocks(n):
        block = _real_times_complex(op.left[rows], reduced)
        block -= modes.modes[rows] * modes.eigenvalues
        squares += _column_squares(block)
    residuals = np.sqrt(squares)
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
    values = np.empty((horizon, k), dtype=np.complex128)
    values[0] = np.conj(theta @ modes.modes)
    values[1:] = modes.eigenvalues
    np.cumprod(values, axis=0, out=values)
    return AmplitudeSchedule(values=values)
