"""Spectral decomposition of the fitted low-rank operator: eigenvalues,
modes, and their time-varying amplitudes.

The operator A = P Q^T is never materialized: its nonzero eigenvalues are
those of a k-by-k matrix, whose eigenvectors are mapped back to state
space. Two mappings ship:

* ``exact_reconstruction`` (default): the eigenpairs (lambda, w) of Q^T P
  give phi = P w, since A (P w) = P (Q^T P w) = lambda P w. These satisfy
  A phi = lambda phi up to roundoff, which verify_eigenpairs checks. No
  n-row factorization is needed: Q's rank, which the rank guard checks,
  and Q^T P itself, formed at size c, come with the optimal fit; the one
  n-row product left is the map w -> P w.
* ``as_stated``: with the thin SVD Q = Wq Sq Vq^T, the eigenvectors w of
  Wq^T P Vq Sq give phi = Wq w. Reported as-is; these columns are not in
  general eigenvectors of A, and verify_eigenpairs quantifies by how much.
  With Q = Qb R, Wq = Qb Ur comes from the small SVD R = Ur Sq Vq^T.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeWarning, RankGuardError, ValidationError
from .linalg import DEFAULT_TOL, numerical_rank, qr_factor, thin_svd
from .solvers import _ROW_BLOCK, DmdOperator, OptimalLowRankFactors

VARIANTS = ("exact_reconstruction", "as_stated")


@dataclass(frozen=True)
class DmdModes:
    """Eigenvalue/mode pairs of a fitted operator.

    eigenvalues has length k and modes is n-by-k complex; column i is the
    unit-norm mode paired with eigenvalues[i]. variant records which
    mapping produced the modes.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    variant: str
    source_rank: int


@dataclass(frozen=True)
class AmplitudeSchedule:
    """values[t-1, i] is the amplitude of mode i at time t = 1..T."""

    values: np.ndarray
    theta: np.ndarray


@dataclass(frozen=True)
class EigenpairReport:
    """Residuals ||A phi_i - lambda_i phi_i|| for each mode, with a
    pass/fail flag against the caller's tolerance."""

    residuals: np.ndarray
    tolerance: float
    operator_norm: float

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
    for r in range(0, modes.shape[0], _ROW_BLOCK):
        block = modes[r : r + _ROW_BLOCK]
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
    f: OptimalLowRankFactors,
    variant: str = "exact_reconstruction",
    tol: float = DEFAULT_TOL,
) -> DmdModes:
    """Eigenvalues and modes of the fitted operator A = P Q^T.

    ``exact_reconstruction`` solves the k-by-k eigenproblem for Q^T P,
    f.transition when the fit supplied it, else formed over the n rows, and
    maps w to P w; modes paired with zero eigenvalues are dropped with a
    warning. ``as_stated`` solves it for
    Wq^T P Vq Sq (with Q = Wq Sq Vq^T) and maps w to Wq w. Either way Q
    must have numerical rank k; its singular values come from f.q_core
    when the fit supplied it, else from the R of Q = Qb R.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown mode variant {variant!r}; expected one of {VARIANTS}")
    k = f.rank
    b = qr_factor(f.Q) if variant == "as_stated" or f.q_core is None else None
    fq = None if b is None else thin_svd(b.R)
    sigma_q = np.linalg.svd(f.q_core, compute_uv=False) if fq is None else fq.sigma
    rank_q = numerical_rank(sigma_q, tol)
    if rank_q < k:
        raise RankGuardError(
            f"operator factor Q lost rank ({rank_q} < {k}); reduce the target rank"
        )
    Wq = b.lift(fq.W) if variant == "as_stated" else None
    if Wq is not None:
        core = Wq.T @ f.P @ (fq.V * fq.sigma)
    else:
        core = f.Q.T @ f.P if f.transition is None else f.transition
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
        modes = _real_times_complex(f.P, W)
    return DmdModes(
        eigenvalues=eigenvalues,
        modes=_normalize_columns(modes),
        variant=variant,
        source_rank=k,
    )


def verify_eigenpairs(modes: DmdModes, op: DmdOperator) -> EigenpairReport:
    """Residuals ||A phi_i - lambda_i phi_i||_2 evaluated through the factors:
    L (R Phi) - Phi diag(lambda), with R Phi rho-by-k, block by block of rows.

    The residuals take no shortcut through the fit: they use the n-row
    factors, so they check the modes independently of the k-by-k core they
    came from. The report's tolerance is 1e-8 * ||A||_F, the scale at which
    the exact_reconstruction variant is expected to be exact; ||A||_F is
    DmdOperator.frobenius_norm, at size c for an optimal fit.
    """
    n = modes.modes.shape[0]
    if op.n != n:
        raise ValidationError("operator and modes have mismatched dimensions")
    reduced = _real_times_complex(op.right, modes.modes)
    squares = np.zeros(modes.eigenvalues.shape[0])
    for r in range(0, n, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        block = _real_times_complex(op.left[rows], reduced)
        block -= modes.modes[rows] * modes.eigenvalues
        squares += _column_squares(block)
    residuals = np.sqrt(squares)
    a_norm = op.frobenius_norm()
    return EigenpairReport(residuals=residuals, tolerance=1e-8 * a_norm, operator_norm=a_norm)


def _check_theta(theta, n):
    """theta as a finite float64 vector of dimension n, else ValidationError."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (n,):
        raise ValidationError(f"theta must be a vector of dimension {n}")
    if not np.all(np.isfinite(theta)):
        raise ValidationError("theta contains non-finite values")
    return theta


def amplitudes(modes: DmdModes, theta: np.ndarray, horizon: int) -> AmplitudeSchedule:
    """Amplitude schedule nu[t, i] = lambda_i^(t-1) * (phi_i^* theta).

    Built by the geometric recurrence nu[t+1] = lambda * nu[t], as one
    running product down the time axis (np.cumprod), not by raising
    eigenvalues to powers. For real eigenvalues it is bit-identical to
    multiplying step by step; for complex ones numpy's accumulating product
    may round differently, by about 1e-14 relative over 1000 steps.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    theta = _check_theta(theta, modes.modes.shape[0])
    k = modes.eigenvalues.shape[0]
    values = np.empty((horizon, k), dtype=np.complex128)
    values[0] = np.conj(theta @ modes.modes)
    values[1:] = modes.eigenvalues
    np.cumprod(values, axis=0, out=values)
    return AmplitudeSchedule(values=values, theta=theta)
