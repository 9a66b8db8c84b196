"""Spectral decomposition of the fitted low-rank operator: eigenvalues,
modes, and their time-varying amplitudes.

The operator A = P Q^T is never materialized. An SVD of Q reduces the
n-dimensional eigenproblem to the k-by-k matrix Wq^T P Vq Sq, whose
eigenpairs are mapped back to state space. Two mappings ship:

* ``exact_reconstruction`` (default): phi = (P Vq Sq w) / lambda, the
  commutation-trick eigenvector of A itself. These satisfy
  A phi = lambda phi up to roundoff, which verify_eigenpairs checks.
* ``as_stated``: phi = Wq w. Reported as-is; these columns are not in
  general eigenvectors of A, and verify_eigenpairs quantifies by how much.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeWarning, RankGuardError, ValidationError
from .linalg import DEFAULT_TOL, thin_svd
from .solvers import DmdOperator, OptimalLowRankFactors

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


def _normalize_columns(modes: np.ndarray) -> np.ndarray:
    """Unit l2 columns with the largest-magnitude entry made real positive."""
    norms = np.linalg.norm(modes, axis=0)
    if np.any(norms == 0.0):
        raise ValidationError("mode column collapsed to zero")
    out = modes / norms
    pivots = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    out *= np.conj(pivots) / np.abs(pivots)
    return out


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

    Solves the k-by-k eigenproblem for Wq^T P Vq Sq (with Q = Wq Sq Vq^T)
    and maps eigenvectors to state space according to `variant`. Under
    ``exact_reconstruction``, modes paired with zero eigenvalues cannot be
    recovered and are dropped with a warning.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown mode variant {variant!r}; expected one of {VARIANTS}")
    k = f.rank
    fq = thin_svd(f.Q)
    if fq.numerical_rank(tol) < k:
        raise RankGuardError(
            f"operator factor Q lost rank ({fq.numerical_rank(tol)} < {k}); reduce the target rank"
        )
    core = fq.W.T @ f.P @ (fq.V * fq.sigma)
    eigenvalues, W = np.linalg.eig(core)
    order = _spectral_sort(eigenvalues)
    eigenvalues = eigenvalues[order]
    W = W[:, order]
    if variant == "as_stated":
        modes = _real_times_complex(fq.W, W)
    else:
        scale = max(float(np.abs(eigenvalues).max(initial=0.0)), float(np.linalg.norm(core)))
        nonzero = np.abs(eigenvalues) > tol * scale
        if not np.all(nonzero):
            dropped = int(np.count_nonzero(~nonzero))
            warnings.warn(
                f"dropped {dropped} mode(s) with zero eigenvalue; they have no "
                "eigenvector under the exact_reconstruction mapping",
                DegenerateModeWarning,
                stacklevel=2,
            )
            eigenvalues = eigenvalues[nonzero]
            W = W[:, nonzero]
        modes = _real_times_complex(f.P, (fq.V * fq.sigma) @ W) / eigenvalues
    return DmdModes(
        eigenvalues=eigenvalues,
        modes=_normalize_columns(modes),
        variant=variant,
        source_rank=k,
    )


def verify_eigenpairs(modes: DmdModes, op: DmdOperator) -> EigenpairReport:
    """Residuals ||A phi_i - lambda_i phi_i||_2 evaluated through the factors.

    The report's tolerance is 1e-8 * ||A||_F, the scale at which the
    exact_reconstruction variant is expected to be exact.
    """
    if op.n != modes.modes.shape[0]:
        raise ValidationError("operator and modes have mismatched dimensions")
    applied = _real_times_complex(op.left, _real_times_complex(op.right, modes.modes))
    residuals = np.linalg.norm(applied - modes.modes * modes.eigenvalues, axis=0)
    a_norm = op.frobenius_norm()
    return EigenpairReport(residuals=residuals, tolerance=1e-8 * a_norm, operator_norm=a_norm)


def amplitudes(modes: DmdModes, theta: np.ndarray, horizon: int) -> AmplitudeSchedule:
    """Amplitude schedule nu[t, i] = lambda_i^(t-1) * (phi_i^* theta).

    Built by the geometric recurrence nu[t+1] = lambda * nu[t] (a running
    product), not by raising eigenvalues to powers.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (modes.modes.shape[0],):
        raise ValidationError(
            f"theta must be a vector of dimension {modes.modes.shape[0]}"
        )
    k = modes.eigenvalues.shape[0]
    values = np.empty((horizon, k), dtype=np.complex128)
    values[0] = np.conj(modes.modes).T @ theta
    for t in range(1, horizon):
        values[t] = values[t - 1] * modes.eigenvalues
    return AmplitudeSchedule(values=values, theta=theta)
