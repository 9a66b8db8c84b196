"""Rank-constrained linear-operator fitters for snapshot data.

All fitters minimize (or approximate the minimizer of) the Frobenius
residual ||Y - A X|| over operators A of rank at most k, and all of them
are slices of one Factorization of the data, built by factorize():

* exact()      -- unconstrained least squares A = Y X^+.
* truncated(k) -- rank-k truncation of the unconstrained solution;
  optimal approximation of the operator, not of the residual.
* projected(k) -- solves the problem restricted to operators whose action
  on X stays in the column span of X (the classic projected approach);
  exact only when the data satisfies that span assumption.
* optimal(k)   -- the closed-form global minimizer, reduced-rank
  regression (Izenman 1975): the orthogonal projection of the
  unconstrained solution onto the dominant k-dimensional left singular
  subspace of Y V_x, for X of any shape and rank.

fit_exact_dmd, fit_truncated_exact_dmd, fit_projected_dmd and
fit_optimal_lowrank_dmd factorize and slice in one call.

Operators are kept in factored (n x rho)(rho x n) form; nothing here
materializes an n-by-n matrix unless materialize() is called explicitly.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    RankClampWarning,
    RankDeficiencyWarning,
    RankGuardError,
    ValidationError,
)
from .linalg import DEFAULT_TOL, SvdFactors, thin_svd
from .snapshots import DataMatrices

MATERIALIZE_GUARD = 10_000


@dataclass(frozen=True)
class DmdOperator:
    """A fitted linear operator A = left @ right of rank <= declared_rank.

    left is n-by-rho and right rho-by-n, so applying the operator costs
    O(n * rho) instead of O(n^2).
    """

    left: np.ndarray
    right: np.ndarray
    method_tag: str

    @property
    def n(self) -> int:
        return self.left.shape[0]

    @property
    def declared_rank(self) -> int:
        return self.left.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector (or matrix-matrix) product through the factors."""
        return self.left @ (self.right @ x)

    def frobenius_norm(self) -> float:
        """||A||_F from the factors: sqrt(tr((L^T L)(R R^T)))."""
        return float(np.sqrt(abs(np.sum((self.left.T @ self.left) * (self.right @ self.right.T)))))


@dataclass(frozen=True)
class OptimalLowRankFactors:
    """Factor bundle from the optimal solver, reused by the spectral and
    reduced-order modules.

    P (n, k): orthonormal basis of the dominant left singular subspace of Y V_x.
    Q (n, k): (Y X^+)^T P, so the fitted operator is A = P Q^T.
    """

    P: np.ndarray
    Q: np.ndarray

    @property
    def rank(self) -> int:
        return self.P.shape[1]


def _check_rank_arg(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValidationError("rank must be an integer")
    if k < 1:
        raise ValidationError("rank must be >= 1")
    return int(k)


@dataclass(frozen=True)
class Factorization:
    """The factorizations of one snapshot pair (X, Y) that every fitter slices.

    X = W diag(s) V^T is the rank-r thin SVD of X, r its numerical rank at
    tol, so X^+ = V diag(1/s) W^T and Y X^+ = (Y V) diag(1/s) W^T. The thin
    SVD Y V = P diag(t) U^T (``yv``) and the r-by-r cores of the truncated
    and projected fits are computed on first use and cached, so the exact
    and projected fits pay for the SVD of X alone. Build it with factorize().
    """

    data: DataMatrices
    tol: float
    strict: bool
    W: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @property
    def rank_x(self) -> int:
        return self.s.shape[0]

    @cached_property
    def yv(self) -> SvdFactors:
        """Thin SVD of Y V; its left singular vectors span every optimal fit."""
        return thin_svd(self.data.Y @ self.V)

    @property
    def rank_y(self) -> int:
        """Numerical rank of Y V, which is that of Y when X has full column rank."""
        return self.yv.numerical_rank(self.tol)

    @cached_property
    def _truncation_core(self) -> SvdFactors:
        # Y X^+ = P (diag(t) U^T diag(1/s)) W^T with P and W orthonormal
        return thin_svd((self.yv.sigma[:, None] * self.yv.V.T) / self.s)

    @cached_property
    def _projection_core(self) -> SvdFactors:
        return thin_svd((self.W.T @ self.data.Y) @ self.V)

    def exact(self) -> DmdOperator:
        """Unconstrained least-squares fit A = Y X^+ = (Y V diag(1/s)) W^T.

        With full-column-rank X the residual ||Y - A X|| vanishes because
        X^+ X is the identity on R^m.
        """
        left = self.data.Y @ (self.V / self.s)
        return DmdOperator(left=left, right=self.W.T.copy(), method_tag="exact_full")

    def truncated(self, k: int) -> DmdOperator:
        """Rank-k truncation of the unconstrained solution A = Y X^+.

        With core = diag(t) U^T diag(1/s) the solution is P core W^T, and
        because P and W have orthonormal columns the SVD of the r-by-r core
        yields the SVD of the full operator. The n-by-n operator is never
        formed.
        """
        k = _check_rank_arg(k)
        c = self._truncation_core
        keep = min(k, c.numerical_rank(self.tol))
        left = self.yv.W @ (c.W[:, :keep] * c.sigma[:keep])
        right = (self.W @ c.V[:, :keep]).T
        return DmdOperator(left=left, right=right, method_tag="truncated_exact")

    def projected(self, k: int) -> DmdOperator:
        """Span-restricted rank-k fit in the left singular basis of X.

        Projects Y into the X basis, B = W^T Y V, keeps the best rank-k part
        of B, and lifts back, A = W Bk diag(1/s) W^T, assembled directly in
        factored form. Matches the optimal solver exactly when every column
        of Y lies in the column span of X, and plateaus at the span defect
        otherwise.
        """
        k = _check_rank_arg(k)
        b = self._projection_core
        keep = min(k, b.numerical_rank(self.tol))
        left = self.W @ (b.W[:, :keep] * b.sigma[:keep])
        right = (b.V[:, :keep].T / self.s) @ self.W.T
        return DmdOperator(left=left, right=right, method_tag="projected")

    @cached_property
    def span_defect(self) -> float:
        """||Y - X X^+ Y||_F = ||Y - W W^T Y||_F: the part of Y outside the
        column span of X, where the projected fits plateau."""
        Y = self.data.Y
        return float(np.linalg.norm(Y - self.W @ (self.W.T @ Y)))

    @cached_property
    def row_space_defect(self) -> float:
        """||Y - Y X^+ X||_F = ||Y - Y V V^T||_F: the part of Y that no
        operator reaches, since A X = A X X^+ X. Zero when X has full column
        rank, where V V^T is the identity."""
        if self.rank_x == self.data.m:
            return 0.0
        Y = self.data.Y
        return float(np.linalg.norm(Y - (Y @ self.V) @ self.V.T))

    def _optimal_rank(self, k: int) -> int:
        """k, clamped to the numerical rank of Y V with a warning (strict:
        RankGuardError); the projector already covers that whole numerical
        column space, so larger k cannot change the operator."""
        k = _check_rank_arg(k)
        rank_y = self.rank_y
        if rank_y == 0:
            raise RankGuardError("Y is numerically zero on the row space of X; nothing to fit")
        if k > rank_y:
            msg = f"requested rank {k} exceeds the numerical rank {rank_y} of Y V_x; clamped"
            if self.strict:
                raise RankGuardError(msg)
            warnings.warn(msg, RankClampWarning, stacklevel=3)
            k = rank_y
        return k

    def certified_residual(self, k: int) -> float:
        """||Y - A X||_F of optimal(k), from the factors alone.

        Y - A X = (I - P_k P_k^T) Y V V^T + Y (I - V V^T), two parts with
        orthogonal row spaces, so (Eckart-Young) the residual is
        hypot(row_space_defect, ||t_{k+1..}||) with t the singular values of
        Y V. k is clamped as in optimal(k).
        """
        k = self._optimal_rank(k)
        return float(np.hypot(self.row_space_defect, np.linalg.norm(self.yv.sigma[k:])))

    def optimal(self, k: int):
        """Closed-form global minimizer of ||Y - A X|| over rank(A) <= k.

        The minimizer is P_k P_k^T Y X^+ = P_k (diag(t_k) U_k^T diag(1/s) W^T),
        with P_k the top k left singular vectors of Y V, whatever the shape
        and rank of X. Requests beyond the numerical rank of Y V are
        clamped (see _optimal_rank); strict mode raises instead.

        Returns (operator, factors) where factors feed the spectral and
        reduced-order modules.
        """
        k = self._optimal_rank(k)
        f = self.yv
        P = f.W[:, :k].copy()
        Qt = ((f.sigma[:k, None] * f.V[:, :k].T) / self.s) @ self.W.T
        op = DmdOperator(left=P, right=Qt, method_tag="optimal")
        return op, OptimalLowRankFactors(P=P, Q=Qt.T.copy())


def factorize(d: DataMatrices, tol: float = DEFAULT_TOL, strict: bool = False) -> Factorization:
    """The Factorization of (X, Y) that the fitters slice.

    X may have any shape. When its numerical rank r is below m (always so
    when m > n) the fits act through the thresholded pseudo-inverse of its
    rank-r part, after a RankDeficiencyWarning; strict mode raises
    RankGuardError instead.
    """
    fx = thin_svd(d.X)
    r = fx.numerical_rank(tol)
    if r < d.m:
        msg = (
            f"X is numerically rank-deficient (rank {r} < m={d.m}); "
            "proceeding with a thresholded pseudo-inverse"
        )
        if strict:
            raise RankGuardError(msg)
        warnings.warn(msg, RankDeficiencyWarning, stacklevel=2)
    return Factorization(d, tol, strict, fx.W[:, :r], fx.sigma[:r], fx.V[:, :r])


def fit_exact_dmd(d: DataMatrices, tol: float = DEFAULT_TOL, strict: bool = False) -> DmdOperator:
    """Unconstrained least-squares fit A = Y X^+ (Factorization.exact)."""
    return factorize(d, tol, strict).exact()


def fit_truncated_exact_dmd(
    d: DataMatrices, k: int, tol: float = DEFAULT_TOL, strict: bool = False
) -> DmdOperator:
    """Rank-k truncation of A = Y X^+ (Factorization.truncated)."""
    return factorize(d, tol, strict).truncated(k)


def fit_projected_dmd(
    d: DataMatrices, k: int, tol: float = DEFAULT_TOL, strict: bool = False
) -> DmdOperator:
    """Span-restricted rank-k fit (Factorization.projected)."""
    return factorize(d, tol, strict).projected(k)


def fit_optimal_lowrank_dmd(
    d: DataMatrices, k: int, tol: float = DEFAULT_TOL, strict: bool = False
):
    """Closed-form global minimizer over rank(A) <= k (Factorization.optimal);
    returns (operator, factors)."""
    return factorize(d, tol, strict).optimal(k)


def residual_norm(op: DmdOperator, d: DataMatrices) -> float:
    """Frobenius norm of Y - A X, evaluated through the factors."""
    if op.n != d.n:
        raise ValidationError(
            f"operator dimension {op.n} does not match data dimension {d.n}"
        )
    R = d.Y - op.left @ (op.right @ d.X)
    return float(np.linalg.norm(R))


def materialize(op: DmdOperator) -> np.ndarray:
    """Dense n-by-n form of the operator; guarded against large n."""
    if op.n > MATERIALIZE_GUARD:
        raise ValidationError(
            f"refusing to materialize a {op.n}x{op.n} matrix (guard at {MATERIALIZE_GUARD})"
        )
    return op.left @ op.right
