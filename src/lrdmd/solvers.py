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

The data are compressed once, as in DMD_RRR (Drmac, Mezic and Mohr 2018):
one tall factorization (linalg.qr_factor) gives X = Q R_x and Y = Q_y R_y
with orthonormal Q and Q_y, and every core of every fit is then computed
from the small R factors. For trajectory data Y repeats all but the last
column of each trajectory of X, so one factorization of the distinct
snapshot columns Z = [X, the rest of Y] serves both (Q_y = Q); otherwise X
and Y are factored apart, Y on first use. The n-sized work left is forming
the factors a fit returns; Factorization.residual evaluates ||Y - A X|| of a
fit without forming them.

fit_exact_dmd, fit_truncated_exact_dmd, fit_projected_dmd and
fit_optimal_lowrank_dmd factorize and slice in one call. factorize keeps the
Factorization it built last and returns it again when called with the same
DataMatrices, tol and strict, so fits of one dataset share its tall
factorization and its cached cores. A DataMatrices is read-only, and so is
every array a Factorization holds.

Operators are kept in factored (n x rho)(rho x n) form; nothing here
materializes an n-by-n matrix unless materialize() is called explicitly.
"""

import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    RankClampWarning,
    RankDeficiencyWarning,
    RankGuardError,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    QrFactors,
    SvdFactors,
    column_signs,
    numerical_rank,
    qr_factor,
    thin_svd,
)
from .snapshots import DataMatrices

MATERIALIZE_GUARD = 10_000

# Largest share of the columns of Y that may be new, copies of no column of
# X, for factorize() to factor Z = [X, the u new columns] in place of X and
# Y apart. Cholesky QR of an n-by-c matrix costs 4 n c^2 flops (two Grams of
# n c^2 and one product of 2 n c^2), so
#   Z, c = m + u columns:             4 n (m + u)^2
#   X, and Y when a fit needs it:     4 n m^2 + 4 n m^2 = 8 n m^2.
# Z is cheaper while (m + u)^2 < 2 m^2, up to u = 0.41 m. At u = m/4 it costs
# 6.25 n m^2, 22 % below X and Y apart; the fits that need X alone (exact,
# projected) then pay 56 % over 4 n m^2, less the 2 n m^2 product Q_x^T Y that
# the projected fit needs when Y is not in the basis. For trajectory data u
# is the number of trajectories.
SHARED_MAX_NEW = 0.25

# Rows taken at a time by the loops over the n rows of the data (confirming
# repeated columns, residual_norm, and the eigenpair check and column pivots
# of modes): blocks of a few hundred rows stay in cache, and no n-row
# temporary is formed.
_ROW_BLOCK = 256

# The Factorization that factorize() built last, as (weak reference to its
# DataMatrices, (tol, strict), Factorization), or None. One slot keeps at
# most one set of n-row bases alive; it empties when that DataMatrices is
# freed. It is read once per call and replaced whole, so threads racing on
# it can only lose it, never get another dataset's factorization.
_last = None


def _forget(ref) -> None:
    """Empty the slot once the DataMatrices it was built for is freed."""
    global _last
    last = _last
    if last is not None and last[0] is ref:
        _last = None


def _read_only(x):
    """x, an array or a tuple, with every array in it made read-only: a
    Factorization outlives the call that built it, so nothing it holds or
    hands out from its caches may be written into."""
    if isinstance(x, tuple):
        for item in x:
            _read_only(item)
    elif isinstance(x, np.ndarray):
        x.flags.writeable = False
    return x


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
    q_core (k, r): a small matrix with the singular values of Q, which the
    optimal fit supplies (Q = W q_core^T up to column signs, W orthonormal)
    so that they cost a k-by-r SVD; None for a bundle built by hand, whose
    Q compute_modes then factors itself. P and Q are the operator's left
    factor and the transpose of its right one, not copies.
    """

    P: np.ndarray
    Q: np.ndarray
    q_core: np.ndarray | None = None

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

    X and Y are the arrays of the DataMatrices it was built from, not that
    object, so dropping the DataMatrices frees factorize()'s slot.

    ``basis`` is X = Q R_x (linalg.QrFactors), or, when ``y_columns`` is
    set, Z = Q R_z for Z = [X, the columns of Y that repeat no column of
    X]: then R_x = R_z[:, :m] and Y = Q R_y with R_y = R_z[:, y_columns].
    Otherwise Y is factored apart, Y = Q_y R_y, on first use. The rank-r
    thin SVD R_x = U diag(s) V^T (r the numerical rank of X at tol) gives
    X = W diag(s) V^T with W = Q U, which is never formed, so X^+ =
    V diag(1/s) W^T. The thin SVD R_y V = P^ diag(t) U_y^T (``yv``) gives
    Y V = (Q_y P^) diag(t) U_y^T. It and the r-by-r cores of the truncated
    and projected fits are computed on first use and cached, so the exact
    and projected fits never need Y factored. Build it with factorize().
    """

    X: np.ndarray
    Y: np.ndarray
    tol: float
    strict: bool
    basis: QrFactors
    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    y_columns: np.ndarray | None

    @property
    def rank_x(self) -> int:
        return self.s.shape[0]

    @cached_property
    def _y(self) -> tuple:
        """(Q_y, R_y) with Y = Q_y R_y: the shared basis, or Y's own."""
        if self.y_columns is not None:
            return _read_only((self.basis, self.basis.R[:, self.y_columns]))
        f = qr_factor(self.Y)
        _read_only((f.Q1, f.T, f.R))
        return f, f.R

    @cached_property
    def yv(self) -> SvdFactors:
        """Thin SVD of R_y V. Y V = Q_y R_y V, so it has the singular values
        of Y V, and Q_y times its left singular vectors spans every optimal
        fit."""
        f = thin_svd(self._y[1] @ self.V)
        _read_only((f.W, f.sigma, f.V))
        return f

    @cached_property
    def rank_y(self) -> int:
        """Numerical rank of Y V, which is that of Y when X has full column rank."""
        return self.yv.numerical_rank(self.tol)

    @cached_property
    def rank_of_y(self) -> int:
        """Numerical rank of Y itself, from the singular values of R_y."""
        return numerical_rank(np.linalg.svd(self._y[1], compute_uv=False), self.tol)

    @cached_property
    def _y_coords(self) -> np.ndarray:
        """Q^T Y: R_y itself when Y is in the basis, else one n-row product."""
        if self.y_columns is not None:
            return self._y[1]
        return _read_only(self.basis.project(self.Y))

    # Each fit is (Q_y or Q) L_k times R_k Q^T; the cached coefficient
    # matrices below are small and hold every k at once.

    @cached_property
    def _optimal_coefs(self) -> tuple:
        """(P^, core, core U^T) with core = diag(t) U_y^T diag(1/s), so that
        Y X^+ = (Q_y P^) core W^T and W^T = U^T Q^T."""
        f = self.yv
        core = (f.sigma[:, None] * f.V.T) / self.s
        return _read_only((f.W, core, core @ self.U.T))

    @cached_property
    def _truncation_coefs(self) -> tuple:
        """(L, R, rank) from the SVD core = Uc Sc Vc^T: L = P^ Uc Sc and
        R = Vc^T U^T, Q_y and W orthonormal, so the SVD of the small core
        is that of Y X^+."""
        c = thin_svd(self._optimal_coefs[1])
        L, R = self.yv.W @ (c.W * c.sigma), c.V.T @ self.U.T
        return _read_only((L, R, c.numerical_rank(self.tol)))

    @cached_property
    def _projection_coefs(self) -> tuple:
        """(L, R, rank) from the SVD B = Ub Sb Vb^T of B = W^T Y V =
        U^T (Q^T Y) V: L = U Ub Sb and R = Vb^T diag(1/s) U^T."""
        b = thin_svd((self.U.T @ self._y_coords) @ self.V)
        L, R = self.U @ (b.W * b.sigma), (b.V.T / self.s) @ self.U.T
        return _read_only((L, R, b.numerical_rank(self.tol)))

    def exact(self) -> DmdOperator:
        """Unconstrained least-squares fit A = Y X^+ = (Y V diag(1/s)) W^T.

        With full-column-rank X the residual ||Y - A X|| vanishes because
        X^+ X is the identity on R^m.
        """
        left = self.Y @ (self.V / self.s)
        return DmdOperator(left=left, right=self.basis.lift_rows(self.U.T), method_tag="exact_full")

    def truncated(self, k: int) -> DmdOperator:
        """Rank-k truncation of the unconstrained solution A = Y X^+.

        With core = diag(t) U_y^T diag(1/s) the solution is (Q_y P^) core
        W^T, and because Q_y P^ and W have orthonormal columns the SVD of the
        r-by-r core yields the SVD of the full operator. The n-by-n operator
        is never formed.
        """
        k = _check_rank_arg(k)
        L, R, rank = self._truncation_coefs
        keep = min(k, rank)
        left = self._y[0].lift(L[:, :keep])
        return DmdOperator(left=left, right=self.basis.lift_rows(R[:keep]), method_tag="truncated_exact")

    def projected(self, k: int) -> DmdOperator:
        """Span-restricted rank-k fit in the left singular basis of X.

        Projects Y into the X basis, B = W^T Y V, keeps the best rank-k part
        of B, and lifts back, A = W Bk diag(1/s) W^T, assembled directly in
        factored form. Matches the optimal solver exactly when every column
        of Y lies in the column span of X, and plateaus at the span defect
        otherwise.
        """
        k = _check_rank_arg(k)
        L, R, rank = self._projection_coefs
        keep = min(k, rank)
        left = self.basis.lift(L[:, :keep])
        return DmdOperator(left=left, right=self.basis.lift_rows(R[:keep]), method_tag="projected")

    @cached_property
    def span_defect(self) -> float:
        """||Y - X X^+ Y||_F = ||Y - W W^T Y||_F: the part of Y outside the
        column span of X, where the projected fits plateau.

        With B = Q^T Y, Y - W W^T Y = (Y - Q B) + Q (B - U U^T B), two
        orthogonal parts. The first vanishes when Y is in the basis; it is
        the one n-row term otherwise.
        """
        B = self._y_coords
        return float(np.hypot(self._outside, np.linalg.norm(B - self.U @ (self.U.T @ B))))

    @cached_property
    def _outside(self) -> float:
        """||Y - Q Q^T Y||_F: the part of Y outside X's basis, 0 when Y is in
        it and otherwise the one n-row term."""
        if self.y_columns is not None:
            return 0.0
        return float(np.linalg.norm(self.Y - self.basis.lift(self._y_coords)))

    @cached_property
    def row_space_defect(self) -> float:
        """||Y - Y X^+ X||_F = ||Y - Y V V^T||_F = ||R_y - R_y V V^T||_F: the
        part of Y that no operator reaches, since A X = A X X^+ X. Zero when
        X has full column rank, where V V^T is the identity."""
        if self.rank_x == self.X.shape[1]:
            return 0.0
        Ry = self._y[1]
        return float(np.linalg.norm(Ry - (Ry @ self.V) @ self.V.T))

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

    @cached_property
    def _rows_on_x(self) -> dict:
        """Fit name -> R R_x, the r-by-m row coefficients of that fit times
        R_x = Q^T X, filled by residual() on first use."""
        return {}

    def residual(self, fit: str, k: int) -> float:
        """||Y - A X||_F of the rank-k fit ``fit`` ("optimal", "truncated" or
        "projected"), evaluated at size c with no factor formed.

        Each fit is A = Q' L_k R_k Q^T, so A X = Q' L_k (R R_x)_k. The optimal
        and truncated fits have Q' = Q_y, and the residual is ||R_y - L_k
        (R R_x)_k|| (the optimal column signs cancel in L R). The projected
        fit has Q' = Q, and with B = Q^T Y the residual is hypot(||Y - Q B||,
        ||B - L_k (R R_x)_k||). k is clamped as by the fit itself: optimal(k)
        clamps or raises in _optimal_rank, the others keep min(k, rank).
        """
        if fit == "optimal":
            k = self._optimal_rank(k)
            L, _, R = self._optimal_coefs
        elif fit in ("truncated", "projected"):
            k = _check_rank_arg(k)
            L, R, rank = self._truncation_coefs if fit == "truncated" else self._projection_coefs
            k = min(k, rank)
        else:
            raise ValidationError(f"unknown fit {fit!r}; expected optimal, truncated or projected")
        on_x = self._rows_on_x.get(fit)
        if on_x is None:
            on_x = self._rows_on_x[fit] = _read_only(R @ self.basis.R[:, : self.X.shape[1]])
        fitted = L[:, :k] @ on_x[:k]
        if fit == "projected":
            return float(np.hypot(self._outside, np.linalg.norm(self._y_coords - fitted)))
        return float(np.linalg.norm(self._y[1] - fitted))

    def optimal(self, k: int):
        """Closed-form global minimizer of ||Y - A X|| over rank(A) <= k.

        The minimizer is P_k P_k^T Y X^+ = P_k (diag(t_k) U_k^T diag(1/s) W^T),
        with P_k = Q_y P^_k the top k left singular vectors of Y V, whatever
        the shape and rank of X; the columns of P_k follow thin_svd's sign
        convention. Requests beyond the numerical rank of Y V are clamped
        (see _optimal_rank); strict mode raises instead.

        Returns (operator, factors) where factors feed the spectral and
        reduced-order modules.
        """
        k = self._optimal_rank(k)
        Pc, core, rows = self._optimal_coefs
        P = self._y[0].lift(Pc[:, :k])
        sign = column_signs(P)
        P *= sign
        Qt = self.basis.lift_rows(sign[:, None] * rows[:k])
        op = DmdOperator(left=P, right=Qt, method_tag="optimal")
        return op, OptimalLowRankFactors(P=P, Q=Qt.T, q_core=core[:k])


def _repeated_columns(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """src[j] = the index of a column of X equal to column j of Y, or -1.

    The candidates for column j are the columns of X whose first entry
    equals Y[0, j]; each is then confirmed in full. Equal entries are one
    number (0.0 and -0.0 included), so X[:, src[j]] stands for Y[:, j]
    exactly.
    """
    n, m = X.shape
    src = np.full(m, -1, dtype=np.intp)
    if n == 0:
        return src
    order = np.argsort(X[0], kind="stable")
    keys = X[0, order]
    lo = np.searchsorted(keys, Y[0], side="left")
    hi = np.searchsorted(keys, Y[0], side="right")
    # the first candidate of every column at once, block by block of rows
    cols = np.flatnonzero(lo < hi)
    first = order[lo[cols]]
    same = np.ones(cols.size, dtype=bool)
    for r in range(0, n, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        same &= np.all(X[rows, first] == Y[rows][:, cols], axis=0)
    src[cols[same]] = first[same]
    # the other candidates where the first one failed: several columns of X
    # share that first entry
    for j in cols[~same]:
        for i in order[lo[j] + 1 : hi[j]]:
            if np.array_equal(X[:, i], Y[:, j]):
                src[j] = i
                break
    return src


def factorize(d: DataMatrices, tol: float = DEFAULT_TOL, strict: bool = False) -> Factorization:
    """The Factorization of (X, Y) that the fitters slice.

    When at most SHARED_MAX_NEW * m columns of Y repeat no column of X, as
    for trajectory data, one tall factorization of Z = [X, those columns]
    serves X and Y. Otherwise X is factored here and Y on first use.

    The last Factorization built is kept, and a call with the same
    DataMatrices object (read-only, so its data cannot have changed), tol
    and strict returns it again, with every core it has cached. Another
    object with equal contents is factored anew.

    X may have any shape. When its numerical rank r is below m (always so
    when m > n) the fits act through the thresholded pseudo-inverse of its
    rank-r part, after a RankDeficiencyWarning; strict mode raises
    RankGuardError instead. Either happens on every call, the returned
    Factorization's first or not.
    """
    global _last
    key = (tol, strict)
    last = _last
    if last is not None and last[0]() is d and last[1] == key:
        fac = last[2]
    else:
        # drop the old factorization, this frame's reference too, before the
        # new one is built: one set of n-row bases alive at a time, not two
        _last = last = None
        fac = _factorize(d, tol, strict)
        _last = (weakref.ref(d, _forget), key, fac)
    if fac.rank_x < d.m:
        msg = (
            f"X is numerically rank-deficient (rank {fac.rank_x} < m={d.m}); "
            "proceeding with a thresholded pseudo-inverse"
        )
        if strict:
            raise RankGuardError(msg)
        warnings.warn(msg, RankDeficiencyWarning, stacklevel=2)
    return fac


def _factorize(d: DataMatrices, tol: float, strict: bool) -> Factorization:
    src = _repeated_columns(d.X, d.Y)
    new = np.flatnonzero(src < 0)
    if new.size <= SHARED_MAX_NEW * d.m:
        basis = qr_factor(np.concatenate([d.X, d.Y[:, new]], axis=1) if new.size else d.X)
        src[new] = d.m + np.arange(new.size)
        y_columns = src
    else:
        basis = qr_factor(d.X)
        y_columns = None
    fx = thin_svd(basis.R[:, : d.m])
    r = fx.numerical_rank(tol)
    _read_only((basis.Q1, basis.T, basis.R, y_columns))
    U, s, V = _read_only((fx.W[:, :r], fx.sigma[:r], fx.V[:, :r]))
    return Factorization(d.X, d.Y, tol, strict, basis, U, s, V, y_columns)


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
    """Frobenius norm of Y - A X, evaluated through the factors, its squares
    summed block by block of rows: A X = L (R X) with R X rho-by-m."""
    if op.n != d.n:
        raise ValidationError(
            f"operator dimension {op.n} does not match data dimension {d.n}"
        )
    RX = op.right @ d.X
    total = 0.0
    for r in range(0, d.n, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        block = (d.Y[rows] - op.left[rows] @ RX).ravel()
        total += float(block @ block)
    return float(np.sqrt(total))


def materialize(op: DmdOperator) -> np.ndarray:
    """Dense n-by-n form of the operator; guarded against large n."""
    if op.n > MATERIALIZE_GUARD:
        raise ValidationError(
            f"refusing to materialize a {op.n}x{op.n} matrix (guard at {MATERIALIZE_GUARD})"
        )
    return op.left @ op.right
