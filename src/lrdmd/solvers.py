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
snapshot columns serves both (Q_y = Q); otherwise X and Y are factored
apart, Y on first use. Data built from snapshots (build_data_matrices) is
factored where it lies, in its one read-only snapshot array, with no copy
of X, Y or the distinct columns. The n-sized work left is forming the
factors a fit returns; Factorization.residual evaluates ||Y - A X|| of a
fit without forming them.

fit_exact_dmd, fit_truncated_exact_dmd, fit_projected_dmd and
fit_optimal_lowrank_dmd factorize and slice in one call. Each DataMatrices
keeps its Factorization, which factorize returns again for the same tol and
strict, so fits of one dataset share its tall factorization and its cached
cores, whatever other datasets are fitted in between. A DataMatrices is
read-only, and so is every array a Factorization holds or a fit returns.

A fitted operator keeps a link to the Factorization it came from, so
residual_norm on the data it was fitted to is evaluated at size c as well.
Every operator carries its rank-space core (DmdOperator): the transition R
L, which holds the spectrum and the dynamics of A = L R, the Gram L^T L
that guards the rank-space recursion, the singular values of R and
||A||_F. An optimal fit sets all four at size c; any other operator forms
them from its factors on first use. The modes, the reduced-order
trajectories and the eigenpair tolerance read them from the operator.

Operators are kept in factored (n x rho)(rho x n) form; nothing here
forms an n-by-n matrix.
"""

import warnings
import weakref
from dataclasses import dataclass, field
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
# is the number of trajectories N, and m = N (T - 1), so the gate holds for
# T >= 5 snapshots per trajectory.
SHARED_MAX_NEW = 0.25

# Rows taken at a time by the loops over the n rows of the data (confirming
# repeated columns, residual_norm and the part of Y outside X's basis, and
# the eigenpair check and column pivots of modes): blocks of a few hundred
# rows stay in cache, and no n-row temporary is formed.
_ROW_BLOCK = 256

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


def _signed(left: np.ndarray, rows: np.ndarray) -> tuple:
    """(left, rows, sign): a fit's n-row left factor with thin_svd's column
    signs, set after lifting so that they do not depend on the columns
    factored, and its right factor's row coefficients flipped to match."""
    sign = column_signs(left)
    left *= sign
    return left, sign[:, None] * rows, sign


def _distance(Y: np.ndarray, L: np.ndarray, C: np.ndarray) -> float:
    """||Y - L C||_F for n-row Y and L and a small C, its squares summed
    block by block of rows."""
    total = 0.0
    for r in range(0, Y.shape[0], _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        block = (Y[rows] - L[rows] @ C).ravel()
        total += float(block @ block)
    return float(np.sqrt(total))


@dataclass(frozen=True)
class DmdOperator:
    """A fitted linear operator A = left @ right of rank <= declared_rank.

    left is n-by-rho and right rho-by-n, so applying the operator costs
    O(n * rho) instead of O(n^2).

    An operator that a fit returns has ``source`` = (a weak reference to
    the Factorization it was sliced from, the fit's name, the rank it kept
    after any clamp), and residual_norm on the DataMatrices that holds that
    Factorization evaluates it at size c. Its left and right are
    read-only, like every array of the Factorization, so they cannot drift
    from what the link describes. The link is no constructor argument: an
    operator built by hand, or by dataclasses.replace from a fitted one,
    has none. Being weak, it keeps no n-row basis alive: once the
    Factorization goes, with its DataMatrices or when that is factored
    under another tol or strict, the operator's residual is evaluated
    through its factors.

    Its rank-space core is ``transition`` (R L), ``gram`` (L^T L, or None
    when L has orthonormal columns), ``right_singular_values`` (those of
    R) and ``frobenius`` (||A||_F). Each is formed from the factors on
    first use and cached, read-only; an optimal fit sets all four at size
    c (Factorization.optimal).
    """

    left: np.ndarray
    right: np.ndarray
    method_tag: str
    source: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.left.shape[0]

    @property
    def declared_rank(self) -> int:
        return self.left.shape[1]

    @property
    def P(self) -> np.ndarray:
        """left, the paper's P in A = P Q^T. Kept for the benchmark harness,
        which reads it; it goes with ROADMAP item 1's harness adapter."""
        return self.left

    @property
    def Q(self) -> np.ndarray:
        """right.T, the paper's Q in A = P Q^T. Kept for the benchmark
        harness, which reads it; it goes with ROADMAP item 1's harness
        adapter."""
        return self.right.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector (or matrix-matrix) product through the factors."""
        return self.left @ (self.right @ x)

    @cached_property
    def transition(self) -> np.ndarray:
        """R L, the rho-by-rho matrix that carries the nonzero spectrum of A
        and its dynamics in rank space: A^t L = L (R L)^t."""
        return _read_only(self.right @ self.left)

    @cached_property
    def gram(self) -> np.ndarray | None:
        """L^T L, so that ||L z||^2 = z^T (L^T L) z. An optimal fit sets
        None: its L has orthonormal columns, and ||L z|| = ||z||."""
        return _read_only(self.left.T @ self.left)

    @cached_property
    def right_singular_values(self) -> np.ndarray:
        """The singular values of R, those of its R factor R^T = Q_r R_r."""
        return _read_only(thin_svd(qr_factor(self.right.T).R).sigma)

    @cached_property
    def frobenius(self) -> float:
        """||A||_F = sqrt(tr((L^T L)(R R^T)))."""
        return float(np.sqrt(abs(np.sum(self.gram * (self.right @ self.right.T)))))


def _check_rank_arg(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValidationError("rank must be an integer")
    if k < 1:
        raise ValidationError("rank must be >= 1")
    return int(k)


@dataclass(frozen=True)
class Factorization:
    """The factorizations of one snapshot pair (X, Y) that every fitter slices.

    It holds no X and no reference to the DataMatrices it was built from,
    which holds it (see factorize), so dropping the DataMatrices frees
    both. ``Y`` is Y where it lies when Y is factored apart, and None when
    Y is in the basis.

    ``basis`` is Z = Q R_z (linalg.QrFactors) for the columns Z that
    factorize() chose, with R_x = R_z[:, x_columns]: X itself, or, when
    ``y_columns`` is set, the distinct columns of X and Y (the snapshot
    array, or [X, the columns of Y that repeat no column of X]), and then
    Y = Q R_y with R_y = R_z[:, y_columns]. Otherwise Y is factored apart,
    Y = Q_y R_y, on first use. The rank-r
    thin SVD R_x = U diag(s) V^T (r the numerical rank of X at tol) gives
    X = W diag(s) V^T with W = Q U, which is never formed, so X^+ =
    V diag(1/s) W^T. The thin SVD R_y V = P^ diag(t) U_y^T (``yv``) gives
    Y V = (Q_y P^) diag(t) U_y^T. It and the r-by-r cores of the truncated
    and projected fits are computed on first use and cached, so the exact
    and projected fits never need Y factored. Build it with factorize().
    """

    Y: np.ndarray | None
    tol: float
    strict: bool
    basis: QrFactors
    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    x_columns: slice | np.ndarray
    y_columns: np.ndarray | None

    @property
    def n(self) -> int:
        return self.basis.Q1.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[0]

    @property
    def rank_x(self) -> int:
        return self.s.shape[0]

    @cached_property
    def _y(self) -> tuple:
        """(Q_y, R_y) with Y = Q_y R_y: the shared basis, or Y's own."""
        if self.y_columns is not None:
            return _read_only((self.basis, self.basis.R[:, self.y_columns]))
        f = qr_factor(self.Y, checked=True)
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
    def _y_basis_on_x(self) -> np.ndarray:
        """Q^T (Q_y P^): the left singular vectors of Y V in X's basis, P^
        itself when Y is in that basis, else through the cross-Gram
        Q^T Q_y, one n-row product for every optimal fit of this data."""
        if self.y_columns is not None:
            return self.yv.W
        return _read_only(self.basis.inner(self._y[0]) @ self.yv.W)

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

    def _fitted(self, left, right, method_tag: str, fit: str, k: int, **core):
        """The operator left @ right of fit at rank k, read-only and weakly
        linked to this Factorization (DmdOperator.source); core sets the
        optimal fit's rank-space core, by the names of DmdOperator's."""
        op = DmdOperator(left=_read_only(left), right=_read_only(right), method_tag=method_tag)
        object.__setattr__(op, "source", (weakref.ref(self), fit, k))
        op.__dict__.update(core)
        return op

    def _at_size_c(self, fit: str) -> bool:
        """Whether _residual(fit, k) needs no n-row pass: true for every fit
        but the exact one on independent pairs before Y is factored, which
        would factor Y just for it."""
        return fit != "exact" or self.y_columns is not None or "_y" in self.__dict__

    def exact(self) -> DmdOperator:
        """Unconstrained least-squares fit A = Y X^+ = (Y V diag(1/s)) W^T.

        With full-column-rank X the residual ||Y - A X|| vanishes because
        X^+ X is the identity on R^m. When Y is in the basis, Y V = Q (R_y
        V), so the left factor is lifted from the factors, with Y unread.
        """
        if self.y_columns is None:
            left = self.Y @ (self.V / self.s)
        else:
            left = self.basis.lift(self._y[1] @ (self.V / self.s))
        left, rows, _ = _signed(left, self.U.T)
        return self._fitted(left, self.basis.lift_rows(rows), "exact_full", "exact", self.rank_x)

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
        left, rows, _ = _signed(self._y[0].lift(L[:, :keep]), R[:keep])
        return self._fitted(left, self.basis.lift_rows(rows), "truncated_exact", "truncated", keep)

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
        left, rows, _ = _signed(self.basis.lift(L[:, :keep]), R[:keep])
        return self._fitted(left, self.basis.lift_rows(rows), "projected", "projected", keep)

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
        it and otherwise the one n-row term, summed by blocks of rows."""
        if self.y_columns is not None:
            return 0.0
        b = self.basis
        return _distance(self.Y, b.Q1, b._small(self._y_coords))

    @cached_property
    def row_space_defect(self) -> float:
        """||Y - Y X^+ X||_F = ||Y - Y V V^T||_F = ||R_y - R_y V V^T||_F: the
        part of Y that no operator reaches, since A X = A X X^+ X. Zero when
        X has full column rank, where V V^T is the identity."""
        if self.rank_x == self.m:
            return 0.0
        return self._residual("exact", self.rank_x)

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

        k is clamped as by the fit itself: optimal(k) clamps or raises in
        _optimal_rank, the others keep min(k, rank). See _residual.
        """
        if fit == "optimal":
            k = self._optimal_rank(k)
        elif fit in ("truncated", "projected"):
            k = _check_rank_arg(k)
            _, _, rank = self._truncation_coefs if fit == "truncated" else self._projection_coefs
            k = min(k, rank)
        else:
            raise ValidationError(f"unknown fit {fit!r}; expected optimal, truncated or projected")
        return self._residual(fit, k)

    def _residual(self, fit: str, k: int) -> float:
        """||Y - A X||_F of ``fit`` at the rank k it kept, at size c.

        The exact fit has A X = Y V V^T, so its residual is ||R_y - R_y V
        V^T|| (Y is factored for it on first use). Every other fit is A =
        Q' L_k R_k Q^T, so A X = Q' L_k (R R_x)_k. The optimal and truncated
        fits have Q' = Q_y, and the residual is ||R_y - L_k (R R_x)_k|| (the
        column signs a fit sets cancel in L R). The projected fit has Q' =
        Q, and with B = Q^T Y the residual is hypot(||Y - Q B||, ||B - L_k
        (R R_x)_k||).
        """
        if fit == "exact":
            Ry = self._y[1]
            return float(np.linalg.norm(Ry - (Ry @ self.V) @ self.V.T))
        if fit == "optimal":
            L, _, R = self._optimal_coefs
        else:
            L, R, _ = self._truncation_coefs if fit == "truncated" else self._projection_coefs
        on_x = self._rows_on_x.get(fit)
        if on_x is None:
            on_x = self._rows_on_x[fit] = _read_only(R @ self.basis.R[:, self.x_columns])
        fitted = L[:, :k] @ on_x[:k]
        if fit == "projected":
            return float(np.hypot(self._outside, np.linalg.norm(self._y_coords - fitted)))
        return float(np.linalg.norm(self._y[1] - fitted))

    def optimal(self, k: int) -> DmdOperator:
        """Closed-form global minimizer of ||Y - A X|| over rank(A) <= k.

        The minimizer is P_k P_k^T Y X^+ = P_k (diag(t_k) U_k^T diag(1/s) W^T),
        with P_k = Q_y P^_k the top k left singular vectors of Y V, whatever
        the shape and rank of X; the columns of P_k follow thin_svd's sign
        convention. Requests beyond the numerical rank of Y V are clamped
        (see _optimal_rank); strict mode raises instead.

        The operator is P_k Q_k^T with Q_k^T = rows_k W^T, rows = core U^T,
        and its rank-space core is formed at size c: the transition Q_k^T
        P_k = rows_k (Q^T Q_y P^_k); no Gram, P_k being orthonormal; the
        singular values of Q_k, those of core_k since W and U are
        orthonormal; and ||A||_F = ||rows_k||_F.
        """
        k = self._optimal_rank(k)
        Pc, core, rows = self._optimal_coefs
        P, rows_k, sign = _signed(self._y[0].lift(Pc[:, :k]), rows[:k])
        return self._fitted(
            P,
            self.basis.lift_rows(rows_k),
            "optimal",
            "optimal",
            k,
            transition=_read_only((rows_k @ self._y_basis_on_x[:, :k]) * sign),
            gram=None,
            right_singular_values=_read_only(np.linalg.svd(core[:k], compute_uv=False)),
            frobenius=float(np.linalg.norm(rows_k)),
        )


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
    for trajectory data, one tall factorization of the distinct columns
    serves X and Y. Otherwise X is factored here and Y on first use. For
    data built from snapshots the new columns are the last state of each
    trajectory, and the snapshot array is factored where it lies: the
    F-ordered n-by-NT matrix of all its states, or X and Y as views of it
    where its layout allows (see DataMatrices.pairs). Explicit X and Y are
    searched for repeated columns, and the distinct ones copied side by
    side.

    d keeps the Factorization built for it, and a call with the same tol
    and strict returns it again (d is read-only, so its data cannot have
    changed), with every core it has cached. Under another tol or strict it
    is dropped and d factored anew; d holds one at a time. Another object
    with equal contents is factored anew.

    X may have any shape. When its numerical rank r is below m (always so
    when m > n) the fits act through the thresholded pseudo-inverse of its
    rank-r part, after a RankDeficiencyWarning; strict mode raises
    RankGuardError instead. Either happens on every call, the returned
    Factorization's first or not.
    """
    key = (tol, strict)
    held = d._factorization
    if held is None or held[0] != key:
        # free the n-row bases held now before the new ones are built
        del held
        object.__setattr__(d, "_factorization", None)
        held = (key, _factorize(*_columns(d), tol, strict))
        object.__setattr__(d, "_factorization", held)
    fac = held[1]
    if fac.rank_x < d.m:
        msg = (
            f"X is numerically rank-deficient (rank {fac.rank_x} < m={d.m}); "
            "proceeding with a thresholded pseudo-inverse"
        )
        if strict:
            raise RankGuardError(msg)
        warnings.warn(msg, RankDeficiencyWarning, stacklevel=2)
    return fac


def _columns(d: DataMatrices) -> tuple:
    """(Z, x_columns, y_columns, Y): the columns to factor, where X and Y
    lie among them (y_columns None: Y is not among them, and Y is the
    matrix to factor on first use)."""
    if d.states is not None:
        new = d.states.shape[0]
    else:
        src = _repeated_columns(d.X, d.Y)
        new = int(np.count_nonzero(src < 0))
    if new > SHARED_MAX_NEW * d.m:
        X, Y = d.pairs()
        return X, slice(None), None, Y
    if d.states is not None:
        N, T, n = d.states.shape
        x_columns = (T * np.arange(N)[:, None] + np.arange(T - 1)).ravel()
        return d.states.reshape(N * T, n).T, x_columns, x_columns + 1, None
    added = np.flatnonzero(src < 0)
    src[added] = d.m + np.arange(added.size)
    Z = np.concatenate([d.X, d.Y[:, added]], axis=1) if added.size else d.X
    return Z, slice(0, d.m), src, None


def _factorize(Z, x_columns, y_columns, Y, tol: float, strict: bool) -> Factorization:
    """The Factorization of the columns Z, X = Z[:, x_columns] among them;
    see _columns."""
    basis = qr_factor(Z, checked=True)
    fx = thin_svd(basis.R[:, x_columns])
    r = fx.numerical_rank(tol)
    _read_only((basis.Q1, basis.T, basis.R, x_columns, y_columns))
    U, s, V = _read_only((fx.W[:, :r], fx.sigma[:r], fx.V[:, :r]))
    return Factorization(Y, tol, strict, basis, U, s, V, x_columns, y_columns)


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
) -> tuple:
    """Closed-form global minimizer over rank(A) <= k (Factorization.optimal).

    Returns (op, op), the operator twice: the benchmark harness unpacks a
    pair. The pair goes with ROADMAP item 1's harness adapter.
    """
    op = factorize(d, tol, strict).optimal(k)
    return op, op


def residual_norm(op: DmdOperator, d: DataMatrices) -> float:
    """Frobenius norm of Y - A X.

    An operator that a fit returned, evaluated on the DataMatrices it was
    fitted to while that still holds the operator's Factorization, is
    evaluated at size c from the fit's coefficients
    (Factorization._residual); the exact fit on independent pairs only once
    Y is factored. Any other operator or dataset is
    evaluated through the factors, its squares summed block by block of
    rows: A X = L (R X) with R X rho-by-m, X and Y read as DataMatrices.pairs
    gives them.
    """
    if op.n != d.n:
        raise ValidationError(
            f"operator dimension {op.n} does not match data dimension {d.n}"
        )
    held = d._factorization
    if op.source is not None and held is not None:
        ref, fit, k = op.source
        fac = held[1]
        if ref() is fac and fac._at_size_c(fit):
            return fac._residual(fit, k)
    X, Y = d.pairs()
    return _distance(Y, op.left, op.right @ X)
