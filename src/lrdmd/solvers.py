"""Rank-constrained linear-operator fitters for snapshot data.

All fitters minimize (or approximate the minimizer of) the Frobenius
residual ||Y - A X|| over operators A of rank at most k, and all of them
are slices of one Factorization of the data, built by factorize() and
sliced by Factorization.fit(name, k):

* "exact"     -- unconstrained least squares A = Y X^+.
* "truncated" -- rank-k truncation of the unconstrained solution;
  optimal approximation of the operator, not of the residual.
* "projected" -- solves the problem over the operators whose action
  on X stays in the column span of X (the classic projected approach);
  exact only when the data satisfies that span assumption.
* "optimal"   -- the closed-form global minimizer, reduced-rank
  regression (Izenman 1975): the orthogonal projection of the
  unconstrained solution onto the dominant k-dimensional left singular
  subspace of Y V_x, for X of any shape and rank.

The data are compressed once, as in DMD_RRR (Drmac, Mezic and Mohr 2018):
one tall factorization (linalg.qr_factor) gives X = Q R_x and Y = Q_y R_y
with orthonormal Q and Q_y, and every core of every fit is then computed
from the small R factors. Every SnapshotSet holds its pairs as one
read-only snapshot array of N trajectories of T states, so Y repeats X but
for the last state of each trajectory. With few trajectories for their
length, one factorization of all the states serves both (Q_y = Q);
otherwise X and Y are factored apart, Y on first use. The array is
factored where it lies, with no copy of X, Y or the distinct columns
wherever its layout allows. The n-sized work left is forming the factors a
fit returns: one product with the basis forms both where it is X's own, two
where Y was factored apart (Factorization.fit).
Factorization.residual_curve evaluates ||Y - A X|| of a fit at every rank
at once without forming them.

fit_exact_dmd, fit_truncated_exact_dmd, fit_projected_dmd and
fit_optimal_lowrank_dmd factorize and slice in one call. Each SnapshotSet
keeps its Factorization, which factorize returns again for the same tol, so
fits of one dataset share its tall factorization and its cached cores,
whatever other datasets are fitted in between. A SnapshotSet is
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
    _check_tol,
    column_signs,
    numerical_rank,
    qr_factor,
    row_blocks,
    thin_svd,
)
from .snapshots import SnapshotSet

# Largest share of the columns of Y that may be new, copies of no column of
# X, for factorize() to factor all N T states of the snapshot array, Z = [X,
# the u = N last states], in place of X and Y apart. Cholesky QR of an
# n-by-c matrix costs 4 n c^2 flops (two Grams of n c^2 and one product of
# 2 n c^2), so
#   Z, c = m + u columns:             4 n (m + u)^2
#   X, and Y when a fit needs it:     4 n m^2 + 4 n m^2 = 8 n m^2.
# Z is cheaper while (m + u)^2 < 2 m^2, up to u = 0.41 m. At u = m/4 it costs
# 6.25 n m^2, 22 % below X and Y apart; the fits that need X alone (exact,
# projected) then pay 56 % over 4 n m^2, less the 2 n m^2 product Q_x^T Y that
# the projected fit needs when Y is not in the basis. With m = N (T - 1) the
# gate holds for T >= 5 states per trajectory.
SHARED_MAX_NEW = 0.25

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


def _distance(Y: np.ndarray, L: np.ndarray, C: np.ndarray) -> float:
    """||Y - L C||_F for n-row Y and L and a small C, its squares summed
    block by block of rows."""
    total = 0.0
    for rows in row_blocks(Y.shape[0]):
        block = (Y[rows] - L[rows] @ C).ravel()
        total += float(block @ block)
    return float(np.sqrt(total))


@dataclass(frozen=True)
class DmdOperator:
    """A fitted linear operator A = left @ right of rank <= declared_rank.

    left is n-by-rho and right rho-by-n, so applying the operator costs
    O(n * rho) instead of O(n^2). A fit returns left column-major and right
    row-major, each n-row vector contiguous: where X's basis lifts both,
    they are views of one read-only 2 rho-by-n buffer, left its first rho
    rows transposed, and otherwise each has a read-only buffer of its own
    (Factorization.fit). An operator built by hand takes any layout.

    An operator that a fit returns has ``source`` = (a weak reference to
    the Factorization it was sliced from, the fit's name, the rank it kept
    after any clamp), and residual_norm on the SnapshotSet that holds that
    Factorization evaluates it at size c. Its left and right are
    read-only, like every array of the Factorization, so they cannot drift
    from what the link describes. The link is no constructor argument: an
    operator built by hand, or by dataclasses.replace from a fitted one,
    has none. Being weak, it keeps no n-row basis alive: once the
    Factorization goes, with its SnapshotSet or when that is factored
    under another tol, the operator's residual is evaluated through its
    factors.

    Its rank-space core is ``transition`` (R L), ``gram`` (L^T L, or None
    when L has orthonormal columns), ``right_singular_values`` (those of
    R) and ``frobenius`` (||A||_F). Each is formed from the factors on
    first use and cached, read-only; an optimal fit sets all four at size
    c (Factorization.fit).
    """

    left: np.ndarray
    right: np.ndarray
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

    It holds no X and no reference to the SnapshotSet it was built from,
    which holds it (see factorize), so dropping the SnapshotSet frees
    both. ``Y`` is Y where it lies when Y is factored apart, and None when
    Y is in the basis.

    ``basis`` is Z = Q R_z (linalg.QrFactors) for the columns Z that
    factorize() chose, with R_x = R_z[:, x_columns]: X itself, or, when
    ``y_columns`` is set, every state of the snapshot array, and then Y =
    Q R_y with R_y = R_z[:, y_columns]. Otherwise Y is factored apart, Y =
    Q_y R_y, on first use. The rank-r thin SVD R_x = U diag(s) V^T (r the
    numerical rank of X at tol) gives X = W diag(s) V^T with W = Q U,
    which is never formed, so X^+ = V diag(1/s) W^T. The thin SVD R_y V =
    P^ diag(t) U_y^T (``yv``) gives Y V = (Q_y P^) diag(t) U_y^T. It and
    the r-by-r cores of the truncated and projected fits are computed on
    first use and cached, so the projected fit never needs Y factored.
    Build it with factorize() and slice it with fit(name, k);
    residual_curve(name) evaluates a rank-k fit's residual at every k from
    the same cached row without forming its factors.
    """

    Y: np.ndarray | None
    tol: float
    basis: QrFactors
    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    x_columns: slice | np.ndarray
    y_columns: np.ndarray | None

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
        return numerical_rank(self.yv.sigma, self.tol)

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
    def _table(self) -> dict:
        """Fit name -> its _coefs row, filled on first use."""
        return {}

    def _coefs(self, fit: str) -> tuple:
        """(basis, L, R, rank, sigma) of the rank-k fit ``fit``, computed
        once: at rank k <= rank it is A = (basis L_k)(R_k Q^T). The small L
        and R hold every k at once, and L[:, :rank] = Omega diag(sigma[:rank])
        with Omega orthonormal.

        * optimal: P_k P_k^T Y X^+ = P_k (diag(t_k) U_k^T diag(1/s) W^T), P_k
          = Q_y P^_k the top k left singular vectors of Y V: L = P^ (sigma =
          1) and R = core U^T (_optimal_coefs) in Q_y, rank that of Y V.
        * truncated: the SVD core = Uc Sc Vc^T is that of Y X^+ (Q_y P^ and
          W are orthonormal): L = P^ Uc Sc and R = Vc^T U^T in Q_y.
        * projected: the SVD B = W^T Y V = U^T (Q^T Y) V = Ub Sb Vb^T gives
          A = W Bk diag(1/s) W^T: L = U Ub Sb and R = Vb^T diag(1/s) U^T in Q.

        The optimal fit of a Y numerically zero on the row space of X has
        rank 0 and nothing to fit: its row raises RankGuardError.
        """
        row = self._table.get(fit)
        if row is None:
            row = self._table[fit] = _read_only(self._row(fit))
        if row[3] == 0 and fit == "optimal":
            raise RankGuardError("Y is numerically zero on the row space of X; nothing to fit")
        return row

    def _row(self, fit: str) -> tuple:
        """The _coefs row of ``fit``, computed."""
        if fit == "optimal":
            L, _, R = self._optimal_coefs
            return self._y[0], L, R, self.rank_y, np.ones(L.shape[1])
        if fit == "truncated":
            c = thin_svd(self._optimal_coefs[1])
            L, R = self.yv.W @ (c.W * c.sigma), c.V.T @ self.U.T
            return self._y[0], L, R, numerical_rank(c.sigma, self.tol), c.sigma
        if fit == "projected":
            b = thin_svd((self.U.T @ self._y_coords) @ self.V)
            L, R = self.U @ (b.W * b.sigma), (b.V.T / self.s) @ self.U.T
            return self.basis, L, R, numerical_rank(b.sigma, self.tol), b.sigma
        raise ValidationError(f"unknown fit {fit!r}; expected optimal, truncated or projected")

    def _keep(self, fit: str, k: int) -> int:
        """The rank that fit(fit, k) keeps: k, clamped to its row's rank,
        which covers that whole numerical column space, so larger k cannot
        change the operator. The optimal fit warns when it clamps; the
        truncated and projected fits clamp silently."""
        k = _check_rank_arg(k)
        rank = self._coefs(fit)[3]
        if k <= rank or fit != "optimal":
            return min(k, rank)
        msg = (
            f"requested rank {k} exceeds the numerical rank of Y ({rank}) on the row "
            f"space of X; choose a rank <= {rank}"
        )
        warnings.warn(msg, RankClampWarning, stacklevel=3)
        return rank

    def fit(self, name: str, k: int | None = None) -> DmdOperator:
        """The fit ``name`` ("exact", "truncated", "projected" or "optimal";
        see the module docstring) at rank k; the exact fit reads no k.

        Every fit is A = (basis L_k)(R_k Q^T), read-only and weakly linked
        to this Factorization (DmdOperator.source). A rank-k fit is its
        _coefs row at the rank _keep allows. The exact fit A = Y X^+ = (Y V
        diag(1/s)) W^T has basis Q_y, L = R_y V diag(1/s) and R = U^T, at k
        = rank_x.

        Where the basis is X's own (every projected fit, and every fit when
        Y is in that basis), both factors come from one product with it,
        [L_k^T; R_k] Q^T, a 2k-by-n buffer that reads Q once: left is its
        first k rows transposed, column-major n-by-k, and right its last k
        rows, row-major k-by-n. Where Y was factored apart, L_k^T Q_y^T and
        R_k Q^T are one product each, in the same orientation. The left
        factor then takes thin_svd's column signs, read down its contiguous
        columns, and the rows of both factors are scaled by them in place:
        negation is exact, so this is the lift of the flipped rows.

        The optimal fit's rank-space core is set at size c: the transition
        Q_k^T P_k = rows_k (Q^T Q_y P^_k), rows_k the flipped R_k; no Gram,
        P_k being orthonormal; the singular values of Q_k, those of core_k
        since W and U are orthonormal; and ||A||_F = ||R_k||_F.
        """
        if name == "exact":
            basis, L, R, k = self._y[0], self._y[1] @ (self.V / self.s), self.U.T, self.rank_x
        else:
            k = self._keep(name, k)
            basis, L, R = self._coefs(name)[:3]
        L, R = L[:, :k], R[:k]
        both = None
        if basis is self.basis:
            both = basis.lift_rows(np.concatenate((L.T, R)))
            left_rows, right = both[:k], both[k:]
        else:
            left_rows, right = basis.lift_rows(L.T), self.basis.lift_rows(R)
        sign = column_signs(left_rows.T)
        left_rows *= sign[:, None]
        right *= sign[:, None]
        # read-only before left is viewed: a view takes its flags when made
        _read_only((both, left_rows, right))
        op = DmdOperator(left=left_rows.T, right=right)
        object.__setattr__(op, "source", (weakref.ref(self), name, k))
        if name == "optimal":
            op.__dict__.update(
                transition=_read_only(((sign[:, None] * R) @ self._y_basis_on_x[:, :k]) * sign),
                gram=None,
                right_singular_values=_read_only(
                    np.linalg.svd(self._optimal_coefs[1][:k], compute_uv=False)
                ),
                frobenius=float(np.linalg.norm(R)),
            )
        return op

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

    def certified_residual(self, k: int) -> float:
        """||Y - A X||_F of fit("optimal", k), from the factors alone.

        Y - A X = (I - P_k P_k^T) Y V V^T + Y (I - V V^T), two parts with
        orthogonal row spaces, so (Eckart-Young) the residual is
        hypot(row_space_defect, ||t_{k+1..}||) with t the singular values of
        Y V. k is clamped as by the fit (_keep).
        """
        k = self._keep("optimal", k)
        return float(np.hypot(self.row_space_defect, np.linalg.norm(self.yv.sigma[k:])))

    @cached_property
    def _curves(self) -> dict:
        """Fit name -> its residual_curve, filled on first use."""
        return {}

    def residual_curve(self, fit: str) -> np.ndarray:
        """[||Y - A X||_F of fit(fit, k) for k = 0..rank], rank that of the
        rank-k fit ``fit`` ("optimal", "truncated" or "projected"), so that
        any k reads curve[min(k, rank)]; k = 0 is the zero operator. It is
        computed once, at size c with no loop over k and no factor formed,
        and is read-only.

        Every rank-k fit is A X = basis Omega_k diag(sigma_k) O_k, O = (R
        R_x)[:rank], with Omega orthonormal (_coefs). With T = basis^T Y
        and C = Omega^T T, the residual of the optimal and truncated fits
        (basis Q_y, T = R_y) is

            ||T - Omega C||^2 + sum_{i<=k} ||C_i - sigma_i O_i||^2
                              + sum_{k<i<=rank} ||C_i||^2,

        orthogonal parts, each summed as it is. The projected fit has basis
        Q, T = B = Q^T Y, and takes the hypot with ||Y - Q B||.
        """
        curve = self._curves.get(fit)
        if curve is None:
            _, L, R, rank, sigma = self._coefs(fit)
            T = self._y_coords if fit == "projected" else self._y[1]
            on_x = R[:rank] @ self.basis.R[:, self.x_columns]
            curve = _curve(T, L[:, :rank], sigma[:rank], on_x)
            if fit == "projected":
                curve = np.hypot(self._outside, curve)
            curve = self._curves[fit] = _read_only(curve)
        return curve

    def _residual(self, fit: str, k: int) -> float:
        """||Y - A X||_F of ``fit`` at the rank k it kept, at size c. The
        exact fit has A X = Y V V^T, so its residual is ||R_y - R_y V V^T||;
        every other fit reads its residual_curve."""
        if fit == "exact":
            Ry = self._y[1]
            return float(np.linalg.norm(Ry - (Ry @ self.V) @ self.V.T))
        return float(self.residual_curve(fit)[k])


def _curve(T: np.ndarray, L: np.ndarray, sigma: np.ndarray, on_x: np.ndarray) -> np.ndarray:
    """[||T - L_k on_x_k||_F for k = 0..rank], rank the width of L = Omega
    diag(sigma) with Omega orthonormal; see Factorization.residual_curve."""
    omega = L / sigma
    C = omega.T @ T
    head = T - omega @ C
    fitted = C - sigma[:, None] * on_x
    kept = np.cumsum(np.concatenate(([0.0], np.einsum("ij,ij->i", fitted, fitted))))
    left = np.cumsum(np.concatenate((np.einsum("ij,ij->i", C, C), [0.0]))[::-1])[::-1]
    return np.sqrt(float(np.vdot(head, head)) + kept + left)


def factorize(d: SnapshotSet, tol: float = DEFAULT_TOL) -> Factorization:
    """The Factorization of (X, Y) that the fitters slice.

    Y repeats X but for the last state of each of the N trajectories of d's
    snapshot array. When N is at most SHARED_MAX_NEW * m, one tall
    factorization of all the states, the F-ordered n-by-NT matrix that the
    array is, serves X and Y. Otherwise X is factored here and Y on first
    use, as d.X and d.Y give them: views of the array where its layout
    allows, else copies.

    d keeps the Factorization built for it, and a call with the same tol
    returns it again (d is read-only, so its data cannot have changed), with
    every core it has cached. Under another tol it is dropped and d
    factored anew; d holds one at a time. Another object with equal
    contents is factored anew.

    X may have any shape. When its numerical rank r is below m (always so
    when m > n) the fits act through the thresholded pseudo-inverse of its
    rank-r part, after a RankDeficiencyWarning on every call, the returned
    Factorization's first or not. A caller that wants such X refused turns
    the warning into an error: warnings.simplefilter("error",
    RankDeficiencyWarning).

    tol, relative to the largest singular value, must lie in [0, 1): a
    NaN, negative or larger one raises ValidationError.
    """
    _check_tol(tol)
    fac = d._factorization
    if fac is None or fac.tol != tol:
        # free the n-row bases held now before the new ones are built
        del fac
        object.__setattr__(d, "_factorization", None)
        object.__setattr__(d, "_factorization", _factorize(*_columns(d), tol))
    fac = d._factorization
    if fac.rank_x < d.m:
        msg = f"X is numerically rank-deficient (rank {fac.rank_x} < m={d.m})"
        warnings.warn(msg, RankDeficiencyWarning, stacklevel=2)
    return fac


def _columns(d: SnapshotSet) -> tuple:
    """(Z, x_columns, y_columns, Y): the columns to factor, where X and Y
    lie among them (y_columns None: Z is d.X, Y is not among them, and Y
    is d.Y, the matrix to factor on first use)."""
    N, T, n = d.states.shape
    if N > SHARED_MAX_NEW * d.m:
        return d.X, slice(None), None, d.Y
    x_columns = (T * np.arange(N)[:, None] + np.arange(T - 1)).ravel()
    return d.states.reshape(N * T, n).T, x_columns, x_columns + 1, None


def _factorize(Z, x_columns, y_columns, Y, tol: float) -> Factorization:
    """The Factorization of the columns Z, X = Z[:, x_columns] among them;
    see _columns."""
    basis = qr_factor(Z, checked=True)
    fx = thin_svd(basis.R[:, x_columns])
    r = numerical_rank(fx.sigma, tol)
    _read_only((basis.Q1, basis.T, basis.R, x_columns, y_columns))
    U, s, V = _read_only((fx.W[:, :r], fx.sigma[:r], fx.V[:, :r]))
    return Factorization(Y, tol, basis, U, s, V, x_columns, y_columns)


def fit_exact_dmd(d: SnapshotSet, tol: float = DEFAULT_TOL) -> DmdOperator:
    """Unconstrained least-squares fit A = Y X^+ (Factorization.fit)."""
    return factorize(d, tol).fit("exact")


def fit_truncated_exact_dmd(d: SnapshotSet, k: int, tol: float = DEFAULT_TOL) -> DmdOperator:
    """Rank-k truncation of A = Y X^+ (Factorization.fit)."""
    return factorize(d, tol).fit("truncated", k)


def fit_projected_dmd(d: SnapshotSet, k: int, tol: float = DEFAULT_TOL) -> DmdOperator:
    """Span-constrained rank-k fit (Factorization.fit)."""
    return factorize(d, tol).fit("projected", k)


def fit_optimal_lowrank_dmd(d: SnapshotSet, k: int, tol: float = DEFAULT_TOL) -> tuple:
    """Closed-form global minimizer over rank(A) <= k (Factorization.fit).

    Returns (op, op), the operator twice: the benchmark harness unpacks a
    pair. The pair goes with ROADMAP item 1's harness adapter.
    """
    op = factorize(d, tol).fit("optimal", k)
    return op, op


def residual_norm(op: DmdOperator, d: SnapshotSet) -> float:
    """Frobenius norm of Y - A X.

    An operator that a fit returned, evaluated on the SnapshotSet it was
    fitted to while that still holds the operator's Factorization, is
    evaluated at size c from the fit's coefficients
    (Factorization._residual). Any other operator or dataset is evaluated
    through the factors, its squares summed block by block of rows: A X = L
    (R X) with R X rho-by-m, X and Y read as d.X and d.Y give them.
    """
    if op.n != d.n:
        raise ValidationError(
            f"operator dimension {op.n} does not match data dimension {d.n}"
        )
    fac = d._factorization
    if fac is not None and op.source is not None and op.source[0]() is fac:
        return fac._residual(*op.source[1:])
    return _distance(d.Y, op.left, op.right @ d.X)
