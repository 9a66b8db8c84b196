import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import RankClampWarning, RankDeficiencyWarning, ValidationError
from lrdmd.linalg import (
    CHOLQR_MIN_RATIO,
    _cholesky_qr2,
    column_signs,
    numerical_rank,
    qr_factor,
    thin_svd,
)
from lrdmd.snapshots import DataMatrices
from lrdmd.solvers import fit_exact_dmd, fit_optimal_lowrank_dmd, fit_truncated_exact_dmd


def fitted_pinv(M):
    """M^+ as applied by the exact fit: with Y the first m columns of the
    n-by-n identity, Y M^+ stacks M^+ on zero rows."""
    n, m = M.shape
    op = fit_exact_dmd(DataMatrices(X=M, Y=np.eye(n, m)))
    return (op.left @ op.right)[:m]


def dominant_basis(Y, k):
    """Top-k left singular basis of Y, as the P of the optimal fit on X = I
    (then Y V_x = Y up to the column signs of V_x)."""
    _, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(*Y.shape), Y=Y), k)
    return factors.P


def truncation(M, k):
    """Best rank-k approximation of M, as the truncated fit on X = I."""
    op = fit_truncated_exact_dmd(DataMatrices(X=np.eye(*M.shape), Y=M), k)
    return (op.left @ op.right)[:, : M.shape[1]]


def svd_case(name):
    rng = np.random.default_rng(5)
    if name == "tall":
        return rng.standard_normal((200, 12)) @ np.diag(np.logspace(0, -3, 12))
    if name == "kappa-1e10":
        U, _ = np.linalg.qr(rng.standard_normal((60, 10)))
        V, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        return (U * np.logspace(0, -10, 10)) @ V.T
    if name.startswith("tall-kappa-"):
        U, _ = np.linalg.qr(rng.standard_normal((400, 20)))
        V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        return (U * np.logspace(0, -np.log10(float(name[11:])), 20)) @ V.T
    if name == "rank-deficient":
        return rng.standard_normal((30, 3)) @ rng.standard_normal((3, 8))
    if name == "tall-rank-deficient":
        return rng.standard_normal((400, 10)) @ rng.standard_normal((10, 20))
    if name == "zero":
        return np.zeros((6, 3))
    return rng.standard_normal((5, 40))


def assert_matches_lapack(M, rank):
    """Singular values, and the subspaces of the leading `rank` singular
    pairs, match numpy's LAPACK SVD; the factors reconstruct M."""
    f = thin_svd(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    scale = max(s[0], 1.0) if s.size else 1.0
    assert f.W.shape == U.shape and f.V.shape == Vt.T.shape
    assert_allclose(f.sigma, s, rtol=0, atol=1e-13 * scale)
    assert np.linalg.norm((f.W * f.sigma) @ f.V.T - M) <= 1e-13 * scale * max(M.shape)
    assert np.linalg.norm(f.W.T @ f.W - np.eye(f.W.shape[1])) < 1e-12
    assert np.linalg.norm(f.V.T @ f.V - np.eye(f.V.shape[1])) < 1e-12
    for got, want in ((f.W, U), (f.V, Vt.T)):
        got, want = got[:, :rank], want[:, :rank]
        assert np.linalg.norm(got @ got.T - want @ want.T) < 1e-9


def assert_qr_matches_lapack(M, fast):
    """qr_factor(M) = Q R takes a Cholesky route exactly when `fast`
    (Householder QR leaves T None); Q R gives back M, Q^T Q is the
    identity, and R has the singular values of M by LAPACK."""
    f = qr_factor(M)
    assert (f.T is not None) == fast
    # a Cholesky basis is column-major, so lift_rows is a plain product
    assert f.Q1.flags.f_contiguous or not fast
    s = np.linalg.svd(M, compute_uv=False)
    scale = max(s[0], 1.0) if s.size else 1.0
    rho = min(M.shape)
    assert f.R.shape == (rho, M.shape[1])
    assert np.linalg.norm(f.lift_rows(f.R.T).T - M) <= 1e-13 * scale
    assert np.linalg.norm(f.project(f.lift_rows(np.eye(rho)).T) - np.eye(rho)) < 1e-12
    assert_allclose(np.linalg.svd(f.R, compute_uv=False), s, rtol=0, atol=1e-13 * scale)


def test_numerical_rank_counts_strictly_above_tol():
    # tol = 0 on an exactly singular spectrum: the zero is not counted
    assert numerical_rank(np.array([1.0, 0.5, 0.0]), tol=0.0) == 2
    assert numerical_rank(np.array([1.0, 0.5, 0.25]), tol=0.25) == 2


class TestThinSvd:
    def test_diagonal(self):
        f = thin_svd(np.diag([3.0, 2.0]))
        assert_allclose(f.sigma, [3.0, 2.0])
        assert_allclose(f.W, np.eye(2))
        assert_allclose(f.V, np.eye(2))

    def test_zero_matrix(self):
        f = thin_svd(np.zeros((4, 3)))
        assert_allclose(f.sigma, np.zeros(3))
        assert numerical_rank(f.sigma) == 0

    def test_reconstruction(self, rng):
        M = rng.standard_normal((8, 5))
        f = thin_svd(M)
        err = np.linalg.norm((f.W * f.sigma) @ f.V.T - M) / np.linalg.norm(M)
        assert err < 1e-12

    def test_orthonormal_factors(self, rng):
        f = thin_svd(rng.standard_normal((9, 4)))
        assert np.linalg.norm(f.W.T @ f.W - np.eye(4)) < 1e-10
        assert np.linalg.norm(f.V.T @ f.V - np.eye(4)) < 1e-10

    def test_sigma_nonincreasing(self, rng):
        f = thin_svd(rng.standard_normal((7, 6)))
        assert np.all(np.diff(f.sigma) <= 0)
        assert np.all(f.sigma >= 0)

    def test_sign_convention(self):
        # dominant entry of each left singular vector ends up positive
        f = thin_svd(np.diag([-3.0, -2.0]))
        assert f.W[0, 0] > 0 and f.W[1, 1] > 0
        assert_allclose((f.W * f.sigma) @ f.V.T, np.diag([-3.0, -2.0]), atol=1e-14)
        # entries of equal magnitude and opposite sign: the first one wins
        W = np.array([[-0.5, 0.5], [0.5, -0.5], [0.1, 0.2]])
        sign = column_signs(W)
        assert np.array_equal(sign, [-1.0, 1.0])
        assert np.array_equal(W * sign, [[0.5, 0.5], [-0.5, -0.5], [-0.1, 0.2]])

    def test_deterministic(self, rng):
        M = rng.standard_normal((6, 4))
        f1, f2 = thin_svd(M), thin_svd(M)
        assert np.array_equal(f1.W, f2.W)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.V, f2.V)

    def test_accepts_wide(self):
        M = svd_case("wide")
        assert_matches_lapack(M, 5)
        assert_qr_matches_lapack(M, False)
        f = thin_svd(M)
        # the sign convention still applies to the left singular vectors
        for j in range(5):
            assert f.W[np.argmax(np.abs(f.W[:, j])), j] > 0

    def test_rejects_non_finite(self):
        M = np.ones((3, 2))
        M[1, 1] = np.nan
        with pytest.raises(ValidationError):
            thin_svd(M)

    def test_rejects_vector(self):
        with pytest.raises(ValidationError, match="expected a matrix, got ndim=1"):
            thin_svd(np.ones(3))


    @pytest.mark.parametrize(
        "case, rank, fast",
        [("tall", 12, True), ("kappa-1e10", 4, True), ("tall-kappa-1e4", 20, True),
         ("tall-kappa-1e8", 12, True), ("tall-kappa-1e11", 8, True),
         ("rank-deficient", 3, False), ("tall-rank-deficient", 10, False),
         ("zero", 0, False)],
    )
    def test_matches_lapack(self, case, rank, fast):
        # rank: leading singular pairs whose subspaces are well separated;
        # fast: whether qr_factor takes a Cholesky route, not Householder QR
        M = svd_case(case)
        assert_matches_lapack(M, rank)
        assert_qr_matches_lapack(M, fast)

    @pytest.mark.parametrize("case", ["kappa-1e10", "tall-kappa-1e8", "tall-kappa-1e11"])
    def test_ill_conditioned_input_takes_shifted_pass(self, case):
        # unshifted CholeskyQR2 refuses these, so qr_factor's route above is
        # the shifted one
        M = svd_case(case)
        assert _cholesky_qr2(M, M.T @ M, CHOLQR_MIN_RATIO) is None

    def test_refused_basis_freed_before_shifted_pass(self):
        # kappa = 10^6.5: unshifted CholeskyQR2 forms a p-by-q basis whose R
        # then fails the sigma check, and the shifted pass takes over. The
        # refused basis is freed first, so the peak holds two p-by-q
        # matrices (Q0 and its basis), not three.
        rng = np.random.default_rng(8)
        U, _ = np.linalg.qr(rng.standard_normal((4000, 40)))
        V, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        M = (U * np.logspace(0, -6.5, 40)) @ V.T
        del U
        Q, R2, R1 = _cholesky_qr2(M, M.T @ M, CHOLQR_MIN_RATIO)
        s = np.linalg.svd(R2 @ R1, compute_uv=False)
        assert s[-1] < CHOLQR_MIN_RATIO * s[0]
        del Q
        tracemalloc.start()
        try:
            f = qr_factor(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.T is not None  # a Cholesky route, and the shifted one
        assert peak <= 2.5 * M.nbytes


class TestPseudoInverse:
    """The Moore-Penrose inverse X^+ that the exact fit applies."""

    def test_diagonal(self):
        assert_allclose(fitted_pinv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15)

    def test_identity(self):
        assert_allclose(fitted_pinv(np.eye(3)), np.eye(3), atol=1e-15)

    def test_single_column(self):
        pinv = fitted_pinv(np.array([[3.0], [4.0]]))
        assert_allclose(pinv, np.array([[3 / 25, 4 / 25]]), atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_moore_penrose_identities(self, seed):
        M = np.random.default_rng(seed).standard_normal((7, 4))
        Mp = fitted_pinv(M)
        assert np.linalg.norm(Mp - np.linalg.pinv(M)) < 1e-12 * np.linalg.norm(Mp)
        scale = np.linalg.norm(M)
        assert np.linalg.norm(M @ Mp @ M - M) < 1e-8 * scale
        assert np.linalg.norm(Mp @ M @ Mp - Mp) < 1e-8 * np.linalg.norm(Mp)
        assert np.linalg.norm((M @ Mp).T - M @ Mp) < 1e-8
        assert np.linalg.norm((Mp @ M).T - Mp @ M) < 1e-8

    @pytest.mark.parametrize("seed", [3, 4])
    def test_left_inverse_for_full_column_rank(self, seed):
        # the identity behind the zero residual of the unconstrained fit
        M = np.random.default_rng(seed).standard_normal((9, 5))
        assert np.linalg.norm(fitted_pinv(M) @ M - np.eye(5)) < 1e-8

    def test_rank_deficient_thresholding(self, rng):
        base = rng.standard_normal((6, 2))
        M = np.column_stack([base, base[:, 0]])  # duplicated column
        with pytest.warns(RankDeficiencyWarning, match="rank 2"):
            Mp = fitted_pinv(M)
        # still a valid generalized inverse of the effective-rank part
        assert np.linalg.norm(M @ Mp @ M - M) < 1e-8 * np.linalg.norm(M)
        assert np.linalg.norm(Mp - np.linalg.pinv(M, rcond=1e-12)) < 1e-10 * np.linalg.norm(Mp)


class TestTopLeftSingularBasis:
    """The dominant left singular basis of Y: the P of the optimal fit on X = I."""

    def test_diagonal_top_direction(self):
        Y = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        P = dominant_basis(Y, 1)
        assert_allclose(P[:, 0], [1.0, 0.0, 0.0], atol=1e-14)

    def test_diagonal_two_directions(self):
        Y = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        P = dominant_basis(Y, 2)
        assert_allclose(P @ P.T, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_matches_dense_gram_eigendecomposition(self, rng):
        # oracle: eigenvectors of the dense n-by-n outer Gram matrix
        Y = rng.standard_normal((6, 4))
        P = dominant_basis(Y, 2)
        evals, evecs = np.linalg.eigh(Y @ Y.T)
        U = evecs[:, np.argsort(evals)[::-1][:2]]
        assert np.linalg.norm(P @ P.T - U @ U.T) < 1e-9
        for j in range(2):
            assert min(np.linalg.norm(P[:, j] - U[:, j]), np.linalg.norm(P[:, j] + U[:, j])) < 1e-9

    def test_orthonormal(self, rng):
        P = dominant_basis(rng.standard_normal((10, 6)), 4)
        assert np.linalg.norm(P.T @ P - np.eye(4)) < 1e-10

    def test_rank_guard(self, rng, refused):
        base = rng.standard_normal((5, 2))
        Y = np.column_stack([base, base @ rng.standard_normal((2, 2))])  # rank 2
        with pytest.warns(RankClampWarning):
            assert dominant_basis(Y, 3).shape == (5, 2)
        refused(RankClampWarning, lambda: dominant_basis(Y, 3))

    def test_accurate_below_gram_noise_floor(self, rng):
        # directions with sigma ~ 1e-8 * sigma_max vanish when the spectrum
        # is squared; the basis must still resolve them
        U, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Y = U @ np.diag([1.0, 1e-4, 1e-8, 1e-9]) @ V.T
        P = dominant_basis(Y, 3)
        assert np.linalg.norm(P.T @ P - np.eye(3)) < 1e-10
        assert np.linalg.norm(P @ P.T - U[:, :3] @ U[:, :3].T) < 1e-6

    def test_wide_warns_or_is_refused_by_filter(self, refused):
        # a wide X never has full column rank: a warning, or a refusal
        # under a filter that makes the warning an error
        Y = np.arange(10.0).reshape(2, 5)
        with pytest.warns(RankDeficiencyWarning):
            dominant_basis(Y, 1)
        refused(RankDeficiencyWarning, lambda: dominant_basis(Y, 1))


class TestTruncateRank:
    """The best rank-k approximation: the truncated fit on X = I."""

    def test_diagonal(self):
        Mk = truncation(np.diag([5.0, 3.0, 1.0]), 2)
        assert_allclose(Mk, np.diag([5.0, 3.0, 0.0]), atol=1e-14)

    def test_full_rank_is_identity(self, rng):
        M = rng.standard_normal((6, 4))
        assert_allclose(truncation(M, 4), M, atol=1e-12)

    def test_tail_norm(self, rng):
        # oracle: the discarded singular values computed independently
        M = rng.standard_normal((7, 4))
        sigma = np.linalg.svd(M, compute_uv=False)
        Mk = truncation(M, 2)
        assert abs(np.linalg.norm(M - Mk) - np.sqrt(sigma[2] ** 2 + sigma[3] ** 2)) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_truncation_error_equals_discarded_tail(self, seed, k):
        M = np.random.default_rng(seed).standard_normal((8, 5))
        sigma = np.linalg.svd(M, compute_uv=False)
        Mk = truncation(M, k)
        assert abs(np.linalg.norm(M - Mk) - np.linalg.norm(sigma[k:])) < 1e-10
