import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import (
    RankClampWarning,
    RankDeficiencyWarning,
    RankGuardError,
    ValidationError,
)
from lrdmd.snapshots import DataMatrices
from lrdmd.solvers import (
    DmdOperator,
    fit_exact_dmd,
    fit_optimal_lowrank_dmd,
    fit_projected_dmd,
    fit_truncated_exact_dmd,
    materialize,
    residual_norm,
)


def random_data(seed, n=8, m=5):
    rng = np.random.default_rng(seed)
    return DataMatrices(X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m)))


class TestExactDmd:
    def test_identity_predecessors(self, rng):
        Y = rng.standard_normal((4, 4))
        op = fit_exact_dmd(DataMatrices(X=np.eye(4), Y=Y))
        assert_allclose(materialize(op), Y, atol=1e-12)

    def test_orthonormal_columns(self):
        X = np.eye(3)[:, :2]
        Y = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        op = fit_exact_dmd(DataMatrices(X=X, Y=Y))
        expected = np.outer(Y[:, 0], X[:, 0]) + np.outer(Y[:, 1], X[:, 1])
        assert_allclose(materialize(op), expected, atol=1e-12)

    def test_recovers_generator(self, rng):
        # oracle: direct linear solve G = Y X^-1 on invertible square data
        X = rng.standard_normal((5, 5))
        G = rng.standard_normal((5, 5))
        op = fit_exact_dmd(DataMatrices(X=X, Y=G @ X))
        oracle = np.linalg.solve(X.T, (G @ X).T).T
        assert_allclose(materialize(op), oracle, atol=1e-9)
        assert_allclose(materialize(op), G, atol=1e-9)

    def test_zero_residual_on_full_column_rank(self, rng):
        d = random_data(3)
        op = fit_exact_dmd(d)
        assert residual_norm(op, d) < 1e-8 * np.linalg.norm(d.Y)

    def test_rank_deficient_warns(self, rng):
        base = rng.standard_normal((6, 2))
        X = np.column_stack([base, base.sum(axis=1)])
        d = DataMatrices(X=X, Y=rng.standard_normal((6, 3)))
        with pytest.warns(RankDeficiencyWarning):
            fit_exact_dmd(d)
        with pytest.raises(RankGuardError):
            fit_exact_dmd(d, strict=True)

    def test_accepts_wide_data(self, rng):
        # more snapshot pairs than states: X^+ = X^T (X X^T)^-1 and the fit
        # is the dense least-squares solution Y X^+
        d = DataMatrices(X=rng.standard_normal((3, 5)), Y=rng.standard_normal((3, 5)))
        with pytest.warns(RankDeficiencyWarning):
            op = fit_exact_dmd(d)
        dense = d.Y @ np.linalg.pinv(d.X)
        assert_allclose(materialize(op), dense, atol=1e-12 * np.linalg.norm(dense))
        with pytest.raises(RankGuardError):
            fit_exact_dmd(d, strict=True)


class TestTruncatedExactDmd:
    def test_full_rank_request_matches_exact(self):
        d = random_data(11)
        full = fit_exact_dmd(d)
        trunc = fit_truncated_exact_dmd(d, d.m)
        assert_allclose(materialize(trunc), materialize(full), atol=1e-10)

    def test_oversized_request_matches_exact(self):
        d = random_data(12, n=6, m=4)
        assert_allclose(
            materialize(fit_truncated_exact_dmd(d, 10)),
            materialize(fit_exact_dmd(d)),
            atol=1e-10,
        )

    def test_diagonal_truncation(self):
        Y = np.diag([5.0, 3.0, 1.0, 0.5])
        op = fit_truncated_exact_dmd(DataMatrices(X=np.eye(4), Y=Y), 2)
        assert_allclose(materialize(op), np.diag([5.0, 3.0, 0.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_economic_path_matches_dense_truncation(self, k):
        # oracle: dense SVD truncation of the materialized unconstrained fit
        d = random_data(13)
        dense = materialize(fit_exact_dmd(d))
        U, s, Vt = np.linalg.svd(dense)
        oracle = (U[:, :k] * s[:k]) @ Vt[:k]
        assert_allclose(materialize(fit_truncated_exact_dmd(d, k)), oracle, atol=1e-9)


class TestProjectedDmd:
    def test_identity_predecessors_match_truncated_svd(self, rng):
        # projection is vacuous when X = I: both baselines and the optimal
        # solver collapse to the best rank-k approximation of Y
        Y = rng.standard_normal((5, 5))
        d = DataMatrices(X=np.eye(5), Y=Y)
        U, s, Vt = np.linalg.svd(Y)
        for k in (1, 3):
            oracle = (U[:, :k] * s[:k]) @ Vt[:k]
            assert_allclose(materialize(fit_projected_dmd(d, k)), oracle, atol=1e-10)
            opt, _ = fit_optimal_lowrank_dmd(d, k)
            assert_allclose(materialize(opt), oracle, atol=1e-10)

    def test_setting_i_matches_optimal(self, setting_i_data):
        import warnings

        ny = np.linalg.norm(setting_i_data.Y)
        # the single-trajectory dataset is rank-deficient by construction,
        # so the fitters warn; that behavior has its own test
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in (1, 5, 12, 25, 40):
                rc = residual_norm(fit_projected_dmd(setting_i_data, k), setting_i_data)
                op, _ = fit_optimal_lowrank_dmd(setting_i_data, k)
                ra = residual_norm(op, setting_i_data)
                assert abs(ra - rc) <= max(1e-8 * ra, 1e-9 * ny)

    def test_setting_iii_strictly_worse_than_optimal(self, setting_iii_data):
        rc = residual_norm(fit_projected_dmd(setting_iii_data, 20), setting_iii_data)
        op, _ = fit_optimal_lowrank_dmd(setting_iii_data, 20)
        assert rc > residual_norm(op, setting_iii_data)


class TestOptimalLowRankDmd:
    def test_full_rank_request_matches_exact(self):
        d = random_data(21)
        op, _ = fit_optimal_lowrank_dmd(d, d.m)
        assert_allclose(materialize(op), materialize(fit_exact_dmd(d)), atol=1e-9)

    def test_eckart_young_degenerate_case(self, rng):
        # with X = I and symmetric Y the objective is the singular tail
        Ys = rng.standard_normal((6, 6))
        Ys = Ys + Ys.T
        d = DataMatrices(X=np.eye(6), Y=Ys)
        sigma = np.linalg.svd(Ys, compute_uv=False)
        for k in (1, 2, 4):
            op, _ = fit_optimal_lowrank_dmd(d, k)
            assert abs(residual_norm(op, d) - np.linalg.norm(sigma[k:])) < 1e-10

    @pytest.mark.parametrize("seed", [*range(5), "rank-deficient-12x8", "wide-6x10"])
    def test_beats_alternating_least_squares(self, seed):
        # oracle: alternating minimization over L R with random restarts;
        # the optimum holds for rank(X) < m and for m > n too
        from lrdmd.altmin import als_lowrank_fit

        if seed == "rank-deficient-12x8":
            rng = np.random.default_rng(2017)
            X = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 8))
            d, seed = DataMatrices(X=X, Y=rng.standard_normal((12, 8))), 11
        elif seed == "wide-6x10":
            rng = np.random.default_rng(2017)
            d, seed = DataMatrices(X=rng.standard_normal((6, 10)), Y=rng.standard_normal((6, 10))), 12
        else:
            rng = np.random.default_rng(seed)
            d = DataMatrices(X=rng.standard_normal((6, 4)), Y=rng.standard_normal((6, 4)))
        for k in (1, 2, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankDeficiencyWarning)
                op, _ = fit_optimal_lowrank_dmd(d, k)
            closed_form = residual_norm(op, d)
            als_obj, _, _ = als_lowrank_fit(d.X, d.Y, k, restarts=10, iters=200, seed=seed)
            assert closed_form <= als_obj + 1e-8

    def test_factor_bundle_consistency(self):
        d = random_data(22)
        op, factors = fit_optimal_lowrank_dmd(d, 3)
        assert np.linalg.norm(factors.P.T @ factors.P - np.eye(3)) < 1e-10
        assert_allclose(materialize(op), factors.P @ factors.Q.T, atol=1e-12)
        assert np.array_equal(op.left, factors.P)

    def test_projection_identity(self):
        # the fitted operator is exactly the projection of the
        # unconstrained solution onto the dominant subspace of Y
        d = random_data(23)
        k = 3
        op, _ = fit_optimal_lowrank_dmd(d, k)
        P = np.linalg.svd(d.Y, full_matrices=False)[0][:, :k]
        full = materialize(fit_exact_dmd(d))
        assert_allclose(materialize(op), P @ (P.T @ full), atol=1e-9)

    def test_projector_idempotent(self):
        d = random_data(24)
        op, factors = fit_optimal_lowrank_dmd(d, 2)
        A = materialize(op)
        proj = factors.P @ factors.P.T
        assert np.linalg.norm(proj @ A - A) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_dominates_baselines(self, seed):
        d = random_data(seed, n=9, m=6)
        ny = np.linalg.norm(d.Y)
        for k in range(1, 6):
            op, _ = fit_optimal_lowrank_dmd(d, k)
            ra = residual_norm(op, d)
            assert ra <= residual_norm(fit_truncated_exact_dmd(d, k), d) + 1e-9 * ny
            assert ra <= residual_norm(fit_projected_dmd(d, k), d) + 1e-9 * ny

    def test_repeated_singular_values_objective_only(self):
        # the minimizer is not unique when the spectrum has ties, so only
        # the objective value is contractual
        Y = np.diag([3.0, 3.0, 1.0, 1.0])
        d = DataMatrices(X=np.eye(4), Y=Y)
        expected = {1: np.sqrt(9.0 + 1.0 + 1.0), 2: np.sqrt(2.0), 3: 1.0}
        for k, target in expected.items():
            op, _ = fit_optimal_lowrank_dmd(d, k)
            assert abs(residual_norm(op, d) - target) < 1e-12

    def test_residual_monotone_in_rank(self):
        d = random_data(25, n=10, m=7)
        residuals = []
        for k in range(1, 8):
            op, _ = fit_optimal_lowrank_dmd(d, k)
            residuals.append(residual_norm(op, d))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_clamp_beyond_rank_of_y(self, rng):
        X = rng.standard_normal((8, 5))
        Y_low = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 5))  # rank 2
        d = DataMatrices(X=X, Y=Y_low)
        with pytest.warns(RankClampWarning):
            clamped, _ = fit_optimal_lowrank_dmd(d, 4)
        plain, _ = fit_optimal_lowrank_dmd(d, 2)
        assert np.array_equal(materialize(clamped), materialize(plain))
        with pytest.raises(RankGuardError):
            fit_optimal_lowrank_dmd(d, 4, strict=True)

    @pytest.mark.parametrize("setting", ["i", "ii", "iii"])
    def test_eckart_young_certificate(self, toy_config, full_bench_result, setting):
        # ||Y - A X||^2 = ||Y - Y V_r V_r^T||^2 + sum_{i>k} t_i^2, with V_r
        # the rank-r right singular vectors of X and t the singular values
        # of Y V_r, against the sweep's method-a residual at every k
        from lrdmd.toybench import benchmark_data

        d = benchmark_data(toy_config, setting)
        _, sx, Vt = np.linalg.svd(d.X, full_matrices=False)
        V = Vt[: int(np.count_nonzero(sx > 1e-12 * sx[0]))].T
        defect = np.linalg.norm(d.Y - (d.Y @ V) @ V.T)
        t = np.linalg.svd(d.Y @ V, compute_uv=False)
        rows = full_bench_result.rows_for(setting, "a")
        assert [row.k for row in rows] == list(toy_config.ranks())
        for row in rows:
            certificate = np.hypot(defect, np.linalg.norm(t[row.k :]))
            assert abs(row.residual - certificate) <= 1e-12 * np.linalg.norm(d.Y)

    def test_bad_rank_arguments(self):
        d = random_data(26)
        with pytest.raises(ValidationError):
            fit_optimal_lowrank_dmd(d, 0)
        with pytest.raises(ValidationError):
            fit_truncated_exact_dmd(d, -1)


class TestResidualAndMaterialize:
    def test_zero_operator(self, rng):
        d = random_data(31)
        op = DmdOperator(left=np.zeros((8, 1)), right=np.zeros((1, 8)), method_tag="optimal")
        assert abs(residual_norm(op, d) - np.linalg.norm(d.Y)) < 1e-12

    def test_factored_matches_dense(self):
        # oracle: dense recomputation of the residual
        d = random_data(32)
        op = fit_truncated_exact_dmd(d, 2)
        dense = np.linalg.norm(d.Y - materialize(op) @ d.X)
        assert abs(residual_norm(op, d) - dense) < 1e-10

    def test_rank_one_materialize(self):
        op = DmdOperator(
            left=np.eye(3)[:, :1], right=np.eye(3)[1:2, :], method_tag="optimal"
        )
        M = materialize(op)
        assert M[0, 1] == 1.0 and np.count_nonzero(M) == 1

    def test_materialize_size_guard(self):
        op = DmdOperator(
            left=np.zeros((10_001, 1)), right=np.zeros((1, 10_001)), method_tag="optimal"
        )
        with pytest.raises(ValidationError, match="materialize"):
            materialize(op)

    def test_frobenius_norm_from_factors(self, rng):
        left = rng.standard_normal((7, 3))
        right = rng.standard_normal((3, 7))
        op = DmdOperator(left=left, right=right, method_tag="optimal")
        assert abs(op.frobenius_norm() - np.linalg.norm(left @ right)) < 1e-10

    def test_dimension_mismatch(self, rng):
        d = random_data(33)
        op = DmdOperator(left=np.zeros((5, 1)), right=np.zeros((1, 5)), method_tag="optimal")
        with pytest.raises(ValidationError):
            residual_norm(op, d)
