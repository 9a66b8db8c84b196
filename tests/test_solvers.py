import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import (
    NumericalGuardError,
    RankClampWarning,
    RankDeficiencyWarning,
    RankGuardError,
    ValidationError,
)
from lrdmd.linalg import QrFactors, column_signs, qr_factor, thin_svd
from lrdmd.snapshots import DataMatrices, SnapshotSet
from lrdmd.solvers import (
    DmdOperator,
    factorize,
    fit_exact_dmd,
    fit_optimal_lowrank_dmd,
    fit_projected_dmd,
    fit_truncated_exact_dmd,
    residual_norm,
)
from lrdmd.toybench import BenchConfig, benchmark_data


def random_data(seed, n=8, m=5):
    rng = np.random.default_rng(seed)
    return DataMatrices(X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m)))


def lifted_residual(op, d):
    """||Y - A X|| of the operator's own factors, by residual_norm's row
    blocks: a fresh DataMatrices holds copies of X and Y, which no fit's
    Factorization holds, so the factors are evaluated, not the fit."""
    return residual_norm(op, DataMatrices(X=d.X, Y=d.Y))


class TestExactDmd:
    def test_identity_predecessors(self, rng):
        Y = rng.standard_normal((4, 4))
        op = fit_exact_dmd(DataMatrices(X=np.eye(4), Y=Y))
        assert_allclose(op.left @ op.right, Y, atol=1e-12)

    def test_orthonormal_columns(self):
        X = np.eye(3)[:, :2]
        Y = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        op = fit_exact_dmd(DataMatrices(X=X, Y=Y))
        expected = np.outer(Y[:, 0], X[:, 0]) + np.outer(Y[:, 1], X[:, 1])
        assert_allclose(op.left @ op.right, expected, atol=1e-12)

    def test_recovers_generator(self, rng):
        # oracle: direct linear solve G = Y X^-1 on invertible square data
        X = rng.standard_normal((5, 5))
        G = rng.standard_normal((5, 5))
        op = fit_exact_dmd(DataMatrices(X=X, Y=G @ X))
        oracle = np.linalg.solve(X.T, (G @ X).T).T
        assert_allclose(op.left @ op.right, oracle, atol=1e-9)
        assert_allclose(op.left @ op.right, G, atol=1e-9)

    def test_zero_residual_on_full_column_rank(self, rng):
        d = random_data(3)
        op = fit_exact_dmd(d)
        assert lifted_residual(op, d) < 1e-8 * np.linalg.norm(d.Y)

    def test_rank_deficient_warns(self, rng, refused):
        base = rng.standard_normal((6, 2))
        X = np.column_stack([base, base.sum(axis=1)])
        d = DataMatrices(X=X, Y=rng.standard_normal((6, 3)))
        with pytest.warns(RankDeficiencyWarning):
            fit_exact_dmd(d)
        refused(RankDeficiencyWarning, lambda: fit_exact_dmd(d))

    def test_accepts_wide_data(self, rng, refused):
        # more snapshot pairs than states: X^+ = X^T (X X^T)^-1 and the fit
        # is the dense least-squares solution Y X^+
        d = DataMatrices(X=rng.standard_normal((3, 5)), Y=rng.standard_normal((3, 5)))
        with pytest.warns(RankDeficiencyWarning):
            op = fit_exact_dmd(d)
        dense = d.Y @ np.linalg.pinv(d.X)
        assert_allclose(op.left @ op.right, dense, atol=1e-12 * np.linalg.norm(dense))
        refused(RankDeficiencyWarning, lambda: fit_exact_dmd(d))

    @pytest.mark.parametrize("seed", range(1, 11))
    @pytest.mark.parametrize("setting", ["i", "ii", "iii"])
    def test_equivalent_factorizations_agree_to_rounding(self, setting, seed):
        # A = Y X^+ does not depend on the order of the pairs, but its left
        # factor Y V diag(1/s) carries rounding of order u ||Y||_F / s_r. A
        # column-permuted copy of the pairs, factored apart, gives an exact
        # fit within 16 times that of the snapshot-built one. Over seeds
        # 1-200 the ratio peaked at 3.0 (i), 7.2 (ii) and 10.8 (iii).
        d = benchmark_data(BenchConfig(seed=seed), setting)
        perm = np.random.default_rng(seed).permutation(d.m)
        shuffled = DataMatrices(X=d.X[:, perm], Y=d.Y[:, perm])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            fac, other = factorize(d), factorize(shuffled)
        assert fac.rank_x == other.rank_x
        a, b = fac.fit("exact"), other.fit("exact")
        unit_roundoff = np.finfo(np.float64).eps / 2
        bound = 16 * unit_roundoff * d.norm_y / fac.s[-1]
        assert np.linalg.norm(a.left @ a.right - b.left @ b.right) <= bound


class TestTruncatedExactDmd:
    def test_full_rank_request_matches_exact(self):
        d = random_data(11)
        full = fit_exact_dmd(d)
        trunc = fit_truncated_exact_dmd(d, d.m)
        assert_allclose(trunc.left @ trunc.right, full.left @ full.right, atol=1e-10)

    def test_oversized_request_matches_exact(self):
        d = random_data(12, n=6, m=4)
        trunc, full = fit_truncated_exact_dmd(d, 10), fit_exact_dmd(d)
        assert_allclose(trunc.left @ trunc.right, full.left @ full.right, atol=1e-10)

    def test_diagonal_truncation(self):
        Y = np.diag([5.0, 3.0, 1.0, 0.5])
        op = fit_truncated_exact_dmd(DataMatrices(X=np.eye(4), Y=Y), 2)
        assert_allclose(op.left @ op.right, np.diag([5.0, 3.0, 0.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_economic_path_matches_dense_truncation(self, k):
        # oracle: dense SVD truncation of the materialized unconstrained fit
        d = random_data(13)
        full = fit_exact_dmd(d)
        dense = full.left @ full.right
        U, s, Vt = np.linalg.svd(dense)
        oracle = (U[:, :k] * s[:k]) @ Vt[:k]
        trunc = fit_truncated_exact_dmd(d, k)
        assert_allclose(trunc.left @ trunc.right, oracle, atol=1e-9)


class TestProjectedDmd:
    def test_identity_predecessors_match_truncated_svd(self, rng):
        # projection is vacuous when X = I: both baselines and the optimal
        # solver collapse to the best rank-k approximation of Y
        Y = rng.standard_normal((5, 5))
        d = DataMatrices(X=np.eye(5), Y=Y)
        U, s, Vt = np.linalg.svd(Y)
        for k in (1, 3):
            oracle = (U[:, :k] * s[:k]) @ Vt[:k]
            proj = fit_projected_dmd(d, k)
            assert_allclose(proj.left @ proj.right, oracle, atol=1e-10)
            opt, _ = fit_optimal_lowrank_dmd(d, k)
            assert_allclose(opt.left @ opt.right, oracle, atol=1e-10)

    def test_setting_i_matches_optimal(self, setting_i_data):
        import warnings

        ny = np.linalg.norm(setting_i_data.Y)
        # the single-trajectory dataset is rank-deficient by construction,
        # so the fitters warn; that behavior has its own test
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in (1, 5, 12, 25, 40):
                rc = lifted_residual(fit_projected_dmd(setting_i_data, k), setting_i_data)
                op, _ = fit_optimal_lowrank_dmd(setting_i_data, k)
                ra = lifted_residual(op, setting_i_data)
                assert abs(ra - rc) <= max(1e-8 * ra, 1e-9 * ny)

    def test_setting_iii_strictly_worse_than_optimal(self, setting_iii_data):
        rc = lifted_residual(fit_projected_dmd(setting_iii_data, 20), setting_iii_data)
        op, _ = fit_optimal_lowrank_dmd(setting_iii_data, 20)
        assert rc > lifted_residual(op, setting_iii_data)


class TestOptimalLowRankDmd:
    def test_full_rank_request_matches_exact(self):
        d = random_data(21)
        op, _ = fit_optimal_lowrank_dmd(d, d.m)
        full = fit_exact_dmd(d)
        assert_allclose(op.left @ op.right, full.left @ full.right, atol=1e-9)

    def test_eckart_young_degenerate_case(self, rng):
        # with X = I and symmetric Y the objective is the singular tail
        Ys = rng.standard_normal((6, 6))
        Ys = Ys + Ys.T
        d = DataMatrices(X=np.eye(6), Y=Ys)
        sigma = np.linalg.svd(Ys, compute_uv=False)
        for k in (1, 2, 4):
            op, _ = fit_optimal_lowrank_dmd(d, k)
            assert abs(lifted_residual(op, d) - np.linalg.norm(sigma[k:])) < 1e-10

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
            closed_form = lifted_residual(op, d)
            als_obj, _, _ = als_lowrank_fit(d.X, d.Y, k, restarts=10, iters=200, seed=seed)
            assert closed_form <= als_obj + 1e-8

    def test_factor_bundle_consistency(self):
        d = random_data(22)
        op, factors = fit_optimal_lowrank_dmd(d, 3)
        assert np.linalg.norm(factors.P.T @ factors.P - np.eye(3)) < 1e-10
        assert_allclose(op.left @ op.right, factors.P @ factors.Q.T, atol=1e-12)
        assert np.array_equal(op.left, factors.P)

    def test_projection_identity(self):
        # the fitted operator is exactly the projection of the
        # unconstrained solution onto the dominant subspace of Y
        d = random_data(23)
        k = 3
        op, _ = fit_optimal_lowrank_dmd(d, k)
        P = np.linalg.svd(d.Y, full_matrices=False)[0][:, :k]
        exact = fit_exact_dmd(d)
        full = exact.left @ exact.right
        assert_allclose(op.left @ op.right, P @ (P.T @ full), atol=1e-9)

    def test_projector_idempotent(self):
        d = random_data(24)
        op, factors = fit_optimal_lowrank_dmd(d, 2)
        A = op.left @ op.right
        proj = factors.P @ factors.P.T
        assert np.linalg.norm(proj @ A - A) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_dominates_baselines(self, seed):
        d = random_data(seed, n=9, m=6)
        ny = np.linalg.norm(d.Y)
        for k in range(1, 6):
            op, _ = fit_optimal_lowrank_dmd(d, k)
            ra = lifted_residual(op, d)
            assert ra <= lifted_residual(fit_truncated_exact_dmd(d, k), d) + 1e-9 * ny
            assert ra <= lifted_residual(fit_projected_dmd(d, k), d) + 1e-9 * ny

    def test_repeated_singular_values_objective_only(self):
        # the minimizer is not unique when the spectrum has ties, so only
        # the objective value is contractual
        Y = np.diag([3.0, 3.0, 1.0, 1.0])
        d = DataMatrices(X=np.eye(4), Y=Y)
        expected = {1: np.sqrt(9.0 + 1.0 + 1.0), 2: np.sqrt(2.0), 3: 1.0}
        for k, target in expected.items():
            op, _ = fit_optimal_lowrank_dmd(d, k)
            assert abs(lifted_residual(op, d) - target) < 1e-12

    def test_residual_monotone_in_rank(self):
        d = random_data(25, n=10, m=7)
        residuals = []
        for k in range(1, 8):
            op, _ = fit_optimal_lowrank_dmd(d, k)
            residuals.append(lifted_residual(op, d))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_clamp_beyond_rank_of_y(self, rng, refused):
        X = rng.standard_normal((8, 5))
        Y_low = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 5))  # rank 2
        d = DataMatrices(X=X, Y=Y_low)
        with pytest.warns(RankClampWarning):
            clamped, _ = fit_optimal_lowrank_dmd(d, 4)
        plain, _ = fit_optimal_lowrank_dmd(d, 2)
        assert np.array_equal(clamped.left @ clamped.right, plain.left @ plain.right)
        refused(RankClampWarning, lambda: fit_optimal_lowrank_dmd(d, 4))

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
        rows = [r for r in full_bench_result if (r.setting, r.method) == (setting, "a")]
        assert [row.k for row in rows] == list(toy_config.ranks())
        with warnings.catch_warnings():
            # rank-deficient X (setting i) and clamps beyond rank(Y V_r)
            warnings.simplefilter("ignore")
            fac = factorize(d)
            certified = [fac.certified_residual(row.k) for row in rows]
        for row, from_factors in zip(rows, certified):
            certificate = np.hypot(defect, np.linalg.norm(t[row.k :]))
            assert abs(row.residual - certificate) <= 1e-12 * np.linalg.norm(d.Y)
            assert abs(from_factors - certificate) <= 1e-12 * np.linalg.norm(d.Y)

    def test_certified_residual_with_rank_deficient_x(self, rng, refused):
        # rank(X) = 4 < m: part of Y lies outside the row space of X and
        # bounds every fit from below
        X = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 8))
        d = DataMatrices(X=X, Y=rng.standard_normal((12, 8)))
        with pytest.warns(RankDeficiencyWarning):
            fac = factorize(d)
        Vx = np.linalg.svd(X)[2][:4].T
        assert abs(fac.row_space_defect - np.linalg.norm(d.Y - d.Y @ Vx @ Vx.T)) < 1e-12
        assert fac.row_space_defect > 0.1 * np.linalg.norm(d.Y)
        assert abs(fac.span_defect - np.linalg.norm(d.Y - X @ np.linalg.pinv(X) @ d.Y)) < 1e-12
        for k in range(1, 5):
            op = fac.fit("optimal", k)
            assert abs(fac.certified_residual(k) - lifted_residual(op, d)) < 1e-12 * np.linalg.norm(d.Y)
        # the clamp of optimal(k): k above rank(Y V_x) = 4 warns, or raises
        # under a filter that makes the warning an error
        with pytest.warns(RankClampWarning):
            assert fac.certified_residual(6) == fac.certified_residual(4)
        full = DataMatrices(X=rng.standard_normal((8, 5)), Y=d.Y[:8, :2] @ rng.standard_normal((2, 5)))
        refused(RankClampWarning, lambda: factorize(full).certified_residual(3))

    @pytest.mark.parametrize("fit", ["exact", "truncated", "projected"])
    def test_numerically_zero_x_gives_rank_zero_fit(self, fit):
        # X = 0: no operator moves any state, so every baseline is the zero
        # operator of rank 0 with residual ||Y||, as the exact fit already was
        rng = np.random.default_rng(5)
        d = DataMatrices(X=np.zeros((6, 4)), Y=rng.standard_normal((6, 4)))
        with pytest.warns(RankDeficiencyWarning, match="rank 0"):
            op = {"exact": lambda: fit_exact_dmd(d),
                  "truncated": lambda: fit_truncated_exact_dmd(d, 1),
                  "projected": lambda: fit_projected_dmd(d, 1)}[fit]()
            fac = factorize(d)
        assert op.declared_rank == 0
        assert op.left.shape == (6, 0) and op.right.shape == (0, 6)
        norm_y = np.linalg.norm(d.Y)
        assert abs(residual_norm(op, d) - norm_y) <= 1e-12 * norm_y
        assert abs(lifted_residual(op, d) - norm_y) <= 1e-12 * norm_y
        if fit != "exact":
            [at_rank_0] = fac.residual_curve(fit)
            assert abs(at_rank_0 - norm_y) <= 1e-12 * norm_y

    def test_bad_rank_arguments(self):
        d = random_data(26)
        with pytest.raises(ValidationError):
            fit_optimal_lowrank_dmd(d, 0)
        with pytest.raises(ValidationError):
            fit_truncated_exact_dmd(d, -1)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_rank_must_be_an_integer(self, k):
        with pytest.raises(ValidationError, match="rank must be an integer"):
            factorize(random_data(26)).fit("optimal", k)


class TestResidualAndMaterialize:
    def test_zero_operator(self, rng):
        d = random_data(31)
        op = DmdOperator(left=np.zeros((8, 1)), right=np.zeros((1, 8)))
        assert abs(residual_norm(op, d) - np.linalg.norm(d.Y)) < 1e-12

    def test_factored_matches_dense(self):
        # oracle: dense recomputation of the residual
        d = random_data(32)
        op = fit_truncated_exact_dmd(d, 2)
        dense = np.linalg.norm(d.Y - op.left @ op.right @ d.X)
        assert abs(lifted_residual(op, d) - dense) < 1e-10

    def test_rank_one_materialize(self):
        op = DmdOperator(
            left=np.eye(3)[:, :1], right=np.eye(3)[1:2, :]
        )
        M = op.left @ op.right
        assert M[0, 1] == 1.0 and np.count_nonzero(M) == 1

    def test_frobenius_norm_from_factors(self, rng):
        left = rng.standard_normal((7, 3))
        right = rng.standard_normal((3, 7))
        op = DmdOperator(left=left, right=right)
        assert abs(op.frobenius - np.linalg.norm(left @ right)) < 1e-10

    def test_dimension_mismatch(self, rng):
        d = random_data(33)
        op = DmdOperator(left=np.zeros((5, 1)), right=np.zeros((1, 5)))
        with pytest.raises(ValidationError):
            residual_norm(op, d)


def rrr_reference(X, Y, tol=1e-12):
    """numpy-only references for every fitter, from dense SVDs of X and of
    Y V_r (reduced-rank regression): a function k -> {fit: A_k X} and the
    optimum residual at every k."""
    W, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.count_nonzero(s > tol * s[0]))
    W, s, V = W[:, :r], s[:r], Vt[:r].T
    YV = Y @ V
    P, t, _ = np.linalg.svd(YV, full_matrices=False)
    rank_yv = int(np.count_nonzero(t > tol * t[0]))
    M = (YV / s) @ W.T  # Y X^+
    Um, sm, Vmt = np.linalg.svd(M)
    rank_m = int(np.count_nonzero(sm > tol * sm[0]))
    B = W.T @ YV
    Ub, sb, Vbt = np.linalg.svd(B)
    rank_b = int(np.count_nonzero(sb > tol * sb[0]))
    defect = np.linalg.norm(Y - YV @ V.T)

    def fitted(k):
        ko, kt, kp = min(k, rank_yv), min(k, rank_m), min(k, rank_b)
        return {
            "exact": YV @ V.T,
            "optimal": P[:, :ko] @ (P[:, :ko].T @ YV) @ V.T,
            "truncated": (Um[:, :kt] * sm[:kt]) @ (Vmt[:kt] @ X),
            "projected": W @ ((Ub[:, :kp] * sb[:kp]) @ Vbt[:kp]) @ V.T,
        }

    def residual(k):
        return float(np.hypot(defect, np.linalg.norm(t[min(k, rank_yv):])))

    facts = {
        "rank_x": r,
        "rank_y": int(np.count_nonzero(np.linalg.svd(Y, compute_uv=False) > tol * np.linalg.norm(Y, 2))),
        "span_defect": float(np.linalg.norm(Y - W @ (W.T @ Y))),
        "row_space_defect": float(defect),
    }
    return fitted, residual, facts


def trajectories(seed, count, steps, n=60, shuffle=False):
    """Pairs of `count` noisy trajectories of a stable linear system in
    R^n, trajectory-major unless shuffled."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) / (1.5 * np.sqrt(n))
    states = np.empty((count, steps, n))
    states[:, 0] = rng.standard_normal((count, n))
    for t in range(1, steps):
        states[:, t] = states[:, t - 1] @ G.T + 0.1 * rng.standard_normal((count, n))
    X = states[:, :-1].reshape(-1, n).T.copy()
    Y = states[:, 1:].reshape(-1, n).T.copy()
    if shuffle:
        order = rng.permutation(X.shape[1])
        X, Y = X[:, order], Y[:, order]
    return DataMatrices(X=X, Y=Y)


def with_new_columns(u, seed=3, n=60, m=20):
    """m pairs whose Y repeats m - u columns of X and has u new ones."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m))
    Y = np.column_stack([X[:, rng.permutation(m)[: m - u]], rng.standard_normal((n, u))])
    return DataMatrices(X=X, Y=Y[:, rng.permutation(m)])


def periodic_states():
    # a trajectory that revisits its states: X has repeated columns and
    # every column of Y repeats one of them
    rng = np.random.default_rng(4)
    cycle = rng.standard_normal((30, 3))
    states = cycle[:, [0, 1, 2, 0, 1, 2, 0, 1]]
    return DataMatrices(X=states[:, :-1], Y=states[:, 1:])


def constant_first_row():
    # four trajectories with a constant first state entry: every column of
    # Y agrees in its first row with every column of X, not only the one
    # it repeats
    d = trajectories(5, 4, 6)
    X, Y = d.X.copy(), d.Y.copy()
    X[0], Y[0] = 1.0, 1.0
    return DataMatrices(X=X, Y=Y)


def equal_first_rows_only():
    # independent pairs whose first rows agree column by column, reversed,
    # and nothing else does
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 8))
    Y = rng.standard_normal((40, 8))
    Y[0] = X[0, ::-1]
    return DataMatrices(X=X, Y=Y)


COMPRESSION_CASES = {
    # name: (data, the number N of trajectories its pairs chain into when
    # one tall factorization of their m + N states serves X and Y, else
    # None: unchained pairs are m trajectories of two states, factored
    # apart; u-at-gate and u-above-gate are such pairs, 5 and 6 of whose 20
    # columns of Y are new)
    "one-trajectory": (lambda: trajectories(1, 1, 21), 1),
    "four-trajectories": (lambda: trajectories(2, 4, 6), 4),
    "three-steps": (lambda: trajectories(12, 7, 3), 7),
    "four-steps": (lambda: trajectories(13, 5, 4), 5),
    "shuffled": (lambda: trajectories(2, 4, 6, shuffle=True), None),
    "u-at-gate": (lambda: with_new_columns(5), None),
    "u-above-gate": (lambda: with_new_columns(6), None),
    "independent-pairs": (lambda: random_data(7, n=40, m=12), None),
    "rank-deficient-12x8": (lambda: DataMatrices(
        X=np.random.default_rng(2017).standard_normal((12, 4))
        @ np.random.default_rng(2018).standard_normal((4, 8)),
        Y=np.random.default_rng(2019).standard_normal((12, 8))), None),
    "wide-6x10": (lambda: random_data(8, n=6, m=10), None),
    "repeated-state": (periodic_states, 1),
    "constant-first-row": (constant_first_row, 4),
    "false-candidates": (equal_first_rows_only, None),
}


@pytest.fixture
def count_tall_factorizations(monkeypatch):
    import lrdmd.solvers

    calls = []
    original = lrdmd.solvers.qr_factor

    def counted(M, **kwargs):
        calls.append(M.shape)
        return original(M, **kwargs)

    monkeypatch.setattr(lrdmd.solvers, "qr_factor", counted)
    return calls


class TestCompressedFactorization:
    @pytest.mark.parametrize("case", COMPRESSION_CASES)
    def test_every_fit_matches_reference(self, case, count_tall_factorizations):
        make, trajectory_count = COMPRESSION_CASES[case]
        d = make()
        fitted, residual, facts = rrr_reference(d.X, d.Y)
        tol = 1e-11 * np.linalg.norm(d.Y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            fac = factorize(d)
        assert fac.rank_x == facts["rank_x"]
        assert fac.rank_of_y == facts["rank_y"]
        assert abs(fac.span_defect - facts["span_defect"]) <= tol
        assert abs(fac.row_space_defect - facts["row_space_defect"]) <= tol

        def applied(op):
            return op.left @ (op.right @ d.X)

        assert_allclose(applied(fac.fit("exact")), fitted(1)["exact"], atol=tol)
        for k in range(1, min(d.n, d.m) + 1):
            want = fitted(k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankClampWarning)
                op = fac.fit("optimal", k)
                certified = fac.certified_residual(k)
            assert_allclose(applied(op), want["optimal"], atol=tol)
            assert abs(certified - residual(k)) <= tol
            assert abs(lifted_residual(op, d) - residual(k)) <= tol
            assert_allclose(applied(fac.fit("truncated", k)), want["truncated"], atol=tol)
            assert_allclose(applied(fac.fit("projected", k)), want["projected"], atol=tol)
        # the route: all states once, or X and then Y once a fit needed it
        if trajectory_count is None:
            assert count_tall_factorizations == [d.X.shape, d.Y.shape]
        else:
            assert count_tall_factorizations == [(d.n, d.m + trajectory_count)]

    def test_trajectory_data_factored_once(self, count_tall_factorizations):
        d = trajectories(9, 4, 26, n=400)
        fac = factorize(d)
        assert count_tall_factorizations == [(400, 104)]
        fac.fit("exact"), fac.fit("truncated", 5), fac.fit("projected", 5), fac.fit("optimal", 5)
        fac.certified_residual(5), fac.span_defect, fac.rank_of_y
        assert count_tall_factorizations == [(400, 104)]

    def test_pairs_factor_y_on_first_use(self, count_tall_factorizations):
        d = random_data(10, n=400, m=30)
        fac = factorize(d)
        fac.fit("projected", 5), fac.span_defect
        assert count_tall_factorizations == [(400, 30)]
        fac.fit("exact"), fac.fit("optimal", 5), fac.fit("truncated", 5)
        fac.certified_residual(5)
        assert count_tall_factorizations == [(400, 30), (400, 30)]

    @pytest.mark.parametrize("steps, shared", [(2, False), (3, True)])
    def test_gate_on_explicit_trajectories(self, steps, shared, count_tall_factorizations):
        # N = 4 trajectories of T states, passed as explicit X and Y: pairs
        # of two states are factored apart, three states or more share one
        d = trajectories(11, 4, steps)
        assert d.states.shape == (4, steps, 60)
        fac = factorize(d)
        assert (fac.y_columns is not None) == shared
        assert count_tall_factorizations == [(60, 4 * steps if shared else d.m)]

    @pytest.mark.parametrize("case", ["four-trajectories", "independent-pairs"])
    def test_bit_identical_repeats_and_sign_convention(self, case):
        d = COMPRESSION_CASES[case][0]()
        first, again = fit_optimal_lowrank_dmd(d, 6), fit_optimal_lowrank_dmd(d, 6)
        for a, b in ((first[0].left, again[0].left), (first[0].right, again[0].right),
                     (first[1].Q, again[1].Q)):
            assert np.array_equal(a, b)
        P = first[1].P
        assert np.all(P[np.argmax(np.abs(P), axis=0), np.arange(P.shape[1])] > 0)
        assert np.linalg.norm(P.T @ P - np.eye(6)) < 1e-13


FACTOR_LAYOUTS = {
    # name: (data, whether X and Y share one basis), one per layout that
    # factorize's _columns tells apart, and pairs given as explicit X and Y;
    # trajectories apart have two states each, the only ones factored apart
    "one-trajectory": (lambda: SnapshotSet(trajectories(1, 1, 21).states), True),
    "shared-trajectories": (lambda: SnapshotSet(trajectories(2, 4, 6).states), True),
    "trajectories-apart": (lambda: SnapshotSet(trajectories(11, 12, 2).states), False),
    "two-state-pairs": (
        lambda: SnapshotSet(np.random.default_rng(17).standard_normal((12, 2, 60))), False),
    "data-matrices": (lambda: random_data(7, n=40, m=12), False),
}


def two_product_factors(fac, fit, k):
    """(left, right) of fac.fit(fit, k) at the rank k it kept, in the form
    of one product per factor: basis L_k lifted, its column signs set
    after lifting, and the flipped rows of R_k lifted through X's basis."""
    if fit == "exact":
        basis, L, R = fac._y[0], fac._y[1] @ (fac.V / fac.s), fac.U.T
    else:
        basis, L, R = fac._coefs(fit)[:3]
    left = basis.lift_rows(L[:, :k].T).T
    sign = column_signs(left)
    return left * sign, fac.basis.lift_rows(sign[:, None] * R[:k])


class TestFactorLayout:
    """A fit's factors are views of one read-only buffer of 2k rows where
    its basis is X's own, lifted in one product: left column-major, right
    row-major. Where Y was factored apart, each is lifted on its own."""

    @pytest.mark.parametrize("layout", FACTOR_LAYOUTS)
    @pytest.mark.parametrize("fit", ["exact", "optimal", "truncated", "projected"])
    def test_one_product_and_layouts(self, fit, layout, monkeypatch):
        make, shared = FACTOR_LAYOUTS[layout]
        fac = factorize(make())
        assert (fac.y_columns is not None) == shared
        k = fac.rank_x if fit == "exact" else 4
        want_left, want_right = two_product_factors(fac, fit, k)
        calls = []
        lift_rows = QrFactors.lift_rows

        def counted(basis, C):
            calls.append(C.shape[0])
            return lift_rows(basis, C)

        monkeypatch.setattr(QrFactors, "lift_rows", counted)
        op = fac.fit(fit, None if fit == "exact" else k)
        monkeypatch.undo()
        assert op.declared_rank == k
        # the projected fit is in X's basis whatever the layout
        assert calls == ([2 * k] if shared or fit == "projected" else [k, k])
        left, right = op.left, op.right
        assert left.flags.f_contiguous and right.flags.c_contiguous
        for a in (left, right):
            assert not a.flags.writeable
            assert a.base is None or not a.base.flags.writeable
        assert np.all(left[np.argmax(np.abs(left), axis=0), np.arange(k)] > 0)
        # one product reads the basis as two did, at the same flops: the
        # factors agree with the two-product form to roundoff, signs too
        assert np.all(np.abs(left - want_left) <= 1e-14 * np.abs(want_left).max(axis=0))
        assert np.all(np.abs(right - want_right) <= 1e-14 * np.abs(want_right).max(axis=1)[:, None])


class TestTolerance:
    """tol, relative to the largest singular value, must lie in [0, 1).
    Every fitter, the companion residual and lrdmd validate go through
    factorize, which checks it, and compute_modes shares its check."""

    @pytest.mark.parametrize("tol", [np.nan, -1e-12, -1.0, -np.inf, 1.0, 2.0, np.inf])
    def test_refused(self, tol):
        from lrdmd.modes import compute_modes
        from lrdmd.toybench import _span_defect

        op, _ = fit_optimal_lowrank_dmd(random_data(2), 2)
        d = random_data(1)
        calls = [
            lambda: factorize(d, tol),
            lambda: fit_exact_dmd(d, tol),
            lambda: fit_truncated_exact_dmd(d, 2, tol),
            lambda: fit_projected_dmd(d, 2, tol),
            lambda: fit_optimal_lowrank_dmd(d, 2, tol),
            lambda: _span_defect(factorize(d, tol), d.norm_y),
            lambda: compute_modes(op, tol=tol),
            lambda: compute_modes(op, "as_stated", tol),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=r"tol must lie in \[0, 1\)"):
                call()
        assert d._factorization is None

    def test_zero_is_valid(self):
        # no singular value is cut: the rank is the count of nonzero ones
        fac = factorize(random_data(1), 0.0)
        assert fac.tol == 0.0 and fac.rank_x == 5


def ill_pairs(n=2000, m=60, seed=23):
    """Independent pairs through a symmetric operator whose spectrum falls
    geometrically from 0.99 to 0.99e-10: X and Y are factored apart, Y by
    the shifted pass."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    spectrum = 0.99 * 10.0 ** (-10.0 * np.arange(m) / (m - 1))
    X = rng.standard_normal((n, m))
    return DataMatrices(X=X, Y=U @ (spectrum[:, None] * (U.T @ X)))


def optimal_fits(d):
    """(k, operator) of the optimal fit at every k up to min(n, m), clamped
    ones included."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        warnings.simplefilter("ignore", RankClampWarning)
        fac = factorize(d)
        return [(k, fac.fit("optimal", k)) for k in range(1, min(d.n, d.m) + 1)]


RANK_SPACE_CASES = {**{name: make for name, (make, _) in COMPRESSION_CASES.items()},
                    "ill-independent-pairs": ill_pairs}


def core_from_factors(op):
    """The rank-space core that DmdOperator forms from its factors:
    (transition, gram, singular values of R, ||A||_F)."""
    L, R = op.left, op.right
    return (R @ L, L.T @ L, thin_svd(qr_factor(R.T).R).sigma,
            float(np.sqrt(abs(np.sum((L.T @ L) * (R @ R.T))))))


class TestRankSpaceCore:
    """The optimal fit forms its transition Q^T P, its R's singular values
    and ||A||_F at size c; they must match the n-row products they replace.
    Any other operator forms its core from its factors."""

    @pytest.mark.parametrize("case", RANK_SPACE_CASES)
    def test_transition_matches_n_row_product(self, case):
        for _, op in optimal_fits(RANK_SPACE_CASES[case]()):
            P, Q = op.left, op.right.T
            want = Q.T @ P
            assert op.transition.shape == want.shape
            assert np.linalg.norm(op.transition - want) <= (
                1e-13 * np.linalg.norm(Q) * np.linalg.norm(P)
            )

    @pytest.mark.parametrize("case", RANK_SPACE_CASES)
    def test_frobenius_norm_matches_product(self, case):
        for _, op in optimal_fits(RANK_SPACE_CASES[case]()):
            want = np.linalg.norm(op.left @ op.right)
            assert abs(op.frobenius - want) <= 1e-13 * want

    @pytest.mark.parametrize("case", RANK_SPACE_CASES)
    def test_size_c_core_matches_core_from_factors(self, case):
        # the same bounds as above: the transition to 1e-13 ||Q|| ||P||,
        # the norm and the singular values to 1e-13 of their scale, and
        # the orthonormal P, for which the fit keeps no Gram, to 1e-13
        for _, op in optimal_fits(RANK_SPACE_CASES[case]()):
            transition, gram, sigma, frobenius = core_from_factors(op)
            P, Q = op.left, op.right.T
            assert op.gram is None
            assert np.linalg.norm(gram - np.eye(op.declared_rank)) <= 1e-13
            assert np.linalg.norm(op.transition - transition) <= (
                1e-13 * np.linalg.norm(Q) * np.linalg.norm(P)
            )
            assert np.max(np.abs(op.right_singular_values - sigma)) <= 1e-13 * sigma[0]
            assert abs(op.frobenius - frobenius) <= 1e-13 * frobenius

    def test_clamped_fit_carries_its_clamped_core(self):
        # rank(Y V) = 4 on the rank-deficient 12x8 input: every k >= 4 is
        # the k = 4 fit, its core included
        fits = optimal_fits(RANK_SPACE_CASES["rank-deficient-12x8"]())
        assert [op.declared_rank for _, op in fits] == [1, 2, 3, 4, 4, 4, 4, 4]
        assert all(np.array_equal(op.transition, fits[3][1].transition) for _, op in fits[4:])

    def test_replaced_operator_takes_the_factors(self):
        op, _ = fit_optimal_lowrank_dmd(RANK_SPACE_CASES["ill-independent-pairs"](), 20)
        copy = dataclasses.replace(op)
        transition, gram, sigma, frobenius = core_from_factors(copy)
        assert np.array_equal(copy.transition, transition)
        assert np.array_equal(copy.gram, gram)
        assert np.array_equal(copy.right_singular_values, sigma)
        assert copy.frobenius == frobenius
        assert abs(copy.frobenius - op.frobenius) <= 1e-13 * op.frobenius

    def test_hand_built_operator_takes_the_factors(self, rng):
        op = DmdOperator(left=rng.standard_normal((30, 4)), right=rng.standard_normal((4, 30)))
        transition, gram, sigma, frobenius = core_from_factors(op)
        assert np.array_equal(op.transition, transition)
        assert np.array_equal(op.gram, gram)
        assert np.array_equal(op.right_singular_values, sigma)
        assert op.frobenius == frobenius
        # formed once, then cached and read-only
        assert op.transition is op.transition and op.gram is op.gram
        for a in (op.transition, op.gram, op.right_singular_values):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_paper_names_alias_the_factors(self):
        op, same = fit_optimal_lowrank_dmd(random_data(22), 3)
        assert same is op
        assert op.P is op.left
        assert np.shares_memory(op.Q, op.right) and np.array_equal(op.Q, op.right.T)


class TestResidualFromCoefficients:
    @pytest.mark.parametrize("case", COMPRESSION_CASES)
    def test_matches_lifted_fit_at_every_rank(self, case):
        d = COMPRESSION_CASES[case][0]()
        tol = 1e-12 * np.linalg.norm(d.Y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            fac = factorize(d)
            # its own factorization: factorize(d) would return fac again
            lifted = factorize(DataMatrices(X=d.X, Y=d.Y))
        for k in range(1, min(d.n, d.m) + 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankClampWarning)
                fits = {
                    "optimal": lifted.fit("optimal", k),
                    "truncated": lifted.fit("truncated", k),
                    "projected": lifted.fit("projected", k),
                }
                for fit, op in fits.items():
                    assert abs(curve_at(fac, fit, k) - residual_norm(op, d)) <= tol, (fit, k)

    def test_projected_takes_the_part_outside_the_basis(self):
        # independent pairs: Y has its own basis and a part outside X's,
        # where the projected residual plateaus at the span defect
        d = random_data(7, n=40, m=12)
        fac = factorize(d)
        assert fac.y_columns is None and fac._outside > 0.1 * np.linalg.norm(d.Y)
        assert abs(curve_at(fac, "projected", 12) - fac.span_defect) <= 1e-12 * np.linalg.norm(d.Y)
        shared = factorize(trajectories(2, 4, 6))
        assert shared.y_columns is not None and shared._outside == 0.0

    def test_optimal_clamp_and_unknown_fit(self, rng, refused):
        X = rng.standard_normal((8, 5))
        d = DataMatrices(X=X, Y=rng.standard_normal((8, 2)) @ rng.standard_normal((2, 5)))
        fac = factorize(d)
        with pytest.warns(RankClampWarning):
            assert fac.fit("optimal", 4).source[2] == 2
        refused(RankClampWarning, lambda: fac.fit("optimal", 4))
        # truncated and projected keep min(k, rank), as their slices do
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fac.fit("truncated", 5).source[2] == fac.fit("truncated", 4).source[2] == 2
        for fit in ("exact", "a", ""):
            with pytest.raises(ValidationError, match="unknown fit"):
                fac.residual_curve(fit)
        for fit in ("a", ""):
            with pytest.raises(ValidationError, match="unknown fit"):
                fac.fit(fit, 2)
        with pytest.raises(ValidationError):
            fac.fit("projected", 0)


def curve_at(fac, fit, k):
    """The residual of fit(fit, k), read off the curve at the rank the fit
    keeps, as lrdmd bench reads its rows."""
    curve = fac.residual_curve(fit)
    return curve[min(k, curve.size - 1)]


def direct_residual(fac, fit, k):
    """||T - L_k (R R_x)_k||_F of a rank-k fit's _coefs row, the product
    formed and subtracted, with T = R_y (optimal, truncated) or B = Q^T Y
    and then the hypot with ||Y - Q B|| (projected)."""
    _, L, R, _, _ = fac._coefs(fit)
    fitted = L[:, :k] @ (R[:k] @ fac.basis.R[:, fac.x_columns])
    if fit == "projected":
        return float(np.hypot(fac._outside, np.linalg.norm(fac._y_coords - fitted)))
    return float(np.linalg.norm(fac._y[1] - fitted))


CURVE_CASES = {
    **{f"setting-{s}": s for s in ("i", "ii", "iii")},
    "rank-deficient-12x8": COMPRESSION_CASES["rank-deficient-12x8"][0],
    "wide-6x10": COMPRESSION_CASES["wide-6x10"][0],
    "zero-y": lambda: DataMatrices(
        X=np.random.default_rng(3).standard_normal((6, 4)), Y=np.zeros((6, 4))),
}


class TestResidualCurve:
    @pytest.mark.parametrize("case", CURVE_CASES)
    def test_matches_direct_evaluation_at_every_rank(self, case, toy_config):
        make = CURVE_CASES[case]
        d = benchmark_data(toy_config, make) if isinstance(make, str) else make()
        tol = 1e-15 * np.linalg.norm(d.Y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            fac = factorize(d)
        for fit in ("optimal", "truncated", "projected"):
            if case == "zero-y" and fit == "optimal":
                # nothing to fit, as fit("optimal", k) says for every k
                with pytest.raises(RankGuardError):
                    fac.residual_curve(fit)
                continue
            curve = fac.residual_curve(fit)
            rank = fac._coefs(fit)[3]
            assert curve.shape == (rank + 1,) and not curve.flags.writeable
            assert fac.residual_curve(fit) is curve  # computed once
            for k in range(rank + 1):
                assert abs(curve[k] - direct_residual(fac, fit, k)) <= tol, (fit, k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankClampWarning)
                for k in range(1, rank + 3):
                    assert residual_norm(fac.fit(fit, k), d) == curve[min(k, rank)]

    def test_unknown_fit(self):
        fac = factorize(random_data(3))
        for fit in ("exact", "a"):
            with pytest.raises(ValidationError, match="unknown fit"):
                fac.residual_curve(fit)


FITS = ("optimal", "exact", "truncated", "projected")


def fit_one(fit, d, k=5):
    """The arrays that one fitter returns."""
    if fit == "optimal":
        op, _ = fit_optimal_lowrank_dmd(d, k)
        return [op.left, op.right, op.transition, op.right_singular_values, op.frobenius]
    if fit == "exact":
        op = fit_exact_dmd(d)
    else:
        op = (fit_truncated_exact_dmd if fit == "truncated" else fit_projected_dmd)(d, k)
    return [op.left, op.right]


def fit_all(d, k=5):
    """Fit name -> fit_one(fit, d, k), the four fitters in turn."""
    return {fit: fit_one(fit, d, k) for fit in FITS}


class TestFactorizationReuse:
    def test_trajectory_data_factored_once_across_fits(self, count_tall_factorizations):
        d = trajectories(9, 4, 26, n=400)
        fit_all(d)
        fac = factorize(d)
        assert factorize(d) is fac
        assert count_tall_factorizations == [(400, 104)]

    def test_independent_pairs_factor_x_then_y_once(self, count_tall_factorizations):
        d = random_data(10, n=400, m=30)
        fit_projected_dmd(d, 5)
        assert count_tall_factorizations == [(400, 30)]
        fit_all(d), fit_all(d, 7)
        assert count_tall_factorizations == [(400, 30), (400, 30)]

    def test_new_key_or_new_object_factors_anew(self, count_tall_factorizations):
        d = trajectories(9, 4, 26, n=400)
        fac = factorize(d)
        others = [factorize(d, tol=1e-10), factorize(DataMatrices(X=d.X, Y=d.Y))]
        assert all(other is not fac for other in others)
        assert len(count_tall_factorizations) == 3
        # d holds one Factorization: the one at 1e-10 replaced its first
        assert factorize(d) is not fac
        assert len(count_tall_factorizations) == 4

    @pytest.mark.parametrize("case", ["four-trajectories", "independent-pairs"])
    def test_warm_results_bit_identical_to_cold(self, case):
        make = COMPRESSION_CASES[case][0]
        d = make()
        fit_all(d), fit_all(trajectories(14, 3, 9))
        # every fit from d's kept factorization and its cores, with another
        # dataset fitted in between
        warm = fit_all(d)
        for fit in FITS:
            # a fresh DataMatrices is factored by the fit's own call
            cold = fit_one(fit, make())
            assert all(np.array_equal(a, b) for a, b in zip(warm[fit], cold)), fit

    def test_warning_and_strict_refusal_on_every_call(self, count_tall_factorizations):
        rng = np.random.default_rng(2017)
        d = DataMatrices(X=rng.standard_normal((12, 4)) @ rng.standard_normal((4, 8)),
                         Y=rng.standard_normal((12, 8)))
        for call in (lambda: factorize(d), lambda: fit_exact_dmd(d),
                     lambda: fit_optimal_lowrank_dmd(d, 2), lambda: factorize(d)):
            with pytest.warns(RankDeficiencyWarning, match="rank 4 < m=8"):
                call()
        # the refusal is the warning made an error, at the same key: d keeps
        # its Factorization, and X is not factored again
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficiencyWarning)
            for _ in range(3):
                with pytest.raises(RankDeficiencyWarning, match="rank 4 < m=8"):
                    fit_projected_dmd(d, 2)
        # X, then Y for the exact fit
        assert count_tall_factorizations == [(12, 8)] * 2

    @pytest.mark.parametrize("case", ["four-trajectories", "independent-pairs", "rank-deficient-12x8"])
    def test_one_factorization_per_tol_whatever_the_fits(
        self, case, count_tall_factorizations, count_row_passes, refused
    ):
        # at one tol, no fit, clamp or refusal replaces d's Factorization,
        # and an operator fitted first keeps its residual at size c
        d = COMPRESSION_CASES[case][0]()
        k = min(d.n, d.m) + 1  # past every rank: the optimal fit clamps
        steps = [
            lambda: fit_optimal_lowrank_dmd(d, k),
            lambda: refused(RankClampWarning, lambda: fit_optimal_lowrank_dmd(d, k)),
            lambda: fit_projected_dmd(d, 3),
            lambda: fit_truncated_exact_dmd(d, k),
            lambda: fit_exact_dmd(d),
            lambda: fit_all(d, 2),
        ]
        if case == "rank-deficient-12x8":
            steps.insert(2, lambda: refused(RankDeficiencyWarning, lambda: fit_projected_dmd(d, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fac = factorize(d)
            first = fit_exact_dmd(d)
            want = residual_norm(first, d)
            built = len(count_tall_factorizations)
            for step in steps:
                step()
                assert residual_norm(first, d) == want
                assert factorize(d) is fac
        assert len(count_tall_factorizations) == built
        assert count_row_passes == []

    def test_interleaved_datasets_factored_once_each(self, count_tall_factorizations):
        a = trajectories(9, 4, 26, n=400)  # one basis for X and Y
        b = random_data(10, n=400, m=30)  # X, then Y on first use
        for d in (a, b, a, b):
            fit_all(d)
        assert count_tall_factorizations == [(400, 104), (400, 30), (400, 30)]

    def test_data_holds_one_factorization(self):
        gc.disable()
        try:
            d = trajectories(9, 4, 26, n=400)
            built = []
            for tol in (1e-12, 1e-10, 1e-11, 1e-12):
                fac = factorize(d, tol)
                built.append(weakref.ref(fac))
                assert d._factorization is fac and fac.tol == tol
                del fac
                # the one it replaced is freed with its n-row bases
                assert [ref() is not None for ref in built] == [False] * (len(built) - 1) + [True]
        finally:
            gc.enable()

    def test_dropping_the_data_frees_its_factorization(self):
        gc.disable()
        try:
            d = random_data(11, n=400, m=30)
            fit_all(d)
            data, fac = weakref.ref(d), weakref.ref(factorize(d))
            assert fac() is not None  # held by d alone
            del d
            assert data() is None
            assert fac() is None  # and with it the n-row bases of X and Y
        finally:
            gc.enable()

    def test_data_read_only_and_detached_from_its_source(self, rng):
        X = rng.standard_normal((40, 6))
        d = DataMatrices(X=X, Y=rng.standard_normal((40, 6)))
        with pytest.raises(ValueError, match="read-only"):
            d.X[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            d.Y += 1.0
        before = factorize(d).fit("exact").left
        X[:] = 0.0
        assert not np.any(d.X == 0.0)
        assert np.array_equal(factorize(d).fit("exact").left, before)

    def test_shared_arrays_read_only(self):
        d = random_data(12, n=60, m=8)
        op, _ = fit_optimal_lowrank_dmd(d, 3)
        for a in (op.transition, op.right_singular_values):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        fac = factorize(d)
        shared = [fac.U, fac.s, fac.V, fac.basis.Q1, fac.basis.R, fac._y[0].Q1, fac._y[1],
                  fac.yv.W, fac.yv.sigma, fac.yv.V, fac._y_coords, *fac._optimal_coefs]
        for fit in ("optimal", "truncated", "projected"):
            shared += [a for a in fac._coefs(fit) if isinstance(a, np.ndarray)]
        with pytest.raises(ValueError, match="read-only"):
            fac.V[0, 0] = 0.0
        assert not any(a.flags.writeable for a in shared)
        # what the fits return is read-only too: an operator's link to its
        # Factorization holds only while its factors are the fit's
        op = fac.fit("optimal", 3)
        for a in (op.left, op.right, op.P, op.Q):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0
        for op in (fac.fit("exact"), fac.fit("truncated", 3), fac.fit("projected", 3)):
            with pytest.raises(ValueError, match="read-only"):
                op.left[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                op.right *= 2.0


def fit_operators(d, k):
    """Fit name -> the operator that fit_* returns for d at rank k."""
    return {
        "exact": fit_exact_dmd(d),
        "optimal": fit_optimal_lowrank_dmd(d, k)[0],
        "truncated": fit_truncated_exact_dmd(d, k),
        "projected": fit_projected_dmd(d, k),
    }


@pytest.fixture
def count_row_passes(monkeypatch):
    """The shapes of Y in every row-block pass ||Y - L C|| (solvers._distance)."""
    import lrdmd.solvers

    calls = []
    original = lrdmd.solvers._distance

    def counted(Y, L, C):
        calls.append(Y.shape)
        return original(Y, L, C)

    monkeypatch.setattr(lrdmd.solvers, "_distance", counted)
    return calls


class TestResidualFromFactorization:
    @pytest.mark.parametrize("case", COMPRESSION_CASES)
    def test_every_fit_matches_row_blocks(self, case):
        d = COMPRESSION_CASES[case][0]()
        tol = 1e-12 * np.linalg.norm(d.Y)
        # ranks past min(n, m) clamp the optimal fit (rank-deficient-12x8
        # and repeated-state clamp earlier)
        for k in range(1, min(d.n, d.m) + 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankDeficiencyWarning)
                warnings.simplefilter("ignore", RankClampWarning)
                ops = fit_operators(d, k)
                fac = factorize(d)
            for fit, op in ops.items():
                linked, name, kept = op.source
                assert linked() is fac and name == fit and kept == op.declared_rank
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    fast = residual_norm(op, d)
                assert fast == fac._residual(fit, kept)
                assert abs(fast - lifted_residual(op, d)) <= tol, (fit, k)

    def test_exact_fit_evaluated_not_assumed_zero(self):
        # full column rank: the exact residual is roundoff, not a literal 0
        d = trajectories(1, 1, 21)
        op = fit_exact_dmd(d)
        assert op.source[2] == d.m
        assert 0.0 < residual_norm(op, d) < 1e-12 * np.linalg.norm(d.Y)

    def test_replaced_operator_gets_its_own_residual(self):
        d = random_data(13, n=60, m=12)
        op = fit_truncated_exact_dmd(d, 4)
        doubled = dataclasses.replace(op, right=2 * op.right)
        assert doubled.source is None and op.source is not None
        true = np.linalg.norm(d.Y - doubled.left @ (doubled.right @ d.X))
        assert abs(residual_norm(doubled, d) - true) <= 1e-12 * true
        assert abs(residual_norm(doubled, d) - residual_norm(op, d)) > 0.1 * true
        # an operator built by hand has no link either
        assert DmdOperator(left=op.left, right=op.right).source is None

    def test_hand_built_operator_over_every_row_block(self, row_block):
        # through the factors, its squares summed over every block of rows
        d = random_data(15, n=7, m=5)
        rng = np.random.default_rng(16)
        op = DmdOperator(left=rng.standard_normal((7, 2)), right=rng.standard_normal((2, 7)))
        want = np.linalg.norm(d.Y - op.left @ (op.right @ d.X))
        assert abs(residual_norm(op, d) - want) <= 1e-13 * want
        # the part of Y outside X's basis, the n-row term of independent pairs
        fac = factorize(d)
        assert fac.y_columns is None
        want = np.linalg.norm(d.Y - d.X @ np.linalg.pinv(d.X) @ d.Y)
        assert abs(fac.span_defect - want) <= 1e-12 * want

    def test_other_data_takes_the_row_block_path(self, count_row_passes):
        calls = count_row_passes
        d = trajectories(3, 4, 11)  # Y in the basis: no n-row term at all
        op, _ = fit_optimal_lowrank_dmd(d, 5)
        fast = residual_norm(op, d)
        assert calls == []
        copy = DataMatrices(X=d.X, Y=d.Y)
        assert abs(residual_norm(op, copy) - fast) <= 1e-12 * np.linalg.norm(d.Y)
        other = trajectories(4, 4, 11)
        want = np.linalg.norm(other.Y - op.left @ (op.right @ other.X))
        assert abs(residual_norm(op, other) - want) <= 1e-12 * want
        assert calls == [d.Y.shape, other.Y.shape]

    def test_link_is_weak(self, count_row_passes):
        calls = count_row_passes
        gc.disable()
        try:
            d = trajectories(5, 4, 11)
            ops = fit_operators(d, 4)
            fac = weakref.ref(factorize(d))
            fast = {fit: residual_norm(op, d) for fit, op in ops.items()}
            assert calls == []
            # fitting another dataset leaves d's Factorization in place
            fit_operators(trajectories(6, 4, 11), 4)
            assert fac() is not None and all(op.source[0]() is not None for op in ops.values())
            # refactoring d under another tol replaces it; the operators
            # keep no reference to the old one or its n-row bases
            factorize(d, tol=1e-10)
            assert fac() is None
            assert all(op.source[0]() is None for op in ops.values())
            for fit, op in ops.items():
                assert abs(residual_norm(op, d) - fast[fit]) <= 1e-12 * np.linalg.norm(d.Y), fit
            assert len(calls) == len(ops)
        finally:
            gc.enable()

    def test_exact_fit_lifts_through_y_basis(self, count_tall_factorizations, count_row_passes):
        calls = count_row_passes
        d = random_data(16, n=400, m=30)  # independent pairs: Y has its own basis
        op = fit_exact_dmd(d)
        # the exact fit factors Y, as every fit but the projected one does,
        # and its residual is taken at size c, with no n-row pass
        assert count_tall_factorizations == [d.X.shape, d.Y.shape]
        at_size_c = residual_norm(op, d)
        assert calls == []
        by_rows = lifted_residual(op, d)
        assert calls == [d.Y.shape]
        assert abs(at_size_c - by_rows) <= 1e-12 * np.linalg.norm(d.Y)
        dense = d.Y @ np.linalg.pinv(d.X)
        assert_allclose(op.left @ op.right, dense, atol=1e-12 * np.linalg.norm(dense))


class TestLapackBreakdown:
    """A LAPACK breakdown in the factorization (here a monkeypatched SVD
    that does not converge) is a NumericalGuardError, chained from numpy's
    LinAlgError."""

    @pytest.mark.parametrize(
        "trajectories, states, n",
        [(1, 11, 400), (40, 2, 50)],
        # Cholesky QR of one shared basis; Householder QR of X and Y apart
        ids=["tall-trajectory", "pairs"],
    )
    def test_factorize(self, monkeypatch, trajectories, states, n):
        rng = np.random.default_rng(3)
        d = SnapshotSet(states=rng.standard_normal((trajectories, states, n)))

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", broken)
        with pytest.raises(NumericalGuardError, match="SVD did not converge") as caught:
            factorize(d)
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)


def random_walk(scale, n=400, states=41):
    """One random walk of `states` states in R^n, times scale: tall enough
    for Cholesky QR."""
    steps = np.random.default_rng(8).standard_normal((1, states, n))
    return SnapshotSet(states=np.cumsum(steps, axis=1) * scale)


class TestOverflowedGram:
    """Squares of data near 1e160 overflow: the Cholesky Gram is refused
    before it is factored, with no warning on the way."""

    def test_refused_before_factoring(self):
        d = random_walk(1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalGuardError, match="Gram matrix of a 400-by-41 matrix overflows"):
                factorize(d)
        assert d._factorization is None

    def test_fits_below_the_overflow(self):
        want = fit_optimal_lowrank_dmd(random_walk(1.0), 3)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = fit_optimal_lowrank_dmd(random_walk(1e150), 3)[0]
        A, B = op.left @ op.right, want.left @ want.right
        assert np.linalg.norm(A - B) <= 1e-10 * np.linalg.norm(B)
