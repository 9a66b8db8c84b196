"""Kernel checks: the restart-batched ALS sweep against a restart-by-restart
reference loop, and the trajectory recursions against explicit loops and
their overflow guard."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd import kernels


def sequential_als_sweep(X, Y, YXp, inits, iters):
    """Reference: the same recurrence run one restart at a time, keeping the
    first iterate that strictly improves on the best seen so far."""
    restarts, n, k = inits.shape
    eye = np.eye(k)
    best, best_L, best_R = np.inf, np.zeros((n, k)), np.zeros((k, n))
    for r in range(restarts):
        L = inits[r].copy()
        for _ in range(iters):
            G = L.T @ L
            R = np.linalg.solve(G + (1e-12 * np.trace(G) / k + 1e-30) * eye, L.T @ YXp)
            Z = R @ X
            H = Z @ Z.T
            L = np.linalg.solve(H + (1e-12 * np.trace(H) / k + 1e-30) * eye, Z @ Y.T).T
            obj = np.linalg.norm(Y - L @ Z)
            if obj < best:
                best, best_L, best_R = obj, L.copy(), R.copy()
    return best, best_L, best_R


def als_problem(rng, n, m, rank_x=None):
    X = rng.standard_normal((n, m))
    if rank_x is not None:
        X = rng.standard_normal((n, rank_x)) @ rng.standard_normal((rank_x, m))
    Y = rng.standard_normal((n, m))
    return X, Y, np.ascontiguousarray(Y @ np.linalg.pinv(X))


class TestAlsSweepMatchesSequential:
    @pytest.mark.parametrize(
        "n, m, rank_x, k",
        [(6, 4, None, 1), (6, 4, None, 2), (12, 8, 4, 2), (6, 10, None, 2)],
        ids=["6x4-k1", "6x4-k2", "rank-deficient-12x8", "wide-6x10"],
    )
    def test_objective_matches_reference_loop(self, rng, n, m, rank_x, k):
        # factors are not compared: tied restarts may return different but
        # equally optimal factor pairs
        X, Y, YXp = als_problem(rng, n, m, rank_x)
        inits = rng.standard_normal((8, n, k))
        obj, L, R = kernels.als_sweep(X, Y, YXp, inits, 120)
        ref, _, _ = sequential_als_sweep(X, Y, YXp, inits, 120)
        assert_allclose(obj, ref, rtol=1e-12)
        assert L.shape == (n, k) and R.shape == (k, n)
        assert_allclose(np.linalg.norm(Y - L @ (R @ X)), obj, rtol=1e-12)

    def test_collapsed_inits_give_finite_objective(self, rng):
        X, Y, YXp = als_problem(rng, 6, 4)
        obj, L, R = kernels.als_sweep(X, Y, YXp, np.zeros((3, 6, 2)), 20)
        assert np.isfinite(obj)
        assert_allclose(obj, np.linalg.norm(Y), rtol=1e-12)
        assert np.all(np.isfinite(L)) and np.all(np.isfinite(R))


def stepwise_reduced(M, z_first, horizon, stride, limit):
    """Reference: z <- M @ z one step at a time, the guard on each step."""
    out, z = [], z_first.copy()
    for t in range(2, horizon + 1):
        if t > 2:
            z = M @ z
        s = float(z @ z)
        if not np.isfinite(s) or s > limit * limit:
            return np.array(out).reshape(-1, z.shape[0]), t
        if (t - 1) % stride == 0:
            out.append(z)
    return np.array(out).reshape(-1, z.shape[0]), 0


def stepwise_factored(left, right, x0, horizon, stride, limit):
    """Reference: the rank-space recursion of propagate_factored, guarded on
    z^T (L^T L) z one step at a time."""
    M, G = right @ left, left.T @ left
    kept, z, overflow = [], right @ x0, 0
    for t in range(2, horizon + 1):
        if t > 2:
            z = M @ z
        s = float(z @ (G @ z))
        if not np.isfinite(s) or s > limit * limit:
            overflow = t
            break
        if (t - 1) % stride == 0:
            kept.append(z)
    lifted = np.array(kept).reshape(-1, M.shape[0]) @ left.T
    return np.vstack([x0[None, :], lifted]), overflow


class TestBlockedRecursion:
    """The recursions step one np.matmul at a time and check their guard once
    per block of steps; the states and the step that trips the guard must be
    those of a loop that checks every step."""

    @pytest.mark.parametrize("radius", [0.97, 1.0, 1.6], ids=["decaying", "neutral", "divergent"])
    @pytest.mark.parametrize("stride", [1, 50, 7])
    def test_reduced_bitwise_equal_to_stepwise_loop(self, rng, radius, stride):
        M = rng.standard_normal((20, 20))
        M *= radius / np.abs(np.linalg.eigvals(M)).max()
        z2 = rng.standard_normal(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, flag = kernels.propagate_reduced(M, z2, 1000, stride, 1e150)
        want, want_flag = stepwise_reduced(M, z2, 1000, stride, 1e150)
        assert flag == want_flag
        assert (flag > 0) == (radius > 1.0)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("radius", [0.97, 1.6], ids=["decaying", "divergent"])
    @pytest.mark.parametrize("stride", [1, 50])
    def test_factored_bitwise_equal_to_stepwise_loop(self, rng, radius, stride):
        left = rng.standard_normal((60, 8))
        right = rng.standard_normal((8, 60))
        right *= radius / np.abs(np.linalg.eigvals(right @ left)).max()
        x0 = rng.standard_normal(60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, flag = kernels.propagate_factored(left, right, x0, 1000, stride, 1e150)
        want, want_flag = stepwise_factored(left, right, x0, 1000, stride, 1e150)
        assert flag == want_flag
        assert (flag > 0) == (radius > 1.0)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("radius", [0.97, 1.6], ids=["decaying", "divergent"])
    def test_reduced_with_gram_is_the_factored_recursion(self, rng, radius):
        # given G = L^T L, propagate_reduced guards the lifted norm: its
        # states and its tripping step are those of propagate_factored
        left = rng.standard_normal((60, 8))
        right = rng.standard_normal((8, 60))
        right *= radius / np.abs(np.linalg.eigvals(right @ left)).max()
        x0 = rng.standard_normal(60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, flag = kernels.propagate_reduced(
                right @ left, right @ x0, 1000, 7, 1e150, left.T @ left
            )
            want, want_flag = kernels.propagate_factored(left, right, x0, 1000, 7, 1e150)
        assert flag == want_flag
        assert (flag > 0) == (radius > 1.0)
        assert np.array_equal(got @ left.T, want[1:])

    @pytest.mark.parametrize("horizon", [256, 257, 258, 513])
    def test_block_edges(self, rng, horizon):
        M = 0.5 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
        z2 = rng.standard_normal(4)
        got, flag = kernels.propagate_reduced(M, z2, horizon, 1, 1e150)
        want, _ = stepwise_reduced(M, z2, horizon, 1, 1e150)
        assert flag == 0 and got.shape == (horizon - 1, 4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("trip", [257, 258])
    def test_trip_on_a_block_edge(self, trip):
        # ||z_t||^2 = 4^(t-2), exact, first exceeds limit^2 = 2^(2 trip - 5)
        # at t = trip: the last step of the first block (t = 2..257) or the
        # first of the second; nothing from it on is kept
        limit = 2.0 ** (trip - 2.5)
        got, flag = kernels.propagate_reduced(2.0 * np.eye(1), np.ones(1), 2000, 1, limit)
        assert flag == trip and got.shape == (trip - 2, 1)
        assert np.array_equal(got[:, 0], 2.0 ** np.arange(trip - 2))


class TestPropagation:
    def test_factored_matches_explicit_loop(self, rng):
        left = rng.standard_normal((6, 2))
        right = rng.standard_normal((2, 6))
        x0 = rng.standard_normal(6)
        traj, flag = kernels.propagate_factored(left, right, x0, 5, 1, 1e150)
        assert flag == 0
        x = x0.copy()
        for t in range(5):
            assert_allclose(traj[t], x, rtol=1e-13)
            x = left @ (right @ x)

    def test_reduced_matches_explicit_loop(self, rng):
        M = rng.standard_normal((3, 3))
        z2 = rng.standard_normal(3)
        zt, flag = kernels.propagate_reduced(M, z2, 6, 1, 1e150)
        assert flag == 0
        z = z2.copy()
        for row in range(5):  # states at t = 2..6
            assert_allclose(zt[row], z, rtol=1e-13)
            z = M @ z

    def test_overflow_reported(self):
        # |x_t|^2 = 2 * 10^(2(t-1)) first exceeds 1e300 at t = 151
        left = 10.0 * np.eye(2)
        traj, flag = kernels.propagate_factored(left, np.eye(2), np.ones(2), 1000, 1, 1e150)
        assert flag == 151
        assert np.all(np.isfinite(traj))
        assert traj.shape == (150, 2)
        assert_allclose(traj[-1], np.full(2, 1e149), rtol=1e-12)

    @pytest.mark.parametrize("n, rho", [(2, 2), (40, 3), (40, 40)])
    def test_overflow_step_matches_state_norm_guard(self, rng, n, rho):
        # the guard on z^T (L^T L) z trips where the n-row state's own
        # squared norm first exceeds limit^2
        left = rng.standard_normal((n, rho))
        right = rng.standard_normal((rho, n))
        right *= 10.0 / np.abs(np.linalg.eigvals(right @ left)).max()
        x0 = rng.standard_normal(n)
        x, want = x0.copy(), 0
        for t in range(2, 1001):
            x = left @ (right @ x)
            if not np.isfinite(x @ x) or x @ x > 1e300:
                want = t
                break
        traj, flag = kernels.propagate_factored(left, right, x0, 1000, 1, 1e150)
        assert flag == want > 0
        assert traj.shape == (want - 1, n)
        assert np.all(np.isfinite(traj))

    def test_nan_state_trips_guard(self):
        x0 = np.array([np.nan, 1.0])
        traj, flag = kernels.propagate_factored(np.eye(2), np.eye(2), x0, 10, 1, 1e150)
        assert flag == 2
        assert traj.shape == (1, 2)
        zt, zflag = kernels.propagate_reduced(np.eye(2), x0, 10, 1, 1e150)
        assert zflag == 2
        assert zt.shape == (0, 2)

    def test_stride_keeps_expected_rows(self, rng):
        left = 0.9 * np.eye(3)
        right = np.eye(3)
        x0 = rng.standard_normal(3)
        dense, _ = kernels.propagate_factored(left, right, x0, 10, 1, 1e150)
        strided, _ = kernels.propagate_factored(left, right, x0, 10, 4, 1e150)
        assert strided.shape[0] == 3  # t = 1, 5, 9
        assert_allclose(strided, dense[[0, 4, 8]], atol=0)


class TestAlsSweep:
    def test_monotone_improvement_over_restarts(self, rng):
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((6, 4))
        YXp = np.ascontiguousarray(Y @ np.linalg.pinv(X))
        inits = rng.standard_normal((6, 6, 2))
        few, _, _ = kernels.als_sweep(X, Y, YXp, inits[:2], 80)
        many, _, _ = kernels.als_sweep(X, Y, YXp, inits, 80)
        assert many <= few + 1e-15
