import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd import kernels
from lrdmd.errors import OverflowGuardError, ReconstructionWarning, ValidationError
from lrdmd.modes import DmdModes, amplitudes, compute_modes
from lrdmd.rom import (
    OVERFLOW_LIMIT,
    reconstruct_from_modes,
    save_trajectory,
    simulate_full,
    simulate_reduced,
)
from lrdmd.snapshots import DataMatrices
from lrdmd.solvers import DmdOperator, fit_optimal_lowrank_dmd


def symmetric_fixture(seed=5, n=8, k=3):
    rng = np.random.default_rng(seed)
    Ys = rng.standard_normal((n, n))
    Ys = Ys + Ys.T
    d = DataMatrices(X=np.eye(n), Y=Ys)
    op, factors = fit_optimal_lowrank_dmd(d, k)
    theta = rng.standard_normal(n)
    return d, op, factors, theta


def rank_space_states(op, theta, horizon, stride=1):
    """The rank-space coordinates z_t that simulate_full lifts by op.left."""
    zs, flag = kernels.propagate_reduced(
        np.ascontiguousarray(op.transition), op.right @ theta, horizon, stride,
        OVERFLOW_LIMIT, op.gram,
    )
    assert flag == 0
    return zs


def toy_fit(data, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_optimal_lowrank_dmd(data, k)


class TestSimulateReduced:
    def test_two_step_applies_operator_once(self):
        _, op, factors, theta = symmetric_fixture()
        traj = simulate_reduced(factors, theta, 2)
        assert_allclose(traj.states[0], theta)
        assert_allclose(traj.states[1], op.left @ (op.right @ theta), atol=1e-12)

    def test_full_rank_identity_data_tracks_matrix_powers(self, rng):
        Y = rng.standard_normal((5, 5)) * 0.4
        d = DataMatrices(X=np.eye(5), Y=Y)
        _, factors = fit_optimal_lowrank_dmd(d, 5)
        theta = rng.standard_normal(5)
        traj = simulate_reduced(factors, theta, 6)
        x = theta.copy()
        for t in range(1, 6):
            x = Y @ x
            assert_allclose(traj.states[t], x, atol=1e-10 * max(1.0, np.linalg.norm(x)))

    def test_matches_dense_power_oracle_on_toy_data(self, setting_ii_data, rng):
        op, factors = toy_fit(setting_ii_data, 10)
        A = op.left @ op.right
        theta = rng.standard_normal(setting_ii_data.n)
        traj = simulate_reduced(factors, theta, 10)
        x = theta.copy()
        for t in range(1, 10):
            x = A @ x
            assert np.linalg.norm(traj.states[t] - x) <= 1e-9 * np.linalg.norm(x)

    def test_reduced_states_lift(self):
        _, _, factors, theta = symmetric_fixture()
        traj = simulate_reduced(factors, theta, 5)
        zs = rank_space_states(factors, theta, 5)
        assert zs.shape == (4, 3)
        assert_allclose(traj.states[1:], zs @ factors.P.T, atol=1e-12)

    def test_horizon_one(self):
        _, _, factors, theta = symmetric_fixture()
        traj = simulate_reduced(factors, theta, 1)
        assert traj.states.shape == (1, theta.shape[0])
        assert_allclose(traj.states[0], theta)
        assert traj.times.tolist() == [1]

    def test_stride_subsamples(self):
        _, _, factors, theta = symmetric_fixture()
        dense = simulate_reduced(factors, theta, 9)
        strided = simulate_reduced(factors, theta, 9, stride=3)
        assert strided.times.tolist() == [1, 4, 7]
        assert_allclose(strided.states, dense.states[[0, 3, 6]], atol=0)


@pytest.fixture(scope="module")
def ill_fit():
    """The optimal k = 90 fit of 8000 x 100 independent pairs through a
    symmetric operator whose spectrum falls geometrically from 0.99 to
    0.99e-10, and an initial state."""
    rng = np.random.default_rng(17)
    n, m = 8000, 100
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    spectrum = 0.99 * 10.0 ** (-10.0 * np.arange(m) / (m - 1))
    X = rng.standard_normal((n, m))
    d = DataMatrices(X=X, Y=U @ (spectrum[:, None] * (U.T @ X)))
    op, factors = fit_optimal_lowrank_dmd(d, 90)
    return op, d.X[:, 0].copy(), factors


def full_recursion(op, theta, horizon, stride):
    """States x_1 = theta, x_{t+1} = L (R x_t) in plain numpy, kept at
    t = 1, 1+stride, ..."""
    x = theta.copy()
    kept = [x]
    for t in range(2, horizon + 1):
        x = op.left @ (op.right @ x)
        if (t - 1) % stride == 0:
            kept.append(x)
    return np.array(kept)


class TestSimulateFull:
    @pytest.mark.parametrize("horizon, stride", [(50, 1), (50, 5), (50, 7), (1, 1), (1, 4)])
    def test_matches_numpy_loop_on_tall_ill_fit(self, ill_fit, horizon, stride):
        op, theta, _ = ill_fit
        traj = simulate_full(op, theta, horizon, stride)
        want = full_recursion(op, theta, horizon, stride)
        assert traj.states.shape == want.shape
        assert traj.times.tolist() == list(range(1, horizon + 1, stride))
        for got, x in zip(traj.states, want):
            assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("horizon, stride", [(1000, 50), (300, 1)])
    def test_full_and_reduced_paths_agree_on_tall_ill_fit(self, ill_fit, horizon, stride):
        op, theta, factors = ill_fit
        full = simulate_full(op, theta, horizon, stride).states
        reduced = simulate_reduced(factors, theta, horizon, stride).states
        assert full.shape == reduced.shape == (len(range(1, horizon + 1, stride)), op.n)
        scale = np.abs(reduced).max(axis=1, keepdims=True)
        assert np.all(np.abs(full - reduced) <= 1e-12 * scale)

    def test_operators_without_a_core_step_through_their_factors(self, ill_fit):
        # a replaced operator and one built by hand from the fit's factors
        # carry no size-c core, so they form R L and the L^T L guard over
        # the n rows
        op, theta, _ = ill_fit
        L, R = np.ascontiguousarray(op.left), np.ascontiguousarray(op.right)
        want, flag = kernels.propagate_factored(L, R, theta, 200, 9, OVERFLOW_LIMIT)
        assert flag == 0
        zs, flag = kernels.propagate_reduced(
            np.ascontiguousarray(R @ L), R @ theta, 200, 9, OVERFLOW_LIMIT, L.T @ L
        )
        assert flag == 0
        for other in (dataclasses.replace(op), DmdOperator(left=L, right=R)):
            got = simulate_full(other, theta, 200, 9)
            assert np.array_equal(got.states, want)
            assert np.array_equal(got.states[1:], zs @ L.T)
        fitted = simulate_full(op, theta, 200, 9).states
        scale = np.abs(fitted).max(axis=1, keepdims=True)
        assert np.all(np.abs(want - fitted) <= 1e-12 * scale)

    @pytest.mark.parametrize("horizon, stride", [(1000, 50), (300, 1), (1, 1)])
    def test_one_path_under_both_names(self, ill_fit, horizon, stride):
        # simulate_reduced is simulate_full: the same states, lifted from
        # the same rank-space coordinates, from one optimal operator
        op, theta, _ = ill_fit
        full = simulate_full(op, theta, horizon, stride)
        reduced = simulate_reduced(op, theta, horizon, stride)
        assert np.array_equal(full.states, reduced.states)
        zs = rank_space_states(op, theta, horizon, stride)
        assert np.array_equal(full.states[1:], zs @ op.left.T)
        kept = len(range(1 + stride, horizon + 1, stride))
        assert zs.shape == (kept, op.declared_rank)

    def test_projector_fixes_vector_in_subspace(self):
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 2)))[0]
        op = DmdOperator(left=basis, right=basis.T)
        theta = basis @ np.array([1.0, -2.0])
        traj = simulate_full(op, theta, 5)
        assert_allclose(traj.states, np.tile(theta, (5, 1)), atol=1e-12)

    def test_zero_operator(self, rng):
        op = DmdOperator(left=np.zeros((4, 1)), right=np.zeros((1, 4)))
        theta = rng.standard_normal(4)
        traj = simulate_full(op, theta, 4)
        assert_allclose(traj.states[0], theta)
        assert_allclose(traj.states[1:], np.zeros((3, 4)))

    def test_agrees_with_reduced_path(self, setting_iii_data, rng):
        # the two recursions are algebraically identical for the optimal
        # operator because the basis is orthonormal
        op, factors = toy_fit(setting_iii_data, 8)
        theta = rng.standard_normal(setting_iii_data.n)
        full = simulate_full(op, theta, 12)
        reduced = simulate_reduced(factors, theta, 12)
        for t in range(12):
            scale = max(np.linalg.norm(full.states[t]), 1e-300)
            assert np.linalg.norm(full.states[t] - reduced.states[t]) <= 1e-9 * scale

    def test_overflow_guard(self):
        # |x_t|^2 = 2 * 10^(2(t-1)) first exceeds 1e300 at t = 151
        op = DmdOperator(left=10.0 * np.eye(2), right=np.eye(2))
        with pytest.raises(OverflowGuardError, match="exceeded 1e\\+150 at step 151$"):
            simulate_full(op, np.ones(2), 400)

    def test_linearity_exact_for_power_of_two(self):
        _, op, _, theta = symmetric_fixture()
        base = simulate_full(op, theta, 6)
        doubled = simulate_full(op, 2.0 * theta, 6)
        assert np.array_equal(doubled.states, 2.0 * base.states)

    def test_linearity_generic_scale(self):
        _, op, _, theta = symmetric_fixture()
        base = simulate_full(op, theta, 6)
        scaled = simulate_full(op, 1.7 * theta, 6)
        assert_allclose(scaled.states, 1.7 * base.states, rtol=1e-12)

    def test_stride(self):
        _, op, _, theta = symmetric_fixture()
        dense = simulate_full(op, theta, 7)
        strided = simulate_full(op, theta, 7, stride=2)
        assert strided.times.tolist() == [1, 3, 5, 7]
        assert_allclose(strided.states, dense.states[[0, 2, 4, 6]], atol=0)

    def test_bad_arguments(self):
        _, op, _, theta = symmetric_fixture()
        with pytest.raises(ValidationError):
            simulate_full(op, theta, 0)
        with pytest.raises(ValidationError):
            simulate_full(op, theta[:-1], 3)


class TestReconstructFromModes:
    def test_single_real_mode_grows_geometrically(self):
        Y = np.diag([2.0, 0.0, 0.0])
        _, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(3), Y=Y), 1)
        modes = compute_modes(factors)
        theta = np.array([1.0, 0.0, 0.0])
        traj = reconstruct_from_modes(modes, amplitudes(modes, theta, 5))
        for t in range(5):
            assert_allclose(traj.states[t], [2.0**t, 0.0, 0.0], atol=1e-12)

    def test_theta_orthogonal_to_modes_gives_zero(self):
        Y = np.diag([2.0, 0.0, 0.0])
        _, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(3), Y=Y), 1)
        modes = compute_modes(factors)
        theta = np.array([0.0, 1.0, 1.0])
        traj = reconstruct_from_modes(modes, amplitudes(modes, theta, 4))
        assert_allclose(traj.states, np.zeros((4, 3)), atol=1e-14)

    def test_matches_reduced_path_on_symmetric_fixture(self):
        # from the second step on, both paths follow the same linear
        # dynamics; the modal path starts at the projection of theta
        _, _, factors, theta = symmetric_fixture(seed=11, n=10, k=4)
        modes = compute_modes(factors)
        modal = reconstruct_from_modes(modes, amplitudes(modes, theta, 10))
        reduced = simulate_reduced(factors, theta, 10)
        for t in range(1, 10):
            scale = max(np.linalg.norm(reduced.states[t]), 1e-300)
            assert np.linalg.norm(modal.states[t] - reduced.states[t]) <= 1e-8 * scale

    def test_real_modes_take_one_real_product(self, setting_ii_data):
        # setting ii's spectrum is real: the states are Re(nu) Phi^T, the one
        # array the expansion allocates, and equal the complex expansion of
        # the same modes upcast
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, factors = fit_optimal_lowrank_dmd(setting_ii_data, 5)
        modes = compute_modes(factors)
        assert modes.modes.dtype == np.float64
        theta = setting_ii_data.X[:, 0]
        amps = amplitudes(modes, theta, 60)
        tracemalloc.start()
        try:
            got = reconstruct_from_modes(modes, amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * got.states.nbytes
        upcast = DmdModes(eigenvalues=modes.eigenvalues.astype(np.complex128),
                          modes=modes.modes.astype(np.complex128))
        want = reconstruct_from_modes(upcast, amplitudes(upcast, theta, 60)).states
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got.states - want) <= 1e-14 * scale)

    def test_warns_when_mode_set_not_conjugate_closed(self):
        # one complex mode without its conjugate partner: the imaginary
        # parts of the expansion cannot cancel
        phi = np.array([0.8, 0.6j, 0.0], dtype=np.complex128)
        broken = DmdModes(
            eigenvalues=np.array([0.9 + 0.3j]),
            modes=phi[:, None],
        )
        theta = np.array([1.0, 1.0, 0.0])
        with pytest.warns(ReconstructionWarning):
            reconstruct_from_modes(broken, amplitudes(broken, theta, 6))

    def test_warns_when_real_mode_has_complex_eigenvalue(self):
        # real modes take the real product; a complex eigenvalue without its
        # conjugate still leaves an imaginary part, which is checked
        broken = DmdModes(eigenvalues=np.array([0.9 + 0.3j]), modes=np.array([[0.8], [0.6], [0.0]]))
        with pytest.warns(ReconstructionWarning):
            reconstruct_from_modes(broken, amplitudes(broken, np.array([1.0, 1.0, 0.0]), 6))

    def test_mismatched_mode_count(self):
        _, _, factors, theta = symmetric_fixture()
        modes = compute_modes(factors)
        sched = amplitudes(modes, theta, 3)
        import dataclasses

        bad = dataclasses.replace(modes, eigenvalues=modes.eigenvalues[:2], modes=modes.modes[:, :2])
        with pytest.raises(ValidationError):
            reconstruct_from_modes(bad, sched)


class TestSaveTrajectory:
    def test_csv_round_trip(self, tmp_path):
        _, op, _, theta = symmetric_fixture()
        traj = simulate_full(op, theta, 4)
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"x{j}" for j in range(8))
        assert len(lines) == 5
        row1 = np.array([float(v) for v in lines[1].split(",")[1:]])
        assert np.array_equal(row1, traj.states[0])
