import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import DegenerateModeWarning, RankGuardError, ValidationError
from lrdmd.modes import amplitudes, compute_modes, verify_eigenpairs
from lrdmd.snapshots import DataMatrices
from lrdmd.solvers import (
    OptimalLowRankFactors,
    fit_optimal_lowrank_dmd,
    materialize,
)


def spectral_key(values):
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def fit_toy(data, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_optimal_lowrank_dmd(data, k)


class TestComputeModes:
    def test_diagonal_single_mode(self):
        Y = np.diag([2.0, 0.0, 0.0])
        op, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(3), Y=Y), 1)
        for variant in ("exact_reconstruction", "as_stated"):
            modes = compute_modes(factors, variant)
            assert_allclose(modes.eigenvalues, [2.0], atol=1e-12)
            assert_allclose(modes.modes[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_symmetric_operator_has_real_spectrum(self, rng):
        Ys = rng.standard_normal((7, 7))
        Ys = Ys + Ys.T
        _, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(7), Y=Ys), 4)
        modes = compute_modes(factors)
        assert np.max(np.abs(modes.eigenvalues.imag)) < 1e-10

    def test_matches_dense_eigensolver_on_toy_data(self, setting_ii_data):
        # oracle: dense eigendecomposition of the materialized operator,
        # keeping its k largest-magnitude eigenvalues
        k = 5
        op, factors = fit_toy(setting_ii_data, k)
        modes = compute_modes(factors)
        dense = np.linalg.eigvals(materialize(op))
        dense = dense[spectral_key(dense)][:k]
        assert_allclose(modes.eigenvalues, dense, atol=1e-8 * np.abs(dense[0]))

    def test_conjugate_closure(self, setting_ii_data):
        _, factors = fit_toy(setting_ii_data, 8)
        modes = compute_modes(factors)
        lam = modes.eigenvalues
        conj_sorted = np.conj(lam)[spectral_key(np.conj(lam))]
        assert_allclose(lam, conj_sorted, atol=1e-12 * np.abs(lam[0]))

    def test_complex_pair_has_conjugate_modes(self):
        # a rotation block forces a complex pair; its two modes must be
        # conjugates of each other after normalization
        c, s = 0.9 * np.cos(0.7), 0.9 * np.sin(0.7)
        Y = np.zeros((4, 4))
        Y[:2, :2] = [[c, -s], [s, c]]
        Y[2, 2] = 0.3
        Y[3, 3] = 0.1
        _, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(4), Y=Y), 2)
        modes = compute_modes(factors)
        lam = modes.eigenvalues
        assert abs(lam[0] - np.conj(lam[1])) < 1e-12
        assert np.abs(lam[0].imag) > 0.1
        assert_allclose(modes.modes[:, 0], np.conj(modes.modes[:, 1]), atol=1e-12)

    def test_unit_norm_and_phase_convention(self, setting_iii_data):
        _, factors = fit_toy(setting_iii_data, 6)
        modes = compute_modes(factors)
        norms = np.linalg.norm(modes.modes, axis=0)
        assert_allclose(norms, np.ones(6), atol=1e-12)
        for j in range(modes.modes.shape[1]):
            pivot = modes.modes[np.argmax(np.abs(modes.modes[:, j])), j]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_zero_eigenvalue_dropped_under_exact_variant(self):
        # a nilpotent fitted operator has only a zero eigenvalue, which has
        # no eigenvector through the reconstruction mapping
        d = DataMatrices(X=np.eye(2), Y=np.array([[0.0, 1.0], [0.0, 0.0]]))
        _, factors = fit_optimal_lowrank_dmd(d, 1)
        with pytest.warns(DegenerateModeWarning):
            modes = compute_modes(factors, "exact_reconstruction")
        assert modes.eigenvalues.shape == (0,)
        as_stated = compute_modes(factors, "as_stated")
        assert_allclose(as_stated.eigenvalues, [0.0], atol=1e-14)

    def test_rank_collapsed_q_rejected(self):
        P = np.eye(4)[:, :2]
        Q = np.column_stack([np.ones(4), np.ones(4)])  # rank 1
        factors = OptimalLowRankFactors(P=P, Q=Q)
        with pytest.raises(RankGuardError, match="rank"):
            compute_modes(factors)

    def test_unknown_variant(self):
        d = DataMatrices(X=np.eye(2), Y=np.eye(2))
        _, factors = fit_optimal_lowrank_dmd(d, 1)
        with pytest.raises(ValidationError):
            compute_modes(factors, "bogus")


class TestVerifyEigenpairs:
    def test_diagonal_zero_residual(self):
        Y = np.diag([2.0, 0.0, 0.0])
        op, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(3), Y=Y), 1)
        report = verify_eigenpairs(compute_modes(factors), op)
        assert report.max_residual < 1e-12
        assert report.all_passed

    @pytest.mark.parametrize("k", [5, 15])
    def test_exact_variant_satisfies_eigen_equation(self, setting_ii_data, k):
        op, factors = fit_toy(setting_ii_data, k)
        report = verify_eigenpairs(compute_modes(factors, "exact_reconstruction"), op)
        assert report.max_residual <= 1e-8 * op.frobenius_norm()

    def test_as_stated_variant_reported_without_expectation(self, setting_ii_data):
        op, factors = fit_toy(setting_ii_data, 5)
        report = verify_eigenpairs(compute_modes(factors, "as_stated"), op)
        assert np.all(np.isfinite(report.residuals))
        assert report.residuals.shape == (5,)


class TestAmplitudes:
    def setup_method(self):
        rng = np.random.default_rng(99)
        Ys = rng.standard_normal((6, 6))
        self.d = DataMatrices(X=np.eye(6), Y=Ys + Ys.T)
        _, factors = fit_optimal_lowrank_dmd(self.d, 3)
        self.modes = compute_modes(factors)
        self.theta = rng.standard_normal(6)

    def test_first_step_is_mode_projection(self):
        sched = amplitudes(self.modes, self.theta, 4)
        expected = np.conj(self.modes.modes).T @ self.theta
        assert_allclose(sched.values[0], expected, atol=1e-14)

    def test_unit_eigenvalue_gives_constant_amplitude(self):
        modes = compute_modes(
            fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(2), Y=np.eye(2)), 1)[1]
        )
        sched = amplitudes(modes, np.array([0.3, -0.1]), 6)
        assert_allclose(sched.values, np.tile(sched.values[0], (6, 1)), atol=1e-14)

    def test_geometric_decay_ratio(self):
        sched = amplitudes(self.modes, self.theta, 9)
        lam = np.abs(self.modes.eigenvalues)
        mags = np.abs(sched.values)
        ratios = mags[1:] / mags[:-1]
        assert_allclose(ratios, np.tile(lam, (8, 1)), rtol=1e-12)

    def test_recurrence_matches_powers(self):
        # oracle: explicit eigenvalue powers
        sched = amplitudes(self.modes, self.theta, 7)
        base = np.conj(self.modes.modes).T @ self.theta
        for t in range(7):
            assert_allclose(sched.values[t], base * self.modes.eigenvalues**t, rtol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            amplitudes(self.modes, self.theta, 0)
        with pytest.raises(ValidationError):
            amplitudes(self.modes, np.ones(3), 5)
