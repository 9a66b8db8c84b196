import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import DegenerateModeWarning, RankGuardError, ValidationError
from lrdmd.linalg import QrFactors, qr_factor, thin_svd
from lrdmd.modes import (
    VARIANTS,
    DmdModes,
    _unit_modes,
    amplitudes,
    compute_modes,
    verify_eigenpairs,
)
from lrdmd.rom import simulate_reduced
from lrdmd.snapshots import DataMatrices, SnapshotSet
from lrdmd.solvers import (
    DmdOperator,
    fit_exact_dmd,
    fit_optimal_lowrank_dmd,
    fit_projected_dmd,
    fit_truncated_exact_dmd,
)


def spectral_key(values):
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def fit_toy(data, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_optimal_lowrank_dmd(data, k)


def tall_fit(k=12):
    rng = np.random.default_rng(41)
    d = DataMatrices(X=rng.standard_normal((400, 30)), Y=rng.standard_normal((400, 30)))
    return fit_optimal_lowrank_dmd(d, k)


def normalized(modes):
    """Unit columns with the largest-magnitude entry real positive, one
    column at a time."""
    modes = modes.copy()
    for j in range(modes.shape[1]):
        col = modes[:, j] / np.linalg.norm(modes[:, j])
        pivot = col[np.argmax(np.abs(col))]
        modes[:, j] = col * (np.conj(pivot) / abs(pivot))
    return modes


def upcast_modes(factors, variant):
    """compute_modes with every real factor upcast to complex before its
    product, and one column at a time normalized. as_stated takes the thin
    SVD of Q as Wq = Qb Ur from Q = Qb R and R = Ur Sq Vq^T, and its core
    as Ur^T (Qb^T P) Vq Sq; the exact variant takes the fit's core Q^T P
    (DmdOperator.transition), whose agreement with the n-row product is
    TestRankSpaceCore's check."""
    if variant == "as_stated":
        b = qr_factor(factors.Q)
        fq = thin_svd(b.R)
        Wq = b.lift_rows(fq.W.T).T
        core = fq.W.T @ b.project(factors.P) @ (fq.V * fq.sigma)
    else:
        core = factors.transition
    lam, W = np.linalg.eig(core)
    order = spectral_key(lam)
    lam, W = lam[order], W[:, order]
    if variant == "as_stated":
        modes = Wq.astype(np.complex128) @ W
    else:
        modes = factors.P.astype(np.complex128) @ W
    return lam, normalized(modes)


def formed_wq_modes(factors):
    """The as_stated eigenpairs with Wq = Qb Ur formed: the eigenvectors w
    of Wq^T P Vq Sq, mapped to Wq w, one column at a time normalized."""
    b = qr_factor(factors.Q)
    fq = thin_svd(b.R)
    Wq = b.lift_rows(fq.W.T).T
    lam, W = np.linalg.eig(Wq.T @ factors.P @ (fq.V * fq.sigma))
    order = spectral_key(lam)
    return lam[order], normalized(Wq @ W[:, order])


def svd_of_q_modes(factors):
    """The exact_reconstruction modes through the thin SVD Q = Wq Sq Vq^T:
    the eigenpairs (lambda, w) of Wq^T P Vq Sq, mapped to P Vq Sq w / lambda."""
    fq = thin_svd(factors.Q)
    lam, W = np.linalg.eig(fq.W.T @ factors.P @ (fq.V * fq.sigma))
    order = spectral_key(lam)
    lam, W = lam[order], W[:, order]
    return lam, normalized((factors.P @ ((fq.V * fq.sigma) @ W)) / lam)


def ill_conditioned_fit(k=90):
    """The optimal fit to independent pairs through a symmetric operator
    whose spectrum falls from 0.99 to 0.99e-10, at 8000 x 100."""
    n, m = 8000, 100
    rng = np.random.default_rng([1, 2])
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    spectrum = 0.99 * 10.0 ** (-10.0 * np.arange(m) / (m - 1))
    X = rng.standard_normal((n, m))
    return fit_optimal_lowrank_dmd(DataMatrices(X=X, Y=U @ (spectrum[:, None] * (U.T @ X))), k)


def repeated_pair_operator(n=9):
    """A hand-built operator whose transition is exactly blockdiag(C, 0.5, C)
    for a 2-by-2 C with eigenvalues c +- i s: one conjugate pair twice
    beside a real eigenvalue, so the spectral sort puts lambda, lambda,
    conj, conj where LAPACK returns each pair in adjacent columns. C is not
    normal, so no mode has two entries of equal magnitude for the phase to
    choose between. L selects 5 of n coordinates, so L^T L is exactly the
    identity."""
    c, s = 0.9 * np.cos(0.7), 0.9 * np.sin(0.7)
    core = np.zeros((5, 5))
    core[:2, :2] = core[3:, 3:] = [[c, -2.0 * s], [0.5 * s, c]]
    core[2, 2] = 0.5
    L = np.eye(n)[:, np.random.default_rng(6).permutation(n)[:5]]
    op = DmdOperator(left=L, right=core @ L.T)
    assert np.array_equal(op.transition, core)
    return op


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
        dense = np.linalg.eigvals(op.left @ op.right)
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
        # a nilpotent fitted operator has only a zero eigenvalue, which the
        # exact_reconstruction variant does not report
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
        op = DmdOperator(left=P, right=Q.T)
        with pytest.raises(RankGuardError, match="rank"):
            compute_modes(op)

    @pytest.mark.parametrize("variant", ["exact_reconstruction", "as_stated"])
    def test_real_products_match_complex_upcast(self, variant):
        _, factors = tall_fit()
        lam, want = upcast_modes(factors, variant)
        got = compute_modes(factors, variant)
        assert np.array_equal(got.eigenvalues, lam)
        assert got.modes.shape == (400, 12) and np.iscomplexobj(got.modes)
        assert np.linalg.norm(got.modes - want) <= 1e-12 * np.linalg.norm(want)

    def test_hand_built_bundle_forms_its_core(self):
        # an operator built by hand from the fit's factors takes eig(Q^T P)
        # of the n-row product, and lands within roundoff of the fit's modes
        _, factors = tall_fit()
        bundle = DmdOperator(left=factors.P, right=factors.Q.T)
        lam = np.linalg.eig(factors.Q.T @ factors.P)[0]
        got = compute_modes(bundle)
        assert np.array_equal(got.eigenvalues, lam[spectral_key(lam)])
        fitted = compute_modes(factors)
        assert np.linalg.norm(got.eigenvalues - fitted.eigenvalues) <= (
            1e-12 * np.linalg.norm(fitted.eigenvalues)
        )
        assert np.linalg.norm(got.modes - fitted.modes) <= 1e-12 * np.linalg.norm(fitted.modes)

    @pytest.mark.parametrize("fit", [tall_fit, ill_conditioned_fit], ids=["400x30", "ill-8000x100"])
    def test_exact_matches_svd_of_q_formulas(self, fit):
        _, factors = fit()
        lam, want = svd_of_q_modes(factors)
        got = compute_modes(factors, "exact_reconstruction")
        assert np.linalg.norm(got.eigenvalues - lam) <= 1e-12 * np.linalg.norm(lam)
        assert np.linalg.norm(got.modes - want) <= 1e-12 * np.linalg.norm(want)

    def test_exact_variant_factors_nothing(self, monkeypatch):
        # the fit hands over a small core with the singular values of Q, so
        # neither the modes nor the zero-eigenvalue drop factor Q; as_stated
        # factors it once and takes the thin SVD of its small R only
        import lrdmd.modes

        factored, svd_inputs = [], []

        def counted_qr(M):
            factored.append(M.shape)
            return qr_factor(M)

        def counted_svd(M):
            svd_inputs.append(M.shape)
            return thin_svd(M)

        monkeypatch.setattr(lrdmd.modes, "qr_factor", counted_qr)
        monkeypatch.setattr(lrdmd.modes, "thin_svd", counted_svd)
        _, factors = tall_fit()
        compute_modes(factors, "exact_reconstruction")
        d = DataMatrices(X=np.eye(2), Y=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.warns(DegenerateModeWarning):
            compute_modes(fit_optimal_lowrank_dmd(d, 1)[1], "exact_reconstruction")
        assert factored == []
        compute_modes(factors, "as_stated")
        assert factored == [(400, 12)]
        assert svd_inputs and all(shape[0] <= 12 for shape in svd_inputs)

    def test_no_thin_svd_sees_n_rows(self, monkeypatch):
        # tall matrices go to qr_factor: an optimal fit, both mode variants
        # and the reduced simulation hand thin_svd small matrices only
        import lrdmd.linalg

        original, shapes = lrdmd.linalg.thin_svd, []

        def recorded(M):
            shapes.append(np.shape(M))
            return original(M)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("lrdmd") and getattr(
                module, "thin_svd", None
            ) is original:
                monkeypatch.setattr(module, "thin_svd", recorded)
        _, factors = tall_fit()
        for variant in ("exact_reconstruction", "as_stated"):
            compute_modes(factors, variant)
        simulate_reduced(factors, np.ones(400), 20)
        assert shapes and max(shape[0] for shape in shapes) <= 30

    def test_zero_column_rejected(self):
        # a real mode, and a pair whose two columns are both zero
        U = np.ones((5, 4))
        U[:, 1:3] = 0.0
        none = np.empty(0, dtype=np.intp)
        for first, second in ((none, none), (np.array([1]), np.array([2]))):
            with pytest.raises(ValidationError, match="collapsed to zero"):
                _unit_modes(U.copy(), first, second)

    def test_unknown_variant(self):
        d = DataMatrices(X=np.eye(2), Y=np.eye(2))
        _, factors = fit_optimal_lowrank_dmd(d, 1)
        with pytest.raises(ValidationError):
            compute_modes(factors, "bogus")


AS_STATED_FITS = {
    # a conjugate pair among real eigenvalues, and two real spectra
    "400x30": lambda data: tall_fit()[1],
    "setting-ii": lambda data: fit_toy(data, 5)[1],
    "ill-8000x100": lambda data: ill_conditioned_fit()[1],
}


class TestAsStatedProducts:
    """as_stated takes two n-row products, the core's Qb^T P and the lift of
    Ur V, and never forms Wq = Qb Ur."""

    @pytest.mark.parametrize("fit", ["400x30", "setting-ii"])
    def test_one_project_and_one_lift(self, fit, setting_ii_data, monkeypatch):
        factors = AS_STATED_FITS[fit](setting_ii_data)
        calls = []
        for name in ("lift_rows", "project", "inner"):
            def counted(basis, M, name=name, original=getattr(QrFactors, name)):
                calls.append(name)
                return original(basis, M)

            monkeypatch.setattr(QrFactors, name, counted)
        modes = compute_modes(factors, "as_stated").modes
        assert calls == ["project", "lift_rows"]
        # real modes are the lift itself, column-major as the exact variant's
        assert modes.flags.f_contiguous == (modes.dtype == np.float64)

    @pytest.mark.parametrize("fit", AS_STATED_FITS)
    def test_matches_formed_wq(self, fit, setting_ii_data):
        factors = AS_STATED_FITS[fit](setting_ii_data)
        lam, want = formed_wq_modes(factors)
        got = compute_modes(factors, "as_stated")
        assert np.abs(got.eigenvalues - lam).max() <= 1e-12 * np.abs(lam).max()
        deviation = np.abs(got.modes - want).max(axis=0) / np.abs(want).max(axis=0)
        assert deviation.max() <= 1e-12


class TestModeDtype:
    """A real spectrum gives float64 modes from one real lift; a spectrum
    with a conjugate pair gives complex modes, each pair exact conjugates."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("fit", ["setting-ii", "ill-8000x100"])
    def test_real_spectrum_gives_real_modes(self, setting_ii_data, fit, variant):
        _, factors = fit_toy(setting_ii_data, 5) if fit == "setting-ii" else ill_conditioned_fit()
        lam, want = upcast_modes(factors, variant)
        got = compute_modes(factors, variant)
        assert got.eigenvalues.dtype == got.modes.dtype == np.float64
        assert np.array_equal(got.eigenvalues, lam)
        assert np.linalg.norm(got.modes - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("case", ["400x30", "repeated-pair"])
    def test_mixed_spectrum_gives_conjugate_complex_modes(self, case, variant):
        factors = tall_fit()[1] if case == "400x30" else repeated_pair_operator()
        lam, want = upcast_modes(factors, variant)
        got = compute_modes(factors, variant)
        assert got.modes.dtype == np.complex128
        assert np.array_equal(got.eigenvalues, lam)
        assert np.linalg.norm(got.modes - want) <= 1e-12 * np.linalg.norm(want)
        # the sort is stable, so the i-th eigenvalue with positive imaginary
        # part pairs with the i-th with negative imaginary part
        upper, lower = np.flatnonzero(lam.imag > 0), np.flatnonzero(lam.imag < 0)
        assert upper.size == lower.size > 0 and np.any(lam.imag == 0)
        assert np.array_equal(lam[lower], np.conj(lam[upper]))
        assert np.array_equal(got.modes[:, lower], np.conj(got.modes[:, upper]))
        if case == "repeated-pair" and variant == "exact_reconstruction":
            assert list(upper) == [0, 1] and list(lower) == [2, 3]

    @pytest.mark.parametrize("fit", ["setting-ii", "ill-8000x100"])
    def test_verify_real_modes_matches_complex_upcast(self, setting_ii_data, fit):
        op, factors = fit_toy(setting_ii_data, 5) if fit == "setting-ii" else ill_conditioned_fit()
        modes = compute_modes(factors)
        assert modes.modes.dtype == np.float64
        upcast = DmdModes(eigenvalues=modes.eigenvalues.astype(np.complex128),
                          modes=modes.modes.astype(np.complex128))
        applied = op.left.astype(np.complex128) @ (op.right.astype(np.complex128) @ upcast.modes)
        want = np.linalg.norm(applied - upcast.modes * upcast.eigenvalues, axis=0)
        for bundle in (modes, upcast):
            report = verify_eigenpairs(bundle, op)
            assert_allclose(report.residuals, want, rtol=1e-12, atol=1e-12 * op.frobenius)
            assert report.all_passed


class TestDmdModes:
    @pytest.mark.parametrize(
        "lam, phi",
        [((3,), (5, 2)), ((2,), (5, 3)), ((2, 1), (5, 2)), ((2,), (5,)), ((), (5, 1))],
        ids=["fewer-modes", "more-modes", "2-d-eigenvalues", "1-d-modes", "scalar"],
    )
    def test_mismatched_counts_refused(self, lam, phi):
        with pytest.raises(ValidationError, match="modes must be n-by-k"):
            DmdModes(eigenvalues=np.ones(lam), modes=np.ones(phi, dtype=np.complex128))


class TestVerifyEigenpairs:
    def test_diagonal_zero_residual(self):
        Y = np.diag([2.0, 0.0, 0.0])
        op, factors = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(3), Y=Y), 1)
        report = verify_eigenpairs(compute_modes(factors), op)
        assert report.max_residual < 1e-12
        assert report.all_passed

    def test_empty_mode_set_gives_empty_report(self):
        # the shift e1 -> e2 -> e3 -> 0 is nilpotent: compute_modes drops
        # every mode of its rank-2 fit, and the report of no modes is empty
        states = np.vstack([np.eye(4)[:3], np.zeros(4)])[None]
        op, _ = fit_optimal_lowrank_dmd(SnapshotSet(states=states), 2)
        with pytest.warns(DegenerateModeWarning, match="dropped 2 mode"):
            modes = compute_modes(op)
        assert modes.modes.shape == (4, 0)
        report = verify_eigenpairs(modes, op)
        assert report.residuals.shape == (0,)
        assert report.max_residual == 0.0 and report.all_passed

    def test_modes_of_another_dimension_refused(self):
        op, _ = fit_optimal_lowrank_dmd(DataMatrices(X=np.eye(4), Y=np.eye(4)), 2)
        modes = DmdModes(eigenvalues=np.ones(2), modes=np.ones((3, 2)))
        with pytest.raises(ValidationError, match="operator and modes have mismatched dimensions"):
            verify_eigenpairs(modes, op)

    @pytest.mark.parametrize("k", [5, 15])
    def test_exact_variant_satisfies_eigen_equation(self, setting_ii_data, k):
        op, factors = fit_toy(setting_ii_data, k)
        report = verify_eigenpairs(compute_modes(factors, "exact_reconstruction"), op)
        assert report.max_residual <= 1e-8 * op.frobenius

    @pytest.mark.parametrize("variant", ["exact_reconstruction", "as_stated"])
    def test_real_products_match_complex_upcast(self, variant):
        op, factors = tall_fit()
        modes = compute_modes(factors, variant)
        applied = op.left.astype(np.complex128) @ (op.right.astype(np.complex128) @ modes.modes)
        want = np.linalg.norm(applied - modes.modes * modes.eigenvalues, axis=0)
        report = verify_eigenpairs(modes, op)
        assert_allclose(report.residuals, want, rtol=1e-12, atol=1e-12 * op.frobenius)

    @pytest.mark.parametrize("fit", ["truncated", "projected", "exact"])
    def test_every_fit_has_true_eigenpairs(self, fit):
        # the exact_reconstruction modes of any operator L R come from its
        # transition R L, formed from its factors
        d = DataMatrices(X=np.random.default_rng(3).standard_normal((300, 20)),
                         Y=np.random.default_rng(4).standard_normal((300, 20)))
        op = {"truncated": lambda: fit_truncated_exact_dmd(d, 6),
              "projected": lambda: fit_projected_dmd(d, 6),
              "exact": lambda: fit_exact_dmd(d)}[fit]()
        modes = compute_modes(op)
        assert modes.modes.shape == (300, op.declared_rank)
        report = verify_eigenpairs(modes, op)
        assert report.all_passed, report.max_residual

    def test_as_stated_variant_reported_without_expectation(self, setting_ii_data):
        op, factors = fit_toy(setting_ii_data, 5)
        report = verify_eigenpairs(compute_modes(factors, "as_stated"), op)
        assert np.all(np.isfinite(report.residuals))
        assert report.residuals.shape == (5,)


class TestRowBlocks:
    """The n-row passes of the modes (the pivot search, over whole columns,
    and the block loop of verify_eigenpairs) on 7 rows, with blocks of 1, 3
    and the default number of rows: each reads every row."""

    def test_pivot_is_the_largest_entry_of_every_block(self, row_block):
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        Z[6, 0] = 10.0 - 3.0j  # the largest entry in the last row
        # a tie across blocks: the earlier row wins
        Z[1, 1], Z[5, 1] = 8.0j, -8.0
        # the real basis of Z's columns, pairs out of order, beside one real
        # column whose largest magnitude ties between a negative and a
        # positive entry
        first, second = np.array([0, 3, 4]), np.array([5, 1, 2])
        U = np.empty((7, 7))
        U[:, first], U[:, second] = Z.real, Z.imag
        U[:, 6] = rng.uniform(-1.0, 1.0, 7)
        U[1, 6], U[5, 6] = -8.0, 8.0
        got = _unit_modes(U.copy(), first, second)
        assert_allclose(got[:, first], normalized(Z), rtol=0, atol=1e-14)
        assert np.array_equal(got[:, second], np.conj(got[:, first]))
        assert got[1, 3] == abs(got[1, 3]) and got[5, 3].imag != 0.0
        assert_allclose(got[:, 6], -U[:, 6] / np.linalg.norm(U[:, 6]), rtol=0, atol=1e-14)

    def test_residuals_sum_every_block(self, row_block):
        rng = np.random.default_rng(18)
        op = DmdOperator(left=rng.standard_normal((7, 3)), right=rng.standard_normal((3, 7)))
        modes = DmdModes(
            eigenvalues=rng.standard_normal(2) + 1j * rng.standard_normal(2),
            modes=rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)),
        )
        A = op.left @ op.right
        want = np.linalg.norm(A @ modes.modes - modes.modes * modes.eigenvalues, axis=0)
        assert_allclose(verify_eigenpairs(modes, op).residuals, want, rtol=1e-13)


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

    @staticmethod
    def stepwise(modes, theta, horizon):
        """nu[t] = lambda * nu[t-1], one multiplication per step."""
        values = np.empty((horizon, modes.eigenvalues.shape[0]), dtype=np.complex128)
        values[0] = np.conj(theta @ modes.modes)
        for t in range(1, horizon):
            values[t] = values[t - 1] * modes.eigenvalues
        return values

    def test_real_spectrum_bit_identical_to_stepwise_product(self):
        # |lambda| is at most 5.8 here, so 200 steps stay finite
        assert np.isrealobj(self.modes.eigenvalues)
        sched = amplitudes(self.modes, self.theta, 200)
        assert np.all(np.isfinite(sched.values))
        assert np.array_equal(sched.values, self.stepwise(self.modes, self.theta, 200))

    def test_complex_spectrum_matches_stepwise_product(self):
        rng = np.random.default_rng(8)
        lam = 0.999 * np.exp(1j * rng.uniform(0.1, 3.0, 4))
        modes = DmdModes(eigenvalues=np.concatenate([lam, lam.conj()]),
                         modes=rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8)))
        theta = rng.standard_normal(10)
        got = amplitudes(modes, theta, 1000).values
        want = self.stepwise(modes, theta, 1000)
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            amplitudes(self.modes, self.theta, 0)
        with pytest.raises(ValidationError):
            amplitudes(self.modes, np.ones(3), 5)
        for bad in (np.nan, np.inf, -np.inf):
            theta = self.theta.copy()
            theta[2] = bad
            with pytest.raises(ValidationError, match="theta contains non-finite values"):
                amplitudes(self.modes, theta, 5)
