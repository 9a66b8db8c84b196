import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import ValidationError
from lrdmd.snapshots import DataMatrices, SnapshotSet, build_data_matrices
from lrdmd.solvers import Factorization
from lrdmd.toybench import (
    BenchConfig,
    RESULT_HEADER,
    benchmark_data,
    companion_residual,
    data_seed_for,
    generate_snapshots,
    generate_toy_operator,
    load_config,
    run_benchmark,
    write_result_csv,
)


class TestGenerateToyOperator:
    def test_rank_one(self):
        model = generate_toy_operator(6, 1, seed=3)
        sigma = np.linalg.svd(model.G, compute_uv=False)
        assert int(np.sum(sigma > 1e-10 * sigma[0])) == 1
        # a single outer product has trace equal to its only eigenvalue
        assert abs(np.linalg.eigvalsh(model.G)[-1] - np.trace(model.G)) < 1e-10

    def test_reference_scale_rank(self):
        model = generate_toy_operator(50, 30, seed=0)
        sigma = np.linalg.svd(model.G, compute_uv=False)
        assert int(np.sum(sigma > 1e-10 * sigma[0])) == 30

    def test_symmetric_exactly(self):
        model = generate_toy_operator(10, 4, seed=1)
        assert np.array_equal(model.G, model.G.T)

    def test_deterministic(self):
        g1 = generate_toy_operator(12, 5, seed=9).G
        g2 = generate_toy_operator(12, 5, seed=9).G
        assert np.array_equal(g1, g2)

    def test_spectral_normalization(self):
        model = generate_toy_operator(10, 4, seed=2)
        norm = model.spectrally_normalized()
        assert abs(np.linalg.eigvalsh(norm.G)[-1] - 1.0) < 1e-12
        assert norm.normalization > 1.0
        # scaling must not disturb the eigenvectors
        assert_allclose(norm.G * norm.normalization, model.G, atol=1e-12)

    def test_bad_rank(self):
        with pytest.raises(ValidationError):
            generate_toy_operator(5, 6, seed=0)


class TestGenerateSnapshots:
    def setup_method(self):
        self.model = generate_toy_operator(20, 8, seed=4)

    def test_setting_i_single_long_trajectory(self):
        s = generate_snapshots(self.model, "i", 12, seed=5)
        assert (s.num_trajectories, s.num_snapshots, s.n) == (1, 13, 20)
        d = build_data_matrices(s)
        assert d.m == 12
        Gn = self.model.spectrally_normalized().G
        assert_allclose(s.states[0, 1], Gn @ s.states[0, 0], atol=1e-12)

    def test_setting_ii_one_step_pairs(self):
        s = generate_snapshots(self.model, "ii", 12, seed=5)
        assert (s.num_trajectories, s.num_snapshots) == (12, 2)
        assert_allclose(s.states[:, 1, :], s.states[:, 0, :] @ self.model.G.T, atol=1e-12)

    def test_setting_iii_cubic_map(self):
        s = generate_snapshots(self.model, "iii", 12, seed=5)
        x1 = s.states[:, 0, :]
        assert_allclose(s.states[:, 1, :], (x1 + x1**3) @ self.model.G.T, atol=1e-12)

    def test_deterministic(self):
        a = generate_snapshots(self.model, "ii", 10, seed=6).states
        b = generate_snapshots(self.model, "ii", 10, seed=6).states
        assert np.array_equal(a, b)

    def test_companion_residuals_split_the_settings(self):
        model = generate_toy_operator(50, 30, seed=7)
        d_i = build_data_matrices(generate_snapshots(model, "i", 40, seed=8))
        d_ii = build_data_matrices(generate_snapshots(model, "ii", 40, seed=8))
        assert companion_residual(d_i) <= 1e-8
        assert companion_residual(d_ii) >= 0.1

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            generate_snapshots(self.model, "iv", 5, seed=0)
        with pytest.raises(ValidationError):
            generate_snapshots(self.model, "i", 21, seed=0)


class TestCompanionResidual:
    def test_successors_equal_predecessors(self, rng):
        X = rng.standard_normal((6, 3))
        assert companion_residual(DataMatrices(X=X, Y=X)) < 1e-14

    def test_successors_orthogonal_to_span(self):
        X = np.eye(5)[:, :2]
        Y = np.eye(5)[:, 2:4]
        assert abs(companion_residual(DataMatrices(X=X, Y=Y)) - 1.0) < 1e-14

    def test_zero_successors(self):
        X = np.eye(4)[:, :2]
        assert companion_residual(DataMatrices(X=X, Y=np.zeros((4, 2)))) == 0.0


class TestRunBenchmark:
    def test_row_count_and_order(self):
        cfg = BenchConfig(n=12, r=5, m=8, k_values=(1, 2, 3), seed=1, measure_time=False)
        result = run_benchmark(cfg)
        assert len(result.rows) == 3 * 3 * 3
        keys = [(r.setting, r.method, r.k) for r in result.rows]
        assert keys == sorted(keys, key=lambda t: (("i", "ii", "iii").index(t[0]), t[1], t[2]))

    def test_default_sweep_size(self, full_bench_result):
        assert len(full_bench_result.rows) == 3 * 3 * 40

    def test_truncation_strictly_suboptimal_below_generator_rank(self, full_bench_result):
        # truncating the unconstrained fit is not the constrained optimum
        res = {(r.setting, r.method, r.k): r.residual for r in full_bench_result.rows}
        assert res[("ii", "b", 15)] > res[("ii", "a", 15)]
        assert res[("iii", "b", 15)] > res[("iii", "a", 15)]

    def test_linear_and_cubic_settings_share_collapse_rank(self, full_bench_result):
        # the independent-pairs and cubic datasets behave analogously: each
        # solver first reaches the 1e-6 * ||Y|| floor at the generator rank
        # on both, and the projected solver reaches it on neither
        result = full_bench_result
        first_drop = {}
        for s in ("ii", "iii"):
            limit = 1e-6 * result.settings[s].norm_y
            for meth in ("a", "b", "c"):
                ks = [row.k for row in result.rows_for(s, meth) if row.residual <= limit]
                first_drop[(s, meth)] = min(ks) if ks else None
        for meth in ("a", "b"):
            assert first_drop[("ii", meth)] == first_drop[("iii", meth)] == 30
        assert first_drop[("ii", "c")] is None and first_drop[("iii", "c")] is None

    def test_fitter_failure_recorded_as_nan_row(self, monkeypatch):
        orig = Factorization.residual

        def sabotaged(fac, fit, k):
            if fit == "truncated" and k == 2:
                raise RuntimeError("boom")
            return orig(fac, fit, k)

        monkeypatch.setattr(Factorization, "residual", sabotaged)
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2, 3), settings=("ii",), seed=4,
                          measure_time=False)
        result = run_benchmark(cfg)
        assert len(result.rows) == 3 * 3
        failed = [r for r in result.rows if np.isnan(r.residual)]
        assert [(r.method, r.k) for r in failed] == [("b", 2)]

    def test_factorization_failure_recorded_as_nan_rows(self, monkeypatch):
        import lrdmd.toybench as tb

        orig, calls = tb.factorize, []

        def sabotaged(d, *args, **kwargs):
            calls.append(d)
            if len(calls) == 2:  # the second setting, ii
                raise RuntimeError("boom")
            return orig(d, *args, **kwargs)

        monkeypatch.setattr(tb, "factorize", sabotaged)
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2), settings=("i", "ii"), seed=4,
                          measure_time=False)
        result = run_benchmark(cfg)
        assert len(result.rows) == 2 * 3 * 2
        failed = {r.setting for r in result.rows if np.isnan(r.residual)}
        assert failed == {"ii"}
        assert np.isnan(result.settings["ii"].companion_residual)
        assert all(np.isfinite(r.residual) for r in result.rows_for("i", "a"))

    def test_setting_data_failure_recorded_as_nan_rows(self, monkeypatch):
        # a setting whose data are refused (here a NaN in its snapshots)
        # gives NaN rows; the other settings are swept as usual
        import lrdmd.toybench as tb

        orig = tb.generate_snapshots

        def sabotaged(model, setting, m, seed):
            snaps = orig(model, setting, m, seed)
            if setting == "ii":
                states = snaps.states.copy()
                states[0, 1, 0] = np.nan
                return SnapshotSet(states=states)
            return snaps

        monkeypatch.setattr(tb, "generate_snapshots", sabotaged)
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2), settings=("i", "ii"), seed=4,
                          measure_time=False)
        result = run_benchmark(cfg)
        assert len(result.rows) == 2 * 3 * 2
        assert {r.setting for r in result.rows if np.isnan(r.residual)} == {"ii"}
        assert np.isnan(result.settings["ii"].companion_residual)
        assert np.isnan(result.settings["ii"].norm_y)
        assert all(np.isfinite(r.residual) for r in result.rows_for("i", "a"))

    def test_rows_lift_no_operator(self, monkeypatch):
        # every row comes from the setting's coefficient matrices: no
        # residual_norm, and no product with the n-row basis beyond the one
        # ||Y - Q Q^T Y|| of each independent-pairs setting (ii and iii)
        import lrdmd.solvers
        import lrdmd.toybench as tb
        from lrdmd.linalg import QrFactors

        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return counted

        for name in ("lift", "lift_rows"):
            monkeypatch.setattr(QrFactors, name, counting(name, getattr(QrFactors, name)))
        counted_norm = counting("residual_norm", lrdmd.solvers.residual_norm)
        monkeypatch.setattr(lrdmd.solvers, "residual_norm", counted_norm)
        monkeypatch.setattr(tb, "residual_norm", counted_norm, raising=False)
        result = run_benchmark(BenchConfig(seed=7, measure_time=False))
        assert len(result.rows) == 360
        assert all(np.isfinite(r.residual) for r in result.rows)
        assert calls == ["lift", "lift"]

    def test_deterministic_rows(self):
        cfg = BenchConfig(n=10, r=4, m=6, seed=3, measure_time=False)
        r1 = run_benchmark(cfg)
        r2 = run_benchmark(cfg)
        assert r1.rows == r2.rows

    def test_requires_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            run_benchmark(BenchConfig(n=8, r=3, m=5))

    def test_setting_info_matches_generation(self):
        cfg = BenchConfig(n=10, r=4, m=6, seed=3, measure_time=False)
        result = run_benchmark(cfg)
        d = benchmark_data(cfg, "ii")
        assert result.settings["ii"].norm_y == float(np.linalg.norm(d.Y))
        assert result.settings["ii"].data_seed == data_seed_for(3, "ii")

    def test_csv_format(self, tmp_path):
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2), seed=2, measure_time=False)
        path = tmp_path / "out.csv"
        write_result_csv(run_benchmark(cfg), path)
        lines = path.read_text().splitlines()
        assert lines[0] == RESULT_HEADER
        assert len(lines) == 1 + 3 * 3 * 2
        cells = lines[1].split(",")
        assert cells[0] == "i" and cells[1] == "a" and cells[2] == "1"
        float(cells[3])  # parses

    def test_wall_time_measured_by_default(self):
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1,), seed=2)
        result = run_benchmark(cfg)
        assert any(r.wall_time_ms > 0 for r in result.rows)


class TestBenchConfig:
    def test_defaults(self):
        cfg = BenchConfig(seed=0)
        assert (cfg.n, cfg.r, cfg.m) == (50, 30, 40)
        assert cfg.ranks() == tuple(range(1, 41))
        assert cfg.settings == ("i", "ii", "iii") and cfg.methods == ("a", "b", "c")

    def test_validation(self):
        with pytest.raises(ValidationError):
            BenchConfig(n=5, m=6, seed=0)
        with pytest.raises(ValidationError):
            BenchConfig(settings=("iv",), seed=0)
        with pytest.raises(ValidationError):
            BenchConfig(methods=("z",), seed=0)
        with pytest.raises(ValidationError):
            BenchConfig(k_values=(0,), seed=0)

    def test_load_config(self, tmp_path):
        text = (
            "# benchmark sweep\n"
            "n = 12\nr = 5\nm = 8\n"
            "settings = i,ii\nmethods = a,c\n"
            "k_values = 1..3,5\nseed = 11\n"
            "output = results.csv\nmeasure_time = false\n"
        )
        path = tmp_path / "bench.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert (cfg.n, cfg.r, cfg.m, cfg.seed) == (12, 5, 8, 11)
        assert cfg.settings == ("i", "ii") and cfg.methods == ("a", "c")
        assert cfg.k_values == (1, 2, 3, 5)
        assert cfg.measure_time is False

    @pytest.mark.parametrize(
        "text, bad",
        [
            ("1,x", "'x' is not an integer"),
            ("1..y", "'1..y' is not"),
            ("3..", "'3..' is not"),
            ("40..1", r"range '40\.\.1' is reversed"),
            ("9..2,5", r"range '9\.\.2' is reversed"),
        ],
    )
    def test_bad_k_values_name_the_part(self, tmp_path, text, bad):
        path = tmp_path / "k.cfg"
        path.write_text(f"seed = 1\nk_values = {text}\n")
        with pytest.raises(ValidationError, match=f"k.cfg:2: bad value for k_values: {bad}"):
            load_config(path)

    def test_load_config_errors(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(ValidationError, match="not found"):
            load_config(missing)
        bad = tmp_path / "bad.cfg"
        bad.write_text("n : 12\n")
        with pytest.raises(ValidationError, match="key = value"):
            load_config(bad)
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("banana = 3\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            load_config(unknown)
        badval = tmp_path / "badval.cfg"
        badval.write_text("n = soup\n")
        with pytest.raises(ValidationError, match="bad value"):
            load_config(badval)
