import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import RankDeficiencyWarning, ValidationError
from lrdmd.linalg import DEFAULT_TOL
from lrdmd.snapshots import DataMatrices, SnapshotSet
from lrdmd.solvers import Factorization, factorize
from lrdmd.toybench import (
    BenchConfig,
    RESULT_HEADER,
    _span_defect,
    benchmark_data,
    generate_snapshots,
    generate_toy_operator,
    load_config,
    run_benchmark,
    write_result_csv,
)


def companion_residual(d, tol=DEFAULT_TOL):
    """||Y - X X^+ Y||_F / ||Y||_F, as the sweep and lrdmd validate take it
    from the factorization; a rank-deficient X raises no warning here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        return _span_defect(factorize(d, tol), d.norm_y)


class TestGenerateToyOperator:
    def test_rank_one(self):
        G = generate_toy_operator(6, 1, seed=3)
        sigma = np.linalg.svd(G, compute_uv=False)
        assert int(np.sum(sigma > 1e-10 * sigma[0])) == 1
        # a single outer product has trace equal to its only eigenvalue
        assert abs(np.linalg.eigvalsh(G)[-1] - np.trace(G)) < 1e-10

    def test_reference_scale_rank(self):
        G = generate_toy_operator(50, 30, seed=0)
        sigma = np.linalg.svd(G, compute_uv=False)
        assert int(np.sum(sigma > 1e-10 * sigma[0])) == 30

    def test_symmetric_exactly(self):
        G = generate_toy_operator(10, 4, seed=1)
        assert np.array_equal(G, G.T)

    def test_deterministic(self):
        g1 = generate_toy_operator(12, 5, seed=9)
        g2 = generate_toy_operator(12, 5, seed=9)
        assert np.array_equal(g1, g2)

    def test_spectral_normalization(self):
        # setting i iterates G scaled to unit spectral radius, which
        # leaves its eigenvectors alone
        G = generate_toy_operator(10, 4, seed=2)
        radius = np.linalg.eigvalsh(G)[-1]
        assert radius > 1.0
        Gn = G / radius
        assert abs(np.linalg.eigvalsh(Gn)[-1] - 1.0) < 1e-12
        assert_allclose(Gn * radius, G, atol=1e-12)
        s = generate_snapshots(G, "i", 8, seed=5)
        for t in range(8):
            assert_allclose(s.states[0, t + 1], Gn @ s.states[0, t], atol=1e-12)

    def test_bad_rank(self):
        with pytest.raises(ValidationError):
            generate_toy_operator(5, 6, seed=0)


class TestGenerateSnapshots:
    def setup_method(self):
        self.G = generate_toy_operator(20, 8, seed=4)

    def test_setting_i_single_long_trajectory(self):
        s = generate_snapshots(self.G, "i", 12, seed=5)
        assert (*s.states.shape[:2], s.n) == (1, 13, 20)
        assert s.m == 12
        Gn = self.G / np.linalg.eigvalsh(self.G)[-1]
        assert_allclose(s.states[0, 1], Gn @ s.states[0, 0], atol=1e-12)

    def test_setting_ii_one_step_pairs(self):
        s = generate_snapshots(self.G, "ii", 12, seed=5)
        assert s.states.shape[:2] == (12, 2)
        assert_allclose(s.states[:, 1, :], s.states[:, 0, :] @ self.G.T, atol=1e-12)

    def test_setting_iii_cubic_map(self):
        s = generate_snapshots(self.G, "iii", 12, seed=5)
        x1 = s.states[:, 0, :]
        assert_allclose(s.states[:, 1, :], (x1 + x1**3) @ self.G.T, atol=1e-12)

    def test_deterministic(self):
        a = generate_snapshots(self.G, "ii", 10, seed=6).states
        b = generate_snapshots(self.G, "ii", 10, seed=6).states
        assert np.array_equal(a, b)

    def test_companion_residuals_split_the_settings(self):
        G = generate_toy_operator(50, 30, seed=7)
        d_i = generate_snapshots(G, "i", 40, seed=8)
        d_ii = generate_snapshots(G, "ii", 40, seed=8)
        assert companion_residual(d_i) <= 1e-8
        assert companion_residual(d_ii) >= 0.1

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            generate_snapshots(self.G, "iv", 5, seed=0)
        with pytest.raises(ValidationError):
            generate_snapshots(self.G, "i", 21, seed=0)

    def test_negative_seed_refused(self):
        # numpy's default_rng raises a bare ValueError for it
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            generate_snapshots(self.G, "ii", 5, seed=-1)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -2"):
            generate_toy_operator(6, 2, seed=np.int64(-2))
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            run_benchmark(BenchConfig(n=8, r=3, m=5, seed=-1))

    def test_missing_seed_refused(self):
        # numpy would draw unseeded data, which no run could reproduce
        with pytest.raises(ValidationError, match="a seed is required"):
            generate_toy_operator(5, 2, None)
        with pytest.raises(ValidationError, match="a seed is required"):
            generate_snapshots(self.G, "ii", 5, seed=None)


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
        cfg = BenchConfig(n=12, r=5, m=8, k_values=(1, 2, 3), seed=1)
        rows = run_benchmark(cfg)
        assert len(rows) == 3 * 3 * 3
        keys = [(r.setting, r.method, r.k) for r in rows]
        assert keys == sorted(keys, key=lambda t: (("i", "ii", "iii").index(t[0]), t[1], t[2]))

    def test_default_sweep_size(self, full_bench_result):
        assert len(full_bench_result) == 3 * 3 * 40

    def test_truncation_strictly_suboptimal_below_generator_rank(self, full_bench_result):
        # truncating the unconstrained fit is not the constrained optimum
        res = {(r.setting, r.method, r.k): r.residual for r in full_bench_result}
        assert res[("ii", "b", 15)] > res[("ii", "a", 15)]
        assert res[("iii", "b", 15)] > res[("iii", "a", 15)]

    def test_linear_and_cubic_settings_share_collapse_rank(self, full_bench_result, toy_config):
        # the independent-pairs and cubic datasets behave analogously: each
        # solver first reaches the 1e-6 * ||Y|| floor at the generator rank
        # on both, and the projected solver reaches it on neither
        first_drop = {}
        for s in ("ii", "iii"):
            limit = 1e-6 * benchmark_data(toy_config, s).norm_y
            for meth in ("a", "b", "c"):
                ks = [
                    row.k
                    for row in full_bench_result
                    if (row.setting, row.method) == (s, meth) and row.residual <= limit
                ]
                first_drop[(s, meth)] = min(ks) if ks else None
        for meth in ("a", "b"):
            assert first_drop[("ii", meth)] == first_drop[("iii", meth)] == 30
        assert first_drop[("ii", "c")] is None and first_drop[("iii", "c")] is None

    def test_fitter_failure_recorded_as_nan_row(self, monkeypatch):
        # a failed curve gives NaN for its whole (setting, method) block
        orig = Factorization.residual_curve

        def sabotaged(fac, fit):
            if fit == "truncated":
                raise RuntimeError("boom")
            return orig(fac, fit)

        monkeypatch.setattr(Factorization, "residual_curve", sabotaged)
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2, 3), settings=("ii",), seed=4)
        rows = run_benchmark(cfg)
        assert len(rows) == 3 * 3
        failed = [r for r in rows if np.isnan(r.residual)]
        assert [(r.method, r.k) for r in failed] == [("b", 1), ("b", 2), ("b", 3)]

    def test_factorization_failure_recorded_as_nan_rows(self, monkeypatch):
        import lrdmd.toybench as tb

        orig, calls = tb.factorize, []

        def sabotaged(d, *args, **kwargs):
            calls.append(d)
            if len(calls) == 2:  # the second setting, ii
                raise RuntimeError("boom")
            return orig(d, *args, **kwargs)

        monkeypatch.setattr(tb, "factorize", sabotaged)
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2), settings=("i", "ii"), seed=4)
        rows = run_benchmark(cfg)
        assert len(rows) == 2 * 3 * 2
        failed = {r.setting for r in rows if np.isnan(r.residual)}
        assert failed == {"ii"}
        assert all(np.isnan(r.companion_residual) for r in rows if r.setting == "ii")
        rows_i = [r for r in rows if (r.setting, r.method) == ("i", "a")]
        assert rows_i and all(np.isfinite(r.residual) for r in rows_i)

    def test_setting_data_failure_recorded_as_nan_rows(self, monkeypatch):
        # a setting whose data are refused (here a NaN in its snapshots)
        # gives NaN rows; the other settings are swept as usual
        import lrdmd.toybench as tb

        orig = tb.generate_snapshots

        def sabotaged(G, setting, m, seed):
            snaps = orig(G, setting, m, seed)
            if setting == "ii":
                states = snaps.states.copy()
                states[0, 1, 0] = np.nan
                return SnapshotSet(states=states)
            return snaps

        monkeypatch.setattr(tb, "generate_snapshots", sabotaged)
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2), settings=("i", "ii"), seed=4)
        rows = run_benchmark(cfg)
        assert len(rows) == 2 * 3 * 2
        assert {r.setting for r in rows if np.isnan(r.residual)} == {"ii"}
        assert all(np.isnan(r.companion_residual) for r in rows if r.setting == "ii")
        rows_i = [r for r in rows if (r.setting, r.method) == ("i", "a")]
        assert rows_i and all(np.isfinite(r.residual) for r in rows_i)

    def test_rows_lift_no_operator(self, monkeypatch):
        # every row comes from the setting's coefficient matrices: no
        # residual_norm, and no product with the n-row basis beyond the one
        # ||Y - Q Q^T Y|| of each independent-pairs setting (ii and iii),
        # which solvers._distance sums by blocks of rows
        import lrdmd.solvers
        import lrdmd.toybench as tb
        from lrdmd.linalg import QrFactors

        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(QrFactors, "lift_rows", counting("lift_rows", QrFactors.lift_rows))
        counted_norm = counting("residual_norm", lrdmd.solvers.residual_norm)
        monkeypatch.setattr(lrdmd.solvers, "residual_norm", counted_norm)
        monkeypatch.setattr(tb, "residual_norm", counted_norm, raising=False)
        monkeypatch.setattr(lrdmd.solvers, "_distance",
                            counting("_distance", lrdmd.solvers._distance))
        rows = run_benchmark(BenchConfig(seed=7))
        assert len(rows) == 360
        assert all(np.isfinite(r.residual) for r in rows)
        assert calls == ["_distance", "_distance"]

    def test_deterministic_rows(self):
        cfg = BenchConfig(n=10, r=4, m=6, seed=3)
        assert run_benchmark(cfg) == run_benchmark(cfg)

    def test_requires_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            run_benchmark(BenchConfig(n=8, r=3, m=5))

    def test_setting_info_matches_generation(self):
        # each setting's rows describe benchmark_data's dataset
        cfg = BenchConfig(n=10, r=4, m=6, seed=3)
        rows = run_benchmark(cfg)
        d = benchmark_data(cfg, "ii")
        assert d.norm_y == float(np.linalg.norm(d.Y))
        comp = {r.companion_residual for r in rows if r.setting == "ii"}
        assert comp == {companion_residual(d)}

    def test_csv_format(self, tmp_path):
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2), seed=2)
        path = tmp_path / "out.csv"
        write_result_csv(run_benchmark(cfg), path)
        lines = path.read_text().splitlines()
        assert lines[0] == RESULT_HEADER
        assert len(lines) == 1 + 3 * 3 * 2
        cells = lines[1].split(",")
        assert cells[0] == "i" and cells[1] == "a" and cells[2] == "1"
        float(cells[3])  # parses
        # results only: no column depends on how long the sweep took
        assert RESULT_HEADER == "setting,method,k,residual,companion_residual"
        assert {len(line.split(",")) for line in lines} == {5}

    def test_other_warnings_escape(self, monkeypatch):
        # the sweep ignores RankDeficiencyWarning alone: any other warning
        # of a curve reaches the caller
        orig = Factorization.residual_curve

        def warning(fac, fit):
            warnings.warn("curve overflow", RuntimeWarning)
            return orig(fac, fit)

        monkeypatch.setattr(Factorization, "residual_curve", warning)
        cfg = BenchConfig(n=8, r=3, m=5, k_values=(1, 2), settings=("ii",), methods=("a",),
                          seed=4)
        with pytest.warns(RuntimeWarning, match="curve overflow"):
            rows = run_benchmark(cfg)
        assert len(rows) == 2 and all(np.isfinite(r.residual) for r in rows)

    def test_default_study_raises_no_other_warning(self, full_bench_result, toy_config):
        # every warning category but the ignored one an error: the default
        # study still runs every row (an error there would be a NaN block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_benchmark(toy_config)
        assert rows == full_bench_result
        assert all(np.isfinite(r.residual) for r in rows)


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
        # a sweep of no setting or no method used to write a header-only CSV
        with pytest.raises(ValidationError, match="^settings is empty"):
            BenchConfig(settings=(), seed=0)
        with pytest.raises(ValidationError, match="^methods is empty"):
            BenchConfig(methods=(), seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [("settings", ("i", "ii", "i")), ("methods", ("a", "a")), ("k_values", (1, 2, 3, 2))],
    )
    def test_repeated_entries_refused(self, field, value):
        # a repeated entry used to sweep its rows again
        with pytest.raises(ValidationError, match=f"{field} repeats"):
            BenchConfig(seed=0, **{field: value})

    @pytest.mark.parametrize("m", [0, -3])
    def test_no_pairs_refused(self, m):
        # m = 0 used to sweep no rank and write a CSV of its header alone
        with pytest.raises(ValidationError, match=f"need 1 <= m <= n, got m={m}"):
            BenchConfig(m=m, seed=0)

    def test_load_config(self, tmp_path):
        text = (
            "# benchmark sweep\n"
            "n = 12\nr = 5\nm = 8\n"
            "settings = i,ii\nmethods = a,c\n"
            "k_values = 1..3,5\nseed = 11\n"
            "output = results.csv\n"
        )
        path = tmp_path / "bench.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert (cfg.n, cfg.r, cfg.m, cfg.seed) == (12, 5, 8, 11)
        assert cfg.settings == ("i", "ii") and cfg.methods == ("a", "c")
        assert cfg.k_values == (1, 2, 3, 5)
        assert cfg.output == "results.csv"

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

    @pytest.mark.parametrize("text", ["ture", "flase", "on", "2", "", "false"])
    def test_measure_time_is_an_unknown_key(self, tmp_path, text):
        # the sweep records no timing, so no key switches it: a config that
        # names measure_time is refused at its line, whatever the value
        path = tmp_path / "b.cfg"
        path.write_text(f"seed = 1\nmeasure_time = {text}\n")
        with pytest.raises(ValidationError, match=r"b\.cfg:2: unknown config key 'measure_time'"):
            load_config(path)

    def test_overrides_apply_over_the_file_then_validate(self, tmp_path):
        # m = 60 is valid only with the overriding n = 100: the merged
        # values are validated once
        path = tmp_path / "wide.cfg"
        path.write_text("m = 60\nseed = 1\nsettings = i\n")
        cfg = load_config(path, {"n": "100", "seed": 4, "settings": "", "methods": None})
        assert (cfg.n, cfg.m, cfg.seed) == (100, 60, 4)
        assert cfg.settings == ("i",) and cfg.methods == ("a", "b", "c")
        with pytest.raises(ValidationError, match="need 1 <= m <= n, got m=60, n=50"):
            load_config(path)
        assert load_config(None, {"k_values": "1..3"}) == BenchConfig(k_values=(1, 2, 3))

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
