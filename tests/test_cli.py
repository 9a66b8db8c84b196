import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrdmd.cli
import lrdmd.solvers
from lrdmd.cli import main
from lrdmd.modes import amplitudes, compute_modes
from lrdmd.rom import simulate_reduced
from lrdmd.snapshots import (
    RankReport,
    SnapshotSet,
    build_data_matrices,
    load_snapshots,
    save_snapshots,
)
from lrdmd.solvers import fit_optimal_lowrank_dmd
from lrdmd.toybench import benchmark_data, companion_residual


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory, toy_config):
    """Setting-ii snapshot file at the reference scale (rank(Y) = 30)."""
    path = tmp_path_factory.mktemp("data") / "setting_ii.csv"
    run = main(
        [
            "--seed",
            str(toy_config.seed),
            "generate",
            "--setting",
            "ii",
            "--n",
            "50",
            "--r",
            "30",
            "--m",
            "40",
            "--out",
            str(path),
        ]
    )
    assert run == 0
    return path


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    rng = np.random.default_rng(17)
    Ys = rng.standard_normal((6, 6))
    states = np.stack([np.stack([np.eye(6)[:, j], (Ys + Ys.T)[:, j]]) for j in range(6)])
    path = tmp_path_factory.mktemp("data") / "small.csv"
    save_snapshots(SnapshotSet(states=states), path)
    return path


class TestGenerate:
    def test_matches_library_generation(self, toy_csv, toy_config):
        snaps = load_snapshots(toy_csv)
        from lrdmd.snapshots import build_data_matrices

        d = build_data_matrices(snaps)
        lib = benchmark_data(toy_config, "ii")
        assert np.array_equal(d.X, lib.X)
        assert np.array_equal(d.Y, lib.Y)

    def test_manifest_written(self, toy_csv):
        manifest = json.loads((toy_csv.parent / (toy_csv.name + ".manifest.json")).read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 7
        assert str(toy_csv) in manifest["outputs"]

    def test_requires_seed(self, tmp_path):
        code = main(["generate", "--setting", "i", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestValidate:
    def test_reports_ranks(self, toy_csv, capsys):
        assert main(["validate", "--input", str(toy_csv)]) == 0
        out = capsys.readouterr().out
        assert "rank of X      : 40" in out
        assert "rank of Y      : 30" in out
        assert "companion residual" in out

    def test_missing_input(self, tmp_path):
        assert main(["validate", "--input", str(tmp_path / "none.csv")]) == 2

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_factors_x_once(self, tmp_path, capsys, monkeypatch, rank_deficient):
        # X is 20 x 12: one trajectory of 13 states, or two identical
        # trajectories of 7 (rank(X) = 6 < m)
        rng = np.random.default_rng(5)
        states = rng.standard_normal((1, 13, 20))
        if rank_deficient:
            states = np.repeat(rng.standard_normal((1, 7, 20)), 2, axis=0)
        path = tmp_path / "v.csv"
        save_snapshots(SnapshotSet(states=states), path)
        d = build_data_matrices(load_snapshots(path))
        assert (d.n, d.m) == (20, 12)
        # independent reference: numpy's singular-value counts
        rank_x, rank_y = (
            int(np.count_nonzero(s > 1e-12 * s[0]))
            for s in (np.linalg.svd(M, compute_uv=False) for M in (d.X, d.Y))
        )
        assert (rank_x, rank_y) == ((6, 6) if rank_deficient else (12, 12))
        expected = RankReport(n=20, m=12, rank_x=rank_x, rank_y=rank_y, tol=1e-12).lines()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected.append(f"companion residual       : {companion_residual(d):.6e}")
        calls = {"qr_factor": [], "thin_svd": []}
        for name in calls:
            original = getattr(lrdmd.solvers, name)

            def counted(M, _original=original, _calls=calls[name], **kwargs):
                _calls.append(M.shape)
                return _original(M, **kwargs)

            monkeypatch.setattr(lrdmd.solvers, name, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--input", str(path)]) == 0
        # one tall factorization of the distinct snapshot columns, X and the
        # last state of each trajectory; every SVD after it is of a small R
        assert calls["qr_factor"] == [(20, 14 if rank_deficient else 13)]
        assert calls["thin_svd"] and all(shape[0] < 20 for shape in calls["thin_svd"])
        assert capsys.readouterr().out.splitlines() == expected


class TestFit:
    def test_happy_path(self, toy_csv, tmp_path):
        out = tmp_path / "fit"
        code = main(
            ["fit", "--input", str(toy_csv), "--method", "optimal", "--rank", "10", "--out", str(out)]
        )
        assert code == 0
        left = np.loadtxt(out / "left.csv", delimiter=",")
        right = np.loadtxt(out / "right.csv", delimiter=",")
        assert left.shape == (50, 10) and right.shape == (10, 50)
        summary = dict(
            line.split(",", 1) for line in (out / "summary.csv").read_text().splitlines()[1:]
        )
        # the factors on disk reproduce the reported residual exactly
        snaps = load_snapshots(toy_csv)
        from lrdmd.snapshots import build_data_matrices

        d = build_data_matrices(snaps)
        res = float(np.linalg.norm(d.Y - left @ (right @ d.X)))
        assert abs(res - float(summary["residual"])) < 1e-12 * max(res, 1.0)
        # the Eckart-Young certificate agrees with the evaluated residual
        assert abs(res - float(summary["certified_residual"])) < 1e-12 * np.linalg.norm(d.Y)
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("method", ["truncated", "projected", "exact"])
    def test_other_methods(self, toy_csv, tmp_path, method):
        out = tmp_path / f"fit_{method}"
        args = ["fit", "--input", str(toy_csv), "--method", method, "--out", str(out)]
        if method != "exact":
            args += ["--rank", "5"]
        assert main(args) == 0
        keys = [line.split(",")[0] for line in (out / "summary.csv").read_text().splitlines()]
        assert "residual" in keys and "certified_residual" not in keys

    @pytest.mark.parametrize("method, code", [("exact", 0), ("truncated", 0), ("projected", 0),
                                              ("optimal", 3)])
    def test_all_zero_snapshots(self, tmp_path, method, code):
        # X = 0: the baselines fit the rank-0 operator, as the exact fit
        # does; the optimal fit has nothing to fit and is a numerical failure
        path = tmp_path / "zeros.csv"
        save_snapshots(SnapshotSet(states=np.zeros((1, 5, 4))), path)
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = main(["fit", "--input", str(path), "--method", method, "--rank", "1",
                        "--out", str(out)])
        assert got == code
        if code == 0:
            lines = (out / "summary.csv").read_text().splitlines()
            summary = dict(line.split(",", 1) for line in lines[1:])
            assert "declared_rank,0" in lines
            assert float(summary["residual"]) == 0.0  # ||Y|| of all-zero data
        else:
            assert not out.exists()

    def test_zero_rank_is_usage_error(self, toy_csv, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(toy_csv), "--method", "optimal", "--rank", "0", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "rank must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", [35, 45])
    def test_rank_beyond_numerical_rank_is_numerical_failure(self, toy_csv, tmp_path, capsys, rank):
        code = main(
            ["fit", "--input", str(toy_csv), "--method", "optimal", "--rank", str(rank), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical rank of Y (30)" in err

    def test_repeat_runs_are_bitwise_identical(self, toy_csv, tmp_path):
        # every CSV that fit, modes and simulate (both paths) write; the
        # manifests carry a timestamp and are left out
        commands = {
            "fit": ["fit", "--method", "optimal", "--rank", "8"],
            "modes": ["modes", "--rank", "8", "--horizon", "12"],
            "reduced": ["simulate", "--rank", "8", "--horizon", "60", "--stride", "7"],
            "modal": ["simulate", "--rank", "8", "--horizon", "30", "--path", "modal"],
        }
        for name, argv in commands.items():
            blobs = []
            for run in ("1", "2"):
                out = tmp_path / f"{name}{run}"
                assert main([*argv, "--input", str(toy_csv), "--out", str(out)]) == 0
                csvs = sorted(out.glob("*.csv"))
                assert csvs
                blobs.append({p.name: p.read_bytes() for p in csvs})
            assert blobs[0] == blobs[1], name

    def test_missing_input_file(self, tmp_path):
        code = main(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--method", "exact", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_strict_rank_flag_escalates_deficiency(self, tmp_path, toy_config):
        # the single-trajectory setting yields rank-deficient X: tolerated
        # with a warning by default, refused under --strict-rank
        import warnings

        from lrdmd.toybench import generate_snapshots, generate_toy_operator, data_seed_for

        model = generate_toy_operator(toy_config.n, toy_config.r, toy_config.seed)
        snaps = generate_snapshots(model, "i", toy_config.m, data_seed_for(toy_config.seed, "i"))
        csv_path = tmp_path / "setting_i.csv"
        save_snapshots(snaps, csv_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ok = main(
                ["fit", "--input", str(csv_path), "--method", "exact", "--out", str(tmp_path / "lenient")]
            )
        assert ok == 0
        strict = main(
            ["--strict-rank", "fit", "--input", str(csv_path), "--method", "exact", "--out", str(tmp_path / "strict")]
        )
        assert strict == 3
        # the flag may also follow the subcommand
        args = ["fit", "--input", str(csv_path), "--method", "exact", "--strict-rank"]
        assert main([*args, "--out", str(tmp_path / "strict_after")]) == 3

    def test_global_options_after_subcommand(self, toy_csv, tmp_path):
        def svd_tol(name, before, after):
            out = tmp_path / name
            args = ["fit", "--input", str(toy_csv), "--method", "exact", "--out", str(out)]
            assert main([*before, *args, *after]) == 0
            lines = (out / "summary.csv").read_text().splitlines()[1:]
            return float(dict(line.split(",", 1) for line in lines)["svd_tol"])

        assert svd_tol("default", [], []) == 1e-12
        assert svd_tol("after", [], ["--svd-tol", "1e-10"]) == 1e-10
        # given in both places, the value after the subcommand wins
        assert svd_tol("both", ["--svd-tol", "0.5"], ["--svd-tol", "1e-10"]) == 1e-10

    def test_svd_tol_flag_changes_rank_decisions(self, toy_csv, capsys):
        # a huge threshold collapses the reported numerical ranks
        assert main(["--svd-tol", "0.5", "validate", "--input", str(toy_csv)]) == 0
        out = capsys.readouterr().out
        reported = {
            line.split(":")[0].strip(): line.split(":")[1].strip()
            for line in out.splitlines()
            if ":" in line
        }
        assert int(reported["numerical rank of X"]) < 40
        assert int(reported["numerical rank of Y"]) < 30


class TestModes:
    def test_happy_path_exact_variant(self, toy_csv, tmp_path):
        out = tmp_path / "modes"
        code = main(
            [
                "modes",
                "--input",
                str(toy_csv),
                "--rank",
                "5",
                "--variant",
                "exact",
                "--theta",
                "first",
                "--horizon",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        eig_lines = (out / "eigenvalues.csv").read_text().splitlines()
        assert eig_lines[0] == "lambda_re,lambda_im"
        assert len(eig_lines) == 6
        mode_lines = (out / "modes.csv").read_text().splitlines()
        assert len(mode_lines) == 51  # header + n rows
        amp_lines = (out / "amplitudes.csv").read_text().splitlines()
        assert len(amp_lines) == 9
        # every eigenpair satisfies the eigen equation at the documented tolerance
        resid_rows = (out / "eigenpair_residuals.csv").read_text().splitlines()[1:]
        assert len(resid_rows) == 5
        assert all(row.rsplit(",", 1)[1] == "True" for row in resid_rows)

    def test_theta_from_file(self, small_csv, tmp_path):
        theta_path = tmp_path / "theta.csv"
        theta_path.write_text(",".join(str(v) for v in np.linspace(-1, 1, 6)) + "\n")
        out = tmp_path / "modes_theta"
        code = main(
            ["modes", "--input", str(small_csv), "--rank", "3", "--theta", str(theta_path), "--out", str(out)]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "text",
        ["x0,x1,x2,x3,x4,x5\n{row}\n", "\n {row} \n\n", "x0,x1,x2,x3,x4,x5\r\n{row}\r\n"],
    )
    def test_theta_file_layouts(self, small_csv, tmp_path, text):
        # theta becomes the first state of the written trajectory, bit for bit
        theta = np.array([0.1, -0.0, 5e-324, 1e-17, -2.5, 1e300])
        theta_path = tmp_path / "theta.csv"
        theta_path.write_text(text.format(row=",".join(map(repr, theta.tolist()))), newline="")
        out = tmp_path / "sim_theta"
        code = main(
            ["simulate", "--input", str(small_csv), "--rank", "3", "--horizon", "1",
             "--theta", str(theta_path), "--out", str(out)]
        )
        assert code == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[0, 1:], theta)
        assert np.array_equal(np.signbit(rows[0, 1:]), np.signbit(theta))

    @pytest.mark.parametrize(
        "text", ["", "x0,x1\n", "1,2,3,4,5,6\n1,2,3,4,5,6\n", "1,2,3,4,5,abc\n", "1,2,3,,5,6\n"]
    )
    def test_bad_theta_file(self, small_csv, tmp_path, text, capsys):
        theta_path = tmp_path / "theta.csv"
        theta_path.write_text(text)
        code = main(
            ["modes", "--input", str(small_csv), "--rank", "2", "--theta", str(theta_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "theta file" in capsys.readouterr().err

    def test_bad_theta_dimension(self, small_csv, tmp_path):
        theta_path = tmp_path / "theta.csv"
        theta_path.write_text("1.0,2.0\n")
        code = main(
            ["modes", "--input", str(small_csv), "--rank", "2", "--theta", str(theta_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_as_stated_variant(self, small_csv, tmp_path):
        out = tmp_path / "modes_as_stated"
        code = main(
            ["modes", "--input", str(small_csv), "--rank", "3", "--variant", "as-stated", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "eigenvalues.csv").read_text().splitlines()) == 4


class TestSimulate:
    def test_reduced_two_steps_applies_operator(self, small_csv, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--input", str(small_csv), "--rank", "3", "--horizon", "2", "--out", str(out)]
        )
        assert code == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        snaps = load_snapshots(small_csv)
        from lrdmd.snapshots import build_data_matrices

        d = build_data_matrices(snaps)
        op, _ = fit_optimal_lowrank_dmd(d, 3)
        theta = snaps.initial_condition(0)
        assert_allclose(rows[0, 1:], theta, atol=1e-15)
        assert_allclose(rows[1, 1:], op.left @ op.right @ theta, atol=1e-10)

    def test_horizon_one_emits_initial_state(self, small_csv, tmp_path):
        out = tmp_path / "sim1"
        code = main(
            ["simulate", "--input", str(small_csv), "--rank", "2", "--horizon", "1", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("1,")

    def test_modal_path_with_stride(self, small_csv, tmp_path):
        out = tmp_path / "sim_modal_stride"
        code = main(
            [
                "simulate",
                "--input",
                str(small_csv),
                "--rank",
                "3",
                "--horizon",
                "9",
                "--path",
                "modal",
                "--stride",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [1, 5, 9]

    @pytest.mark.parametrize("path", ["reduced", "modal"])
    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_bad_stride_on_either_path(self, small_csv, tmp_path, capsys, path, stride):
        out = tmp_path / "sim_bad_stride"
        code = main(
            ["simulate", "--input", str(small_csv), "--rank", "3", "--horizon", "5",
             "--path", path, "--stride", stride, "--out", str(out)]
        )
        assert code == 2
        assert "error: stride must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_modal_matches_reduced_on_symmetric_data(self, small_csv, tmp_path):
        out_r = tmp_path / "red"
        out_m = tmp_path / "mod"
        for path, mode in ((out_r, "reduced"), (out_m, "modal")):
            code = main(
                [
                    "simulate",
                    "--input",
                    str(small_csv),
                    "--rank",
                    "4",
                    "--horizon",
                    "10",
                    "--path",
                    mode,
                    "--out",
                    str(path),
                ]
            )
            assert code == 0
        red = np.loadtxt(out_r / "trajectory.csv", delimiter=",", skiprows=1)
        mod = np.loadtxt(out_m / "trajectory.csv", delimiter=",", skiprows=1)
        # both paths follow the same dynamics from the second step on
        for t in range(1, 10):
            scale = max(np.linalg.norm(red[t, 1:]), 1e-300)
            assert np.linalg.norm(red[t, 1:] - mod[t, 1:]) <= 1e-8 * scale


class TestFailedRunsLeaveNoOutput:
    """A run that exits with an error creates no --out directory."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--method", "optimal", "--rank", "0"],
            ["fit", "--method", "exact", "--input", "missing.csv"],
            ["modes", "--rank", "0"],
            ["modes", "--rank", "3", "--horizon", "0"],
            ["modes", "--rank", "3", "--theta", "missing.csv"],
            ["simulate", "--rank", "0", "--horizon", "5"],
            ["simulate", "--rank", "3", "--horizon", "5", "--theta", "missing.csv"],
        ],
    )
    def test_usage_error(self, toy_csv, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        inp = [] if "--input" in argv else ["--input", str(toy_csv)]
        assert main([*argv, *inp, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--method", "optimal"],
            ["modes"],
            ["simulate", "--horizon", "5"],
            ["simulate", "--horizon", "5", "--path", "modal"],
        ],
    )
    def test_rank_guard(self, toy_csv, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--rank", "45", "--input", str(toy_csv), "--out", str(out)]) == 3
        assert "numerical rank of Y (30)" in capsys.readouterr().err
        assert not out.exists()


class TestWrittenFiles:
    """Output CSVs read back through np.loadtxt to the library's arrays, bit
    for bit: cells are shortest round-trip reprs, complex values re,im pairs."""

    RANK = 3

    @pytest.fixture(scope="class")
    def library(self, small_csv):
        snaps = load_snapshots(small_csv)
        op, factors = fit_optimal_lowrank_dmd(build_data_matrices(snaps), self.RANK)
        return snaps, op, factors

    def run(self, command, small_csv, out, *extra):
        argv = [command, "--input", str(small_csv), "--rank", str(self.RANK), *extra]
        assert main([*argv, "--out", str(out)]) == 0

    def test_fit_factors(self, small_csv, tmp_path, library):
        _, op, _ = library
        self.run("fit", small_csv, tmp_path, "--method", "optimal")
        assert np.array_equal(np.loadtxt(tmp_path / "left.csv", delimiter=","), op.left)
        assert np.array_equal(np.loadtxt(tmp_path / "right.csv", delimiter=","), op.right)

    def test_modes(self, small_csv, tmp_path, library):
        snaps, _, factors = library
        self.run("modes", small_csv, tmp_path, "--horizon", "4")
        mode_set = compute_modes(factors, "exact_reconstruction")
        schedule = amplitudes(mode_set, snaps.initial_condition(0), 4)
        k = mode_set.eigenvalues.shape[0]

        def read(name):
            return np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)

        header = (tmp_path / "modes.csv").read_text().splitlines()[0]
        assert header == ",".join(f"mode{i}_re,mode{i}_im" for i in range(k))
        # re,im cell pairs are the memory layout of complex128
        assert np.array_equal(read("modes.csv").view(np.complex128), mode_set.modes)
        assert np.array_equal(read("eigenvalues.csv").view(np.complex128)[:, 0], mode_set.eigenvalues)
        amps = read("amplitudes.csv")
        assert np.array_equal(amps[:, 0], np.arange(1, 5))
        assert np.array_equal(np.ascontiguousarray(amps[:, 1:]).view(np.complex128), schedule.values)

    def test_trajectory(self, small_csv, tmp_path, library):
        snaps, _, factors = library
        self.run("simulate", small_csv, tmp_path, "--horizon", "9", "--stride", "4")
        traj = simulate_reduced(factors, snaps.initial_condition(0), 9, stride=4)
        rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 1:], traj.states)


class TestBench:
    def test_small_sweep_and_manifest(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(
            [
                "--seed",
                "3",
                "bench",
                "--n",
                "12",
                "--r",
                "5",
                "--m",
                "8",
                "--k-values",
                "1..4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "setting,method,k,residual,companion_residual,wall_time_ms"
        assert len(lines) == 1 + 3 * 3 * 4
        assert (tmp_path / "results.csv.manifest.json").exists()

    def test_no_timing_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                [
                    "--seed",
                    "5",
                    "bench",
                    "--n",
                    "10",
                    "--r",
                    "4",
                    "--m",
                    "6",
                    "--no-timing",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_global_options_after_subcommand(self, tmp_path):
        # --seed goes before or after the subcommand; given in both places,
        # the value after it wins
        runs = {
            "before": ["--seed", "7", "bench"],
            "after": ["bench", "--seed", "7"],
            "both": ["--seed", "3", "bench", "--seed", "7"],
            "other": ["bench", "--seed", "3"],
        }
        written = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main([*argv, "--no-timing", "--out", str(out)]) == 0
            written[name] = out.read_bytes()
        assert written["after"] == written["before"] == written["both"]
        assert written["other"] != written["before"]

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        out = tmp_path / "res.csv"
        cfg.write_text(
            f"n = 10\nr = 4\nm = 6\nk_values = 1..3\nseed = 2\noutput = {out}\n"
        )
        assert main(["bench", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_seed_required(self, tmp_path):
        code = main(["bench", "--n", "8", "--r", "3", "--m", "5", "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("k_values", ["1,x", "40..1"])
    def test_bad_k_values_are_usage_errors(self, tmp_path, capsys, k_values):
        out = tmp_path / "r.csv"
        args = ["--seed", "7", "bench", "--k-values", k_values, "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("k_values", ["1,x", "9..2"])
    def test_bad_k_values_in_config_are_usage_errors(self, tmp_path, capsys, k_values):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"seed = 7\nk_values = {k_values}\noutput = {tmp_path / 'r.csv'}\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: bad value for k_values")
        assert not (tmp_path / "r.csv").exists()

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["bench", "--config", str(cfg)]) == 2
