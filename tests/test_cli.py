import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrdmd.cli
import lrdmd.solvers
from lrdmd.cli import main
from lrdmd.errors import RankClampWarning, RankDeficiencyWarning
from lrdmd.linalg import DEFAULT_TOL
from lrdmd.modes import amplitudes, compute_modes
from lrdmd.rom import simulate_reduced
from lrdmd.snapshots import SnapshotSet, load_snapshots, save_snapshots
from lrdmd.solvers import factorize, fit_optimal_lowrank_dmd
from lrdmd.toybench import BenchConfig, _span_defect, benchmark_data


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
        d = load_snapshots(toy_csv)
        lib = benchmark_data(toy_config, "ii")
        assert np.array_equal(d.X, lib.X)
        assert np.array_equal(d.Y, lib.Y)

    def test_manifest_written(self, toy_csv):
        manifest = json.loads((toy_csv.parent / (toy_csv.name + ".manifest.json")).read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 7
        # the flags generate reads, and not the global ones it refuses
        assert manifest["parameters"] == {
            "seed": 7, "setting": "ii", "n": 50, "r": 30, "m": 40, "out": str(toy_csv)
        }
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
        d = load_snapshots(path)
        assert (d.n, d.m) == (20, 12)
        # independent reference: numpy's singular-value counts
        rank_x, rank_y = (
            int(np.count_nonzero(s > 1e-12 * s[0]))
            for s in (np.linalg.svd(M, compute_uv=False) for M in (d.X, d.Y))
        )
        assert (rank_x, rank_y) == ((6, 6) if rank_deficient else (12, 12))
        expected = [
            "n (state dimension)      : 20",
            "m (snapshot pairs)       : 12",
            f"numerical rank of X      : {rank_x}",
            f"numerical rank of Y      : {rank_y}",
            "tolerance (rel. to s_max): 1e-12",
            "m <= n                   : True",
            f"rank(X) = rank(Y) = m    : {not rank_deficient}",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            defect = _span_defect(factorize(d), d.norm_y)
            expected.append(f"companion residual       : {defect:.6e}")
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
        # --strict-rank refuses a rank-deficient X here as in fit: exit 3,
        # a numerical guard line and no report
        strict = main(["--strict-rank", "validate", "--input", str(path)])
        out, err = capsys.readouterr()
        if rank_deficient:
            assert (strict, out) == (3, "")
            assert err.startswith("numerical guard: X is numerically rank-deficient (rank 6 < m=12)")
            assert "strict mode refuses rank-deficient X" in err
        else:
            assert (strict, out.splitlines()) == (0, expected)


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
        d = load_snapshots(toy_csv)
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
            rank = [] if method == "exact" else ["--rank", "1"]
            got = main(["fit", "--input", str(path), "--method", method, *rank,
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

    def test_strict_rank_flag_escalates_deficiency(self, tmp_path, toy_config, capsys):
        # the single-trajectory setting yields rank-deficient X: tolerated
        # with a warning by default, refused under --strict-rank with no
        # warning first (one would be an error here, and exit 1)
        from lrdmd.toybench import generate_snapshots, generate_toy_operator, data_seed_for

        G = generate_toy_operator(toy_config.n, toy_config.r, toy_config.seed)
        snaps = generate_snapshots(G, "i", toy_config.m, data_seed_for(toy_config.seed, "i"))
        csv_path = tmp_path / "setting_i.csv"
        save_snapshots(snaps, csv_path)
        with pytest.warns(RankDeficiencyWarning):
            ok = main(
                ["fit", "--input", str(csv_path), "--method", "exact", "--out", str(tmp_path / "lenient")]
            )
        assert ok == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = main(
                ["--strict-rank", "fit", "--input", str(csv_path), "--method", "exact", "--out", str(tmp_path / "strict")]
            )
            assert strict == 3
            assert capsys.readouterr().err == (
                "numerical guard: X is numerically rank-deficient (rank 18 < m=40); "
                "strict mode refuses rank-deficient X\n"
            )
            # the flag may also follow the subcommand
            args = ["fit", "--input", str(csv_path), "--method", "exact", "--strict-rank"]
            assert main([*args, "--out", str(tmp_path / "strict_after")]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lenient", "setting_i.csv"]

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
        op, _ = fit_optimal_lowrank_dmd(snaps, 3)
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

    def test_modal_path_expands_only_kept_steps(self, tmp_path, monkeypatch):
        # 4 trajectories of 16 states of a stable rank-16 system in R^500:
        # 4000 steps kept every 40th. Traced from the end of the fit on, the
        # run holds a few times the kept states' bytes (4.5 times); expanding
        # every step and then dropping most held 120 times them.
        rng = np.random.default_rng(3)
        n, horizon, stride = 500, 4000, 40
        Q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        z, basis, states = rng.standard_normal((4, 16)), rng.standard_normal((16, n)), []
        for _ in range(16):
            states.append(z @ basis)
            z = 0.99 * z @ Q.T
        path = tmp_path / "tall.csv"
        save_snapshots(SnapshotSet(states=np.stack(states, axis=1)), path)
        fit = lrdmd.cli._fit

        def traced_after_fit(args):
            result = fit(args)
            tracemalloc.start()
            return result

        monkeypatch.setattr(lrdmd.cli, "_fit", traced_after_fit)
        out = tmp_path / "sim"
        argv = ["simulate", "--input", str(path), "--rank", "8", "--horizon", str(horizon),
                "--path", "modal", "--stride", str(stride), "--out", str(out)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankDeficiencyWarning)  # rank(X) = 16 < m
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = horizon // stride * n * 8
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + horizon // stride
        assert peak <= 8 * kept

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
            ["modes", "--rank", "3"],
            ["simulate", "--rank", "3", "--horizon", "5"],
            ["simulate", "--rank", "3", "--horizon", "5", "--path", "modal"],
        ],
    )
    def test_theta_of_wrong_width(self, toy_csv, tmp_path, capsys, argv):
        theta = tmp_path / "theta.csv"
        theta.write_text("1.0,2.0\n")
        out = tmp_path / "out"
        argv = [*argv, "--input", str(toy_csv), "--theta", str(theta), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: theta must be a vector of dimension 50\n"
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


class TestRankRefusalsAreLibraryWarnings:
    """Each CLI rank refusal is the library's warning made an error: its
    line is "numerical guard: " and the warning's own text."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--method", "optimal"],
            ["modes"],
            ["simulate", "--horizon", "5", "--path", "modal"],
        ],
    )
    def test_clamp(self, toy_csv, tmp_path, capsys, argv):
        with pytest.warns(RankClampWarning) as caught:
            factorize(load_snapshots(toy_csv)).fit("optimal", 45)
        text = str(caught.pop(RankClampWarning).message)
        assert text.startswith("requested rank 45 exceeds the numerical rank of Y (30)")
        argv = [*argv, "--rank", "45", "--input", str(toy_csv), "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"numerical guard: {text}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["fit", "--method", "exact"],
            ["simulate", "--rank", "3", "--horizon", "5"],
        ],
    )
    def test_strict_deficiency(self, setting_i_data, tmp_path, capsys, argv):
        path = tmp_path / "setting_i.csv"
        save_snapshots(setting_i_data, path)
        with pytest.warns(RankDeficiencyWarning) as caught:
            factorize(load_snapshots(path))
        text = str(caught.pop(RankDeficiencyWarning).message)
        assert text == "X is numerically rank-deficient (rank 18 < m=40)"
        if argv != ["validate"]:
            argv = [*argv, "--out", str(tmp_path / "o")]
        assert main(["--strict-rank", *argv, "--input", str(path)]) == 3
        suffix = "; strict mode refuses rank-deficient X"
        assert capsys.readouterr().err == f"numerical guard: {text}{suffix}\n"


class TestRefusedArguments:
    """A negative seed, a sweep of no pairs, an SVD tolerance outside
    [0, 1), a global flag the command does not read and an output path that
    collides with an existing one are usage errors: exit 2, an error line,
    and no file written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "-1", "generate", "--setting", "ii", "--out", "s.csv"],
            ["--seed", "-1", "bench", "--out", "b.csv"],
            ["bench", "--seed", "-5", "--settings", "ii"],
            ["--seed", "7", "bench", "--m", "0", "--out", "b.csv"],
            ["bench", "--out", "b.csv"],
            ["generate", "--setting", "ii", "--out", "s.csv"],
            ["--seed", "3", "bench", "--k-values", "1..3,2", "--settings", "i", "--methods", "a"],
            ["--seed", "3", "bench", "--settings", "i,i", "--methods", "a"],
            ["--seed", "3", "bench", "--methods", "a,b,a", "--out", "b.csv"],
            ["--seed", "7", "bench", "--settings", ",", "--out", "e.csv"],
            # bench and generate draw their data from the seed alone
            ["--seed", "7", "--svd-tol", "0.5", "--strict-rank", "bench", "--out", "tol.csv"],
            ["bench", "--seed", "7", "--strict-rank", "--out", "b.csv"],
            ["--seed", "7", "generate", "--setting", "ii", "--svd-tol", "0.5", "--out", "s.csv"],
            ["--strict-rank", "--seed", "7", "generate", "--setting", "ii", "--out", "s.csv"],
            # an empty --out counts as not given, and generate requires one
            ["--seed", "7", "generate", "--setting", "ii", "--out", ""],
        ],
    )
    def test_seed_and_pairs(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_is_named(self, tmp_path, monkeypatch, capsys):
        # generate requires an output file, and the refusal names the empty
        # value given, not the working directory it would resolve to
        monkeypatch.chdir(tmp_path)
        assert main(["--seed", "7", "generate", "--setting", "ii", "--out", ""]) == 2
        assert capsys.readouterr().err == "error: output path '' cannot be written: it is empty\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["seed = -1\n", "seed = 7\nm = 0\n", "seed = 7\noutput =\n"])
    def test_seed_and_pairs_in_config(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(text + "output = out/b.csv\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("tol", ["nan", "-1", "1", "2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--method", "optimal", "--rank", "3"],
            ["fit", "--method", "exact"],
            ["modes", "--rank", "3"],
            ["simulate", "--rank", "3", "--horizon", "5"],
            ["validate"],
        ],
    )
    def test_svd_tol(self, toy_csv, tmp_path, capsys, monkeypatch, argv, tol):
        # a NaN tolerance used to read as rank 0 and exit 3 with a
        # misleading rank message; a negative one passed unnoticed. It is
        # refused before the snapshot file is read.
        read = []
        monkeypatch.setattr(lrdmd.cli, "load_snapshots", read.append)
        out = [] if argv[0] == "validate" else ["--out", str(tmp_path / "out")]
        assert main([*argv, "--input", str(toy_csv), "--svd-tol", tol, *out]) == 2
        assert capsys.readouterr().err.startswith("error: tol must lie in [0, 1), got ")
        assert list(tmp_path.iterdir()) == [] and read == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fit", "--method", "optimal"], "--rank is required"),
            (["fit", "--method", "truncated", "--rank", "0"], "rank must be >= 1"),
            (["modes"], "--rank is required"),
            (["modes", "--rank", "0"], "rank must be >= 1"),
            (["modes", "--rank", "3", "--horizon", "0"], "horizon must be >= 1"),
            (["simulate", "--horizon", "5"], "--rank is required"),
            (["simulate", "--rank", "0", "--horizon", "5"], "rank must be >= 1"),
            (["simulate", "--rank", "3", "--horizon", "0"], "horizon must be >= 1"),
            (["simulate", "--rank", "3", "--horizon", "5", "--stride", "0"], "stride must be >= 1"),
            # the commands that read snapshots draw no random numbers
            (["--seed", "3", "fit", "--method", "exact"], "fit does not read --seed"),
            (["modes", "--seed", "3", "--rank", "3"], "modes does not read --seed"),
            (["simulate", "--rank", "3", "--horizon", "5", "--seed", "0"],
             "simulate does not read --seed"),
            (["validate", "--seed", "3"], "validate does not read --seed"),
            # the exact fit reads no k, so no manifest may record one
            (["fit", "--method", "exact", "--rank", "3"],
             "fit --method exact does not read --rank; leave it out"),
        ],
    )
    def test_flags_before_the_read(self, toy_csv, tmp_path, capsys, monkeypatch, argv, message):
        # every flag error, like a bad tolerance, is found before the
        # snapshot file is read
        read = []
        monkeypatch.setattr(lrdmd.cli, "load_snapshots", read.append)
        out = [] if "validate" in argv else ["--out", str(tmp_path / "out")]
        assert main([*argv, "--input", str(toy_csv), *out]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == [] and read == []

    @pytest.mark.parametrize(
        "argv, out, reason",
        [
            (["fit", "--method", "optimal", "--rank", "3"], "file", "file is not a directory"),
            (["modes", "--rank", "3"], "file", "file is not a directory"),
            (["simulate", "--rank", "3", "--horizon", "5"], "file", "file is not a directory"),
            (["fit", "--method", "exact"], "file/out", "file is not a directory"),
            (["--seed", "7", "generate", "--setting", "ii"], "dir", "dir is a directory"),
            (["--seed", "7", "bench"], "dir", "dir is a directory"),
            (["--seed", "7", "bench"], "file/b.csv", "file is not a directory"),
        ],
    )
    def test_out_collides(self, toy_csv, tmp_path, capsys, monkeypatch, argv, out, reason):
        # a file where an output directory goes, a directory where an
        # output file goes, or a path under a file, is refused before the
        # input is read, the data are drawn or the sweep runs; the existing
        # path is left as it was
        calls = []
        for name in ("load_snapshots", "generate_toy_operator", "run_benchmark"):
            monkeypatch.setattr(lrdmd.cli, name, lambda *a, **k: calls.append(a))
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        if argv[0] in ("fit", "modes", "simulate"):
            argv = [*argv, "--input", str(toy_csv)]
        assert main([*argv, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output path {tmp_path / out} cannot be written: {tmp_path}/{reason}\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert (tmp_path / "file").read_text() == "kept\n"
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize(
        "argv, default",
        [
            (["fit", "--method", "optimal", "--rank", "3"], "fit_out"),
            (["modes", "--rank", "3"], "modes_out"),
            (["simulate", "--rank", "3", "--horizon", "5"], "simulate_out"),
        ],
    )
    def test_empty_out_is_the_default(self, toy_csv, tmp_path, capsys, monkeypatch, argv, default):
        # --out "" counts as not given: the command writes to its default
        # directory, checked for a collision like any other, and nothing
        # goes to the working directory
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--input", str(toy_csv), "--out", ""]
        (tmp_path / default).write_text("kept\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: output path {default} cannot be written: {default} is not a directory\n"
        (tmp_path / default).unlink()
        assert main(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == [default]
        manifest = json.loads((tmp_path / default / "manifest.json").read_text())
        assert manifest["parameters"]["out"] == default

    def test_zero_svd_tol_is_valid(self, toy_csv, tmp_path):
        out = tmp_path / "out"
        argv = ["fit", "--method", "optimal", "--rank", "3", "--svd-tol", "0"]
        assert main([*argv, "--input", str(toy_csv), "--out", str(out)]) == 0
        assert (out / "summary.csv").read_text().splitlines()[-1] == "svd_tol,0.0"


class TestWrittenFiles:
    """Output CSVs read back through np.loadtxt to the library's arrays, bit
    for bit: cells are shortest round-trip reprs, complex values re,im pairs."""

    RANK = 3

    @pytest.fixture(scope="class")
    def library(self, small_csv):
        snaps = load_snapshots(small_csv)
        op, factors = fit_optimal_lowrank_dmd(snaps, self.RANK)
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
        assert lines[0] == "setting,method,k,residual,companion_residual"
        assert len(lines) == 1 + 3 * 3 * 4
        assert (tmp_path / "results.csv.manifest.json").exists()

    def test_manifest_records_the_environment(self, tmp_path):
        # what the CSV bytes depend on beyond the parameters: numpy, its
        # BLAS, the BLAS thread variables and the CPU count
        out = tmp_path / "results.csv"
        argv = ["--seed", "3", "bench", "--n", "8", "--r", "3", "--m", "5", "--out", str(out)]
        assert main(argv) == 0
        env = json.loads((tmp_path / "results.csv.manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert env["threads"] == {name: os.environ.get(name) for name in names}
        blas = env["blas"]
        assert blas is None or (set(blas) == {"name", "version"} and blas["name"])

    def test_no_timing_runs_are_byte_identical(self, tmp_path):
        # a row holds results only, no timing: two runs write the same bytes
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
            assert main([*argv, "--out", str(out)]) == 0
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

    def test_config_run_reproduced_from_its_manifest(self, tmp_path, monkeypatch):
        # the manifest records the resolved configuration and its seed: the
        # flags rebuilt from it give the same CSV, byte for byte
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b.cfg").write_text("seed = 11\nn = 20\nm = 8\nr = 5\nk_values = 1..3\n")
        assert main(["bench", "--config", "b.cfg", "--out", "r.csv"]) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        params = manifest["parameters"]
        assert manifest["seed"] == params["seed"] == 11
        assert params == {
            "n": 20, "r": 5, "m": 8, "settings": ["i", "ii", "iii"], "methods": ["a", "b", "c"],
            "k_values": [1, 2, 3], "seed": 11, "output": "r.csv",
        }
        flags = ["--seed", str(manifest["seed"]), "bench", "--out", "again.csv"]
        for name in ("n", "r", "m", "settings", "methods", "k_values"):
            value = params[name]
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags += ["--" + name.replace("_", "-"), text]
        assert main(flags) == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()

    def test_flags_override_config_then_validate(self, tmp_path):
        # m = 60 in the file is valid with --n 100; it used to be refused
        # against the file's default n = 50 before the flag applied
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("m = 60\nk_values = 1..2\nsettings = ii\n")
        runs = {
            "file": ["bench", "--config", str(cfg), "--n", "100"],
            "flags": ["bench", "--n", "100", "--m", "60", "--k-values", "1..2", "--settings", "ii"],
        }
        written = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main(["--seed", "7", *argv, "--out", str(out)]) == 0
            written[name] = out.read_bytes()
        assert written["file"] == written["flags"]
        assert len(written["file"].splitlines()) == 1 + 3 * 2

    @pytest.mark.parametrize(
        "line, flags",
        [
            ("n = 100", ["--n", "100"]),
            ("r = 5", ["--r", "5"]),
            ("m = 8", ["--m", "8"]),
            ("settings = iii, ,i", ["--settings", "iii, ,i"]),
            ("methods = c,a", ["--methods", "c,a"]),
            ("k_values = 1..3,7", ["--k-values", "1..3,7"]),
            ("seed = 11", ["--seed", "11"]),
            ("output = sweep.csv", ["--out", "sweep.csv"]),
        ],
    )
    def test_each_field_same_from_file_and_flag(self, tmp_path, monkeypatch, line, flags):
        monkeypatch.chdir(tmp_path)
        seen = []

        def record(cfg):
            seen.append(cfg)
            return ()

        monkeypatch.setattr(lrdmd.cli, "run_benchmark", record)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(line + "\n")
        assert main(["bench", "--config", str(cfg)]) == 0
        assert main(["bench", *flags]) == 0
        assert seen[0] == seen[1] != BenchConfig()

    def test_seed_required(self, tmp_path):
        code = main(["bench", "--n", "8", "--r", "3", "--m", "5", "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("k_values", ["1,x", "40..1"])
    def test_bad_k_values_are_usage_errors(self, tmp_path, capsys, k_values):
        out = tmp_path / "r.csv"
        args = ["--seed", "7", "bench", "--k-values", k_values, "--out", str(out)]
        assert main(args) == 2
        # a flag's value has no path:line prefix, unlike a config file's
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad value for" not in err
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

    def test_timing_switch_refused(self, tmp_path, monkeypatch, capsys):
        # the sweep records no timing, so neither --no-timing nor a
        # measure_time key has an effect: both are usage errors (exit 2)
        # that write nothing
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as caught:
            main(["--seed", "7", "bench", "--no-timing", "--out", "x.csv"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --no-timing" in capsys.readouterr().err
        cfg = tmp_path / "timing.cfg"
        cfg.write_text("seed = 7\nmeasure_time = false\n")
        assert main(["bench", "--config", str(cfg), "--out", "x.csv"]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown config key 'measure_time'\n"
        assert list(tmp_path.iterdir()) == [cfg]


class TestMainCalls:
    def test_calls_share_the_parser_and_no_state(self, setting_i_data, tmp_path, capsys):
        assert lrdmd.cli.build_parser() is lrdmd.cli.build_parser()
        # a global flag of one call does not reach the next
        generate = ["generate", "--setting", "ii", "--n", "8", "--r", "3", "--m", "5"]
        assert main(["--seed", "4", *generate, "--out", str(tmp_path / "a.csv")]) == 0
        assert main([*generate, "--out", str(tmp_path / "b.csv")]) == 2
        assert "a seed is required" in capsys.readouterr().err
        path = tmp_path / "setting_i.csv"
        save_snapshots(setting_i_data, path)
        fit = ["fit", "--input", str(path), "--method", "exact"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            assert main(["--strict-rank", *fit, "--out", str(tmp_path / "strict")]) == 3
            assert main([*fit, "--out", str(tmp_path / "lenient")]) == 0
            assert main(["--svd-tol", "0.5", *fit, "--out", str(tmp_path / "coarse")]) == 0
            assert main([*fit, "--out", str(tmp_path / "default")]) == 0
        tols = [
            json.loads((tmp_path / name / "manifest.json").read_text())["parameters"]["svd_tol"]
            for name in ("coarse", "default")
        ]
        assert tols == [0.5, DEFAULT_TOL]

    def test_warning_is_one_line(self, setting_i_data, tmp_path):
        # the library's warning, printed by a fresh lrdmd process, names no
        # source file; main leaves the process's warning format as it was
        path = tmp_path / "deficient.csv"
        save_snapshots(setting_i_data, path)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(lrdmd.cli.__file__).parent.parent)
        run = subprocess.run(
            [sys.executable, "-m", "lrdmd.cli", "fit", "--input", str(path), "--method", "exact",
             "--out", str(tmp_path / "fit")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0
        assert run.stderr == (
            "warning: RankDeficiencyWarning: X is numerically rank-deficient (rank 18 < m=40)\n"
        )
        default = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            assert main(["fit", "--input", str(path), "--method", "exact",
                         "--out", str(tmp_path / "again")]) == 0
        assert warnings.formatwarning is default


def argv_from_manifest(record) -> list:
    """The argv of a run rebuilt from its manifest alone: the command, then
    each recorded parameter as its flag, a switch that is set as the flag
    alone and one that is not left out."""
    argv = [record["command"]]
    for name, value in record["parameters"].items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, str(value)]
    return argv


class TestRerunFromManifest:
    """A run of fit, modes, simulate or generate is reproduced from its
    manifest alone: the argv rebuilt from it writes the same CSVs, byte for
    byte, and the same manifest but for its timestamp. (bench has its own
    test in TestBench; validate writes no file, hence no manifest.)"""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--method", "optimal", "--rank", "3"],
            ["fit", "--method", "exact", "--svd-tol", "1e-10"],
            ["--strict-rank", "fit", "--method", "projected", "--rank", "4"],
            ["simulate", "--rank", "3", "--horizon", "20"],
            ["simulate", "--rank", "3", "--horizon", "20", "--path", "modal", "--stride", "7",
             "--theta", "theta.csv"],
            ["modes", "--rank", "4", "--variant", "as-stated", "--theta", "theta.csv",
             "--horizon", "12", "--svd-tol", "1e-10"],
        ],
    )
    def test_outputs_reproduced(self, toy_csv, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "snaps.csv").write_bytes(toy_csv.read_bytes())
        (tmp_path / "theta.csv").write_text(",".join(["0.5"] * 50) + "\n")
        out = tmp_path / "run"
        assert main([*argv, "--input", "snaps.csv", "--out", "run"]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        record = json.loads(first.pop("manifest.json"))
        assert first and all(name.endswith(".csv") for name in first)
        for path in out.iterdir():
            path.unlink()
        out.rmdir()
        assert main(argv_from_manifest(record)) == 0
        again = {p.name: p.read_bytes() for p in out.iterdir()}
        rerun = json.loads(again.pop("manifest.json"))
        assert again == first
        del record["timestamp"], rerun["timestamp"]
        assert rerun == record

    def test_generate_reproduced(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["--seed", "5", "generate", "--setting", "iii", "--n", "12", "--r", "4",
                "--m", "9", "--out", "snaps.csv"]
        assert main(argv) == 0
        manifest = tmp_path / "snaps.csv.manifest.json"
        first, record = (tmp_path / "snaps.csv").read_bytes(), json.loads(manifest.read_text())
        for path in tmp_path.iterdir():
            path.unlink()
        assert main(argv_from_manifest(record)) == 0
        assert (tmp_path / "snaps.csv").read_bytes() == first
        rerun = json.loads(manifest.read_text())
        del record["timestamp"], rerun["timestamp"]
        assert rerun == record


class TestLapackBreakdown:
    """A LAPACK breakdown (here a monkeypatched routine that raises numpy's
    LinAlgError) is a numerical guard: exit 3, one ``numerical guard:``
    line, no traceback and no output. So is a Cholesky Gram that overflows,
    on data near 1e160, which is refused before LAPACK sees it."""

    @pytest.mark.parametrize(
        "argv, routine",
        [
            (["fit", "--method", "optimal", "--rank", "3"], "svd"),
            (["validate"], "svd"),
            # outside qr_factor and thin_svd, main maps numpy's error itself
            (["modes", "--rank", "3"], "eig"),
        ],
    )
    def test_exit_3(self, toy_csv, tmp_path, capsys, monkeypatch, argv, routine):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{routine} did not converge")

        monkeypatch.setattr(np.linalg, routine, broken)
        out = [] if argv == ["validate"] else ["--out", str(tmp_path / "out")]
        assert main([*argv, "--input", str(toy_csv), *out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("numerical guard: ") and line.endswith(f"{routine} did not converge")
        assert list(tmp_path.iterdir()) == []

    def test_overflowed_gram(self, tmp_path):
        # a fresh lrdmd process, so that any warning reaches its stderr
        path = tmp_path / "walk.csv"
        steps = np.random.default_rng(8).standard_normal((1, 41, 400))
        save_snapshots(SnapshotSet(states=np.cumsum(steps, axis=1) * 1e160), path)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(lrdmd.cli.__file__).parent.parent)
        run = subprocess.run(
            [sys.executable, "-m", "lrdmd.cli", "fit", "--input", str(path), "--method", "optimal",
             "--rank", "3", "--out", str(tmp_path / "fit")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 3 and run.stdout == ""
        assert run.stderr == (
            "numerical guard: the Gram matrix of a 400-by-41 matrix overflows: its entries are "
            "too large to square\n"
        )
        assert not (tmp_path / "fit").exists()
