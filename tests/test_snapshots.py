import io
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrdmd.errors import RankDeficiencyWarning, SnapshotFormatError, ValidationError
from lrdmd.linalg import DEFAULT_TOL
from lrdmd.snapshots import (
    DataMatrices,
    RankReport,
    SnapshotSet,
    build_data_matrices,
    load_snapshots,
    save_snapshots,
    write_csv_rows,
)
from lrdmd.solvers import factorize, fit_exact_dmd


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadSnapshots:
    def test_minimal_file(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0,x1\n1,1,1,0\n1,2,0,1\n")
        s = load_snapshots(p)
        assert (s.num_trajectories, s.num_snapshots, s.n) == (1, 2, 2)
        assert_allclose(s.states[0], [[1.0, 0.0], [0.0, 1.0]])

    def test_rows_in_any_order(self, tmp_path):
        p = write_csv(
            tmp_path / "s.csv",
            "traj_id,t,x0\n2,2,4\n1,1,1\n2,1,3\n1,2,2\n",
        )
        s = load_snapshots(p)
        assert_allclose(s.states[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_trajectories(self, tmp_path):
        p = write_csv(
            tmp_path / "s.csv",
            "traj_id,t,x0\n1,1,1\n1,2,2\n1,3,3\n2,1,4\n2,2,5\n",
        )
        with pytest.raises(SnapshotFormatError, match="ragged"):
            load_snapshots(p)

    def test_duplicate_key(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n1,1,1\n1,1,2\n1,2,3\n")
        with pytest.raises(SnapshotFormatError, match="duplicate"):
            load_snapshots(p)

    def test_non_contiguous_times(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n1,1,1\n1,3,2\n")
        with pytest.raises(SnapshotFormatError, match="1..T"):
            load_snapshots(p)

    def test_traj_ids_must_start_at_one(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n2,1,1\n2,2,2\n")
        with pytest.raises(SnapshotFormatError, match="1..N"):
            load_snapshots(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n1,1,abc\n1,2,1\n")
        with pytest.raises(SnapshotFormatError, match="non-numeric"):
            load_snapshots(p)

    def test_inconsistent_width(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0,x1\n1,1,1,2\n1,2,3\n")
        with pytest.raises(SnapshotFormatError, match="columns"):
            load_snapshots(p)

    def test_bad_header(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "id,t,x0\n1,1,1\n")
        with pytest.raises(SnapshotFormatError, match="header"):
            load_snapshots(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="not found"):
            load_snapshots(tmp_path / "nope.csv")

    def test_round_trip_bit_exact(self, tmp_path, rng):
        states = rng.standard_normal((3, 4, 5))
        states[0, 0, 0] = 0.1
        states[1, 2, 3] = 1e-17
        states[2, 3, 4] = -1.2345678901234567e300
        states[0, 1, 2] = -0.0
        states[1, 0, 1] = 5e-324
        s = SnapshotSet(states=states)
        path = tmp_path / "round.csv"
        save_snapshots(s, path)
        loaded = load_snapshots(path)
        assert np.array_equal(loaded.states, s.states)
        assert np.array_equal(np.signbit(loaded.states), np.signbit(s.states))


class TestLoaderBehaviour:
    """What the loader accepts and how it reports errors, file line included."""

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"traj_id,t,x0,x1\r\n1,1,1,0\r\n1,2,0,1\r\n")
        assert_allclose(load_snapshots(p).states[0], [[1.0, 0.0], [0.0, 1.0]])

    def test_blank_lines_between_rows(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n1,1,1\n\n1,2,2\n\n\n2,1,3\n2,2,4\n\n")
        assert_allclose(load_snapshots(p).states[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_shuffled_rows_fill_the_same_grid(self, tmp_path, rng):
        s = SnapshotSet(states=rng.standard_normal((3, 5, 4)))
        path = tmp_path / "s.csv"
        save_snapshots(s, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        path.write_text(header + "\n".join(shuffled))
        assert np.array_equal(load_snapshots(path).states, s.states)

    def test_whitespace_around_cells(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id, t ,x0\n 1 , 1 , 1.5 \n1,2,\t-2e-3\n")
        assert_allclose(load_snapshots(p).states[0, :, 0], [1.5, -2e-3])

    @pytest.mark.parametrize("key", ["1.0", "1.5", "abc", ""])
    def test_trajectory_id_must_be_an_integer(self, tmp_path, key):
        p = write_csv(tmp_path / "s.csv", f"traj_id,t,x0\n{key},1,1\n1,2,2\n")
        with pytest.raises(SnapshotFormatError, match="non-numeric"):
            load_snapshots(p)

    def test_time_index_must_be_an_integer(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n1,1,1\n1,2.0,2\n")
        with pytest.raises(SnapshotFormatError, match=r"s\.csv:3: non-numeric"):
            load_snapshots(p)

    def test_float_cells_are_parsed_strictly(self, tmp_path):
        # Python's float() accepts digit separators; the numpy parse does not
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n1,1,1_0\n1,2,2\n")
        with pytest.raises(SnapshotFormatError, match=r"s\.csv:2: non-numeric"):
            load_snapshots(p)

    def test_header_only_file(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n")
        with pytest.raises(SnapshotFormatError, match="no data rows"):
            load_snapshots(p)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "")
        with pytest.raises(SnapshotFormatError, match="empty snapshot file"):
            load_snapshots(p)

    @pytest.mark.parametrize(
        "body,lineno,message",
        [
            # a later row too wide or too narrow, after blank lines
            ("1,1,1,2\n\n1,2,3\n", 4, "expected 4 columns, got 3"),
            ("1,1,1,2\n1,2,3,4,5\n", 3, "expected 4 columns, got 5"),
            # the first row is the wrong one, whatever follows
            ("\n1,1,1\n1,2,3,4\n", 3, "expected 4 columns, got 3"),
            ("1,1,1\n1,2,3\n", 2, "expected 4 columns, got 3"),
            ("5\n1,1,2,3\n", 2, "expected 4 columns, got 1"),
            ("1,1,1,2\n1,2,3,4\n   \n", 4, "expected 4 columns, got 1"),
        ],
    )
    def test_width_error_names_line(self, tmp_path, body, lineno, message):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0,x1\n" + body)
        with pytest.raises(SnapshotFormatError, match=rf"s\.csv:{lineno}: {message}$"):
            load_snapshots(p)

    @pytest.mark.parametrize(
        "body,lineno",
        [
            ("1,1,1\n1,2,abc\n", 3),
            ("1,1,1\n\n\n1,2,1e\n", 5),
            ("1,1,1\r\n\r\n1,2,x\r\n", 4),
            ("1,1,\n1,2,1\n", 2),
        ],
    )
    def test_non_numeric_error_names_line(self, tmp_path, body, lineno):
        p = write_csv(tmp_path / "s.csv", "traj_id,t,x0\n" + body)
        with pytest.raises(SnapshotFormatError, match=rf"s\.csv:{lineno}: non-numeric"):
            load_snapshots(p)

    def test_duplicate_error_names_first_repeat(self, tmp_path):
        # rows 2,1 and 1,2 both repeat; the earlier repeat in the file is named
        p = write_csv(
            tmp_path / "s.csv",
            "traj_id,t,x0\n1,2,1\n2,1,2\n\n2,1,3\n1,2,4\n1,1,5\n2,2,6\n",
        )
        with pytest.raises(
            SnapshotFormatError, match=r"s\.csv:5: duplicate entry for traj 2, t 1$"
        ):
            load_snapshots(p)

    def test_grid_errors(self, tmp_path):
        cases = {
            "traj_id,t,x0\n1,1,1\n1,2,2\n3,1,3\n3,2,4\n": r"ids must be 1\.\.N, got \[1, 3\]$",
            "traj_id,t,x0\n1,1,1\n1,2,2\n2,1,3\n": "trajectory 2 has 1 snapshots, trajectory 1 has 2$",
            "traj_id,t,x0\n1,0,1\n1,1,2\n2,1,3\n2,2,4\n": r"trajectory 1: .* 1\.\.T, got \[0, 1\]$",
            "traj_id,t,x0\n1,1,1\n1,2,2\n2,3,3\n2,1,4\n": r"trajectory 2: .* 1\.\.T, got \[1, 3\]$",
        }
        for text, message in cases.items():
            with pytest.raises(SnapshotFormatError, match=message):
                load_snapshots(write_csv(tmp_path / "s.csv", text))


class TestWriteCsvRows:
    def write(self, M, lead=None):
        fh = io.StringIO()
        write_csv_rows(fh, M, lead)
        return fh.getvalue()

    def test_cells_are_shortest_round_trip_reprs(self):
        values = [0.1, 1e-17, -0.0, 5e-324, -1.2345678901234567e300]
        expected = "0.1,1e-17,-0.0,5e-324,-1.2345678901234567e+300\n"
        assert expected == ",".join(repr(float(v)) for v in values) + "\n"
        assert self.write(np.array([values])) == expected
        assert self.write(np.array(values)) == expected  # a vector is one row

    def test_complex_entries_are_re_im_pairs_in_column_order(self):
        M = np.array([[1 + 2j, complex(-0.5, -0.0)], [0.1j, 3.0 + 1e-300j]])
        assert self.write(M) == "1.0,2.0,-0.5,-0.0\n0.0,0.1,3.0,1e-300\n"
        assert self.write(np.asfortranarray(M)) == self.write(M)

    def test_leading_column(self):
        M = np.array([[1.5, 2.0], [-3.0, 0.25]])
        assert self.write(M, ["1,1", "1,2"]) == "1,1,1.5,2.0\n1,2,-3.0,0.25\n"
        assert self.write(M, map(str, (1, 21))) == "1,1.5,2.0\n21,-3.0,0.25\n"

    def test_snapshot_file_bytes(self, tmp_path):
        states = np.array([[[0.1, -0.0], [5e-324, 2.0]], [[1e-17, 3.0], [-1.0, 1e300]]])
        path = tmp_path / "s.csv"
        save_snapshots(SnapshotSet(states=states), path)
        assert path.read_text() == (
            "traj_id,t,x0,x1\n1,1,0.1,-0.0\n1,2,5e-324,2.0\n2,1,1e-17,3.0\n2,2,-1.0,1e+300\n"
        )


class TestSnapshotSet:
    def test_needs_two_snapshots(self):
        with pytest.raises(ValidationError):
            SnapshotSet(states=np.zeros((1, 1, 3)))

    def test_rejects_non_finite(self):
        states = np.zeros((1, 2, 2))
        states[0, 0, 0] = np.inf
        with pytest.raises(ValidationError):
            SnapshotSet(states=states)

    def test_initial_condition(self, rng):
        s = SnapshotSet(states=rng.standard_normal((2, 3, 4)))
        assert_allclose(s.initial_condition(), s.states[0, 0])
        assert_allclose(s.initial_condition(1), s.states[1, 0])


class TestDataMatrices:
    @pytest.mark.parametrize("name, value", [("X", np.nan), ("Y", np.nan), ("Y", -np.inf)])
    def test_rejects_non_finite(self, name, value, rng):
        M = {"X": rng.standard_normal((6, 3)), "Y": rng.standard_normal((6, 3))}
        M[name][4, 1] = value
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite values"):
            DataMatrices(**M)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_rejects_empty_data(self, shape):
        # every fit of such data used to fail inside numpy, with a raw
        # ValueError from a reduction over an empty array
        with pytest.raises(ValidationError, match="non-empty"):
            DataMatrices(X=np.zeros(shape), Y=np.zeros(shape))

    def test_fitters_never_see_non_finite_data(self, rng):
        # a NaN in Y used to give an exact fit full of NaN, with no error
        X, Y = rng.standard_normal((200, 20)), rng.standard_normal((200, 20))
        Y[17, 3] = np.nan
        with pytest.raises(ValidationError, match="Y"):
            fit_exact_dmd(DataMatrices(X=X, Y=Y))

    def test_own_read_only_c_ordered_copies(self, rng):
        X, Y = np.asfortranarray(rng.standard_normal((5, 3))), rng.standard_normal((5, 3))
        X0, Y0 = X.copy(), Y.copy()
        d = DataMatrices(X=X, Y=Y)
        for M in (d.X, d.Y):
            assert M.flags.c_contiguous and M.flags.owndata and not M.flags.writeable
        X[0, 0], Y[0, 0] = 7.0, 7.0
        assert np.array_equal(d.X, X0) and np.array_equal(d.Y, Y0)

    def test_built_from_snapshots(self, rng):
        d = build_data_matrices(SnapshotSet(states=rng.standard_normal((3, 4, 5))))
        for M in (d.X, d.Y):
            assert M.flags.c_contiguous and not M.flags.writeable


class TestBuildDataMatrices:
    def test_single_trajectory(self):
        a, b, c = [1.0, 0.0], [2.0, 1.0], [3.0, 2.0]
        s = SnapshotSet(states=np.array([[a, b, c]]))
        d = build_data_matrices(s)
        assert_allclose(d.X.T, [a, b])
        assert_allclose(d.Y.T, [b, c])

    def test_two_short_trajectories(self):
        u1, u2, v1, v2 = [1.0], [2.0], [3.0], [4.0]
        s = SnapshotSet(states=np.array([[u1, u2], [v1, v2]]))
        d = build_data_matrices(s)
        assert_allclose(d.X, [[1.0, 3.0]])
        assert_allclose(d.Y, [[2.0, 4.0]])

    def test_reference_scale_column_count(self, rng):
        # one trajectory of 41 states in dimension 50 gives 40 pairs
        s = SnapshotSet(states=rng.standard_normal((1, 41, 50)))
        d = build_data_matrices(s)
        assert d.m == 40 and d.n == 50

    @pytest.mark.parametrize("N,T", [(1, 2), (2, 3), (3, 5)])
    def test_column_count_invariant(self, N, T, rng):
        d = build_data_matrices(SnapshotSet(states=rng.standard_normal((N, T, 4))))
        assert d.m == (T - 1) * N

    @pytest.mark.parametrize("N,T", [(1, 5), (3, 4)])
    def test_pairing_shift(self, N, T, rng):
        # within each trajectory block, predecessors shifted by one step
        # are exactly the previous successors
        d = build_data_matrices(SnapshotSet(states=rng.standard_normal((N, T, 3))))
        for i in range(N):
            block = slice(i * (T - 1), (i + 1) * (T - 1))
            assert np.array_equal(d.X[:, block][:, 1:], d.Y[:, block][:, :-1])


def validate_report(d, tol=DEFAULT_TOL):
    """The report `lrdmd validate` prints, from one factorization of (X, Y);
    a rank-deficient X is part of the diagnosis."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        return RankReport.from_factorization(factorize(d, tol))


def numpy_rank(M, tol=DEFAULT_TOL):
    """Independent reference: numpy's singular values above tol * s_max."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0]))


class TestValidateRankAssumptions:
    def test_duplicated_column_drops_rank(self, rng):
        base = rng.standard_normal((6, 2))
        X = np.column_stack([base, base[:, 0]])
        d = DataMatrices(X=X, Y=rng.standard_normal((6, 3)))
        report = validate_report(d)
        assert report.rank_x == numpy_rank(X) == 2 < d.m
        assert report.rank_y == numpy_rank(d.Y) == 3
        assert not report.full_rank

    def test_orthonormal_columns_full_rank(self):
        X = np.eye(5)[:, :3]
        d = DataMatrices(X=X, Y=np.eye(5)[:, 1:4])
        report = validate_report(d)
        assert report.rank_x == 3 == report.rank_y == d.m
        assert report.full_rank and report.m_within_n

    def test_setting_ii_ranks(self, setting_ii_data):
        # oracle: singular-value counts from numpy's SVD directly
        assert numpy_rank(setting_ii_data.X) == 40
        assert numpy_rank(setting_ii_data.Y) == 30
        report = validate_report(setting_ii_data)
        assert (report.rank_x, report.rank_y) == (40, 30)
        assert report.m_within_n and not report.full_rank

    def test_report_lines(self, rng):
        d = DataMatrices(X=rng.standard_normal((4, 2)), Y=rng.standard_normal((4, 2)))
        lines = validate_report(d).lines()
        assert "numerical rank of X      : 2" in lines
        assert "numerical rank of Y      : 2" in lines
        assert f"tolerance (rel. to s_max): {DEFAULT_TOL:g}" in lines

    def test_wide_data_is_diagnosed_not_rejected(self, rng):
        # more snapshot pairs than dimensions: the diagnostic still runs
        # and flags the violated assumption for the solvers
        d = DataMatrices(X=rng.standard_normal((3, 6)), Y=rng.standard_normal((3, 6)))
        report = validate_report(d)
        assert not report.m_within_n
        assert report.rank_x == numpy_rank(d.X) == 3 < d.m
        assert report.rank_y == numpy_rank(d.Y) == 3

    def test_custom_tolerance(self, rng):
        X = rng.standard_normal((6, 2)) @ np.diag([1.0, 1e-5])
        d = DataMatrices(X=X, Y=rng.standard_normal((6, 2)))
        assert validate_report(d).rank_x == 2
        report = validate_report(d, tol=1e-3)
        assert report.rank_x == numpy_rank(X, 1e-3) == 1 and report.tol == 1e-3
