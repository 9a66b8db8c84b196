"""Trajectory snapshot containers, CSV ingestion, and the paired
predecessor/successor data matrices consumed by the solvers.

Snapshot CSV format: header ``traj_id,t,x0,x1,...,x{n-1}``, one row per
(trajectory, time) pair. Trajectory ids are 1..N and time indices 1..T;
rows may appear in any order but must tile the complete N-by-T grid.
The body is parsed by numpy's C parser (read_numeric_rows) and checked
array-at-a-time. Every numeric CSV the package writes goes through
write_csv_rows, which writes each float as its shortest round-trip repr.
"""

import csv
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SnapshotFormatError, ValidationError


@dataclass(frozen=True)
class SnapshotSet:
    """N trajectories of T state vectors in R^n, stored as (N, T, n)."""

    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.float64)
        if s.ndim != 3:
            raise ValidationError("states must have shape (N, T, n)")
        N, T, n = s.shape
        if N < 1:
            raise ValidationError("need at least one trajectory")
        if T < 2:
            raise ValidationError("need at least two snapshots per trajectory")
        if n < 1:
            raise ValidationError("state dimension must be positive")
        if not np.all(np.isfinite(s)):
            raise ValidationError("snapshots contain non-finite values")
        object.__setattr__(self, "states", s)

    @property
    def n(self) -> int:
        return self.states.shape[2]

    @property
    def num_trajectories(self) -> int:
        return self.states.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.states.shape[1]

    def initial_condition(self, traj: int = 0) -> np.ndarray:
        """First state of the given trajectory (default: trajectory 1)."""
        return self.states[traj, 0].copy()


# Rows taken at a time by the loops over the n rows of the data (the chain
# check of DataMatrices, and in solvers and modes residual_norm, the part of
# Y outside X's basis, the eigenpair check and the column pivots): blocks of
# a few hundred rows stay in cache, and no n-row temporary is formed.
_ROW_BLOCK = 256


class DataMatrices:
    """Aligned n-by-m snapshot matrices: column j of Y succeeds column j of X.

    A DataMatrices holds one read-only (N, T, n) snapshot array, ``states``:
    X gathers states 1..T-1 of every trajectory and Y states 2..T,
    trajectory-major, so m = N (T - 1). build_data_matrices fills it from a
    SnapshotSet. ``DataMatrices(X=..., Y=...)`` refuses non-finite entries
    and copies the pairs into it once: as N trajectories of T states when
    they chain trajectory-major into trajectories of one length (column j
    of Y is column j + 1 of X inside each trajectory), else as m
    trajectories of two states. Either way its pairs are exactly X and Y.
    d.X and d.Y are read from the array at each access (see pairs), and
    the solvers factor the array itself (see solvers.factorize).

    The data cannot change, so the object keeps the one Factorization that
    solvers.factorize last built for it (see there), and exactly as long
    as itself: a fitted DataMatrices keeps its n-row bases alive, about its
    own size again (twice that when X and Y are factored apart).
    """

    def __init__(self, X, Y):
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2 or X.shape != Y.shape:
            raise ValidationError("X and Y must be matrices of identical shape")
        if X.size == 0:
            raise ValidationError(f"X and Y must be non-empty, not {X.shape[0]}x{X.shape[1]}")
        for name, M in (("X", X), ("Y", Y)):
            if not np.all(np.isfinite(M)):
                raise ValidationError(f"{name} contains non-finite values")
        self._hold(_trajectories_of(X, Y))

    def _hold(self, states: np.ndarray) -> None:
        """Hold a finite, read-only, C-ordered (N, T, n) array as it is."""
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_factorization", None)

    def __setattr__(self, name, value):
        raise AttributeError("DataMatrices is read-only")

    @property
    def n(self) -> int:
        return self.states.shape[2]

    @property
    def m(self) -> int:
        N, T, _ = self.states.shape
        return N * (T - 1)

    @property
    def X(self) -> np.ndarray:
        return self._lagged(0)

    @property
    def Y(self) -> np.ndarray:
        return self._lagged(1)

    def pairs(self) -> tuple:
        """(X, Y) as read-only n-by-m matrices: views of the snapshot array
        where its layout allows (one trajectory, or two states each), else
        one F-ordered copy each, made at every call and not kept."""
        return self._lagged(0), self._lagged(1)

    def _lagged(self, lag: int) -> np.ndarray:
        """States lag+1 .. lag+T-1 of every trajectory as the columns of an
        n-by-m matrix: X for lag 0, Y for lag 1."""
        N, T, n = self.states.shape
        M = self.states[:, lag : lag + T - 1].reshape(-1, n).T
        M.flags.writeable = False
        return M

    @property
    def norm_y(self) -> float:
        """||Y||_F, summed state by state from the snapshot array."""
        later = self.states[:, 1:]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", later, later).sum()))


def _trajectories_of(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The read-only (N, T, n) snapshot array whose pairs are exactly the
    finite n-by-m X and Y, made in one copy.

    The pairs chain where column j of Y is column j + 1 of X, bit for bit,
    which is checked block by block of rows. When the chains cut them into
    N runs of one length T - 1, the array holds N trajectories of T states;
    otherwise m trajectories of two states.
    """
    n, m = X.shape
    chained = np.ones(m - 1, dtype=bool)
    for r in range(0, n, _ROW_BLOCK):
        if not chained.any():
            break
        rows = slice(r, r + _ROW_BLOCK)
        chained &= np.all(Y[rows, :-1].view(np.uint64) == X[rows, 1:].view(np.uint64), axis=0)
    starts = np.flatnonzero(~chained) + 1
    steps = int(starts[0]) if starts.size else m
    if m % steps or not np.array_equal(starts, np.arange(steps, m, steps)):
        steps = 1
    states = np.empty((m // steps, steps + 1, n))
    states[:, :-1] = X.T.reshape(-1, steps, n)
    states[:, -1] = Y[:, steps - 1 :: steps].T
    states.flags.writeable = False
    return states


def _frozen(a: np.ndarray) -> bool:
    """Whether nothing can write into a's data: a is read-only, and so is
    every array and buffer it views."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    try:
        return a is None or memoryview(a).readonly
    except TypeError:
        return False


def build_data_matrices(s: SnapshotSet) -> DataMatrices:
    """Pair each snapshot with its time successor, trajectory by trajectory.

    X gathers states 1..T-1 of every trajectory and Y states 2..T, so
    m = (T-1)*N columns, ordered trajectory-major. The DataMatrices holds
    one read-only (N, T, n) array: s.states itself when it is C-ordered
    and nothing can write into it (load_snapshots hands over such an
    array), else one checked copy of it.
    """
    states = s.states
    if not (_frozen(states) and states.flags.c_contiguous):
        states = np.array(states, dtype=np.float64, order="C")
        if not np.all(np.isfinite(states)):
            raise ValidationError("snapshots contain non-finite values")
        states.flags.writeable = False
    d = DataMatrices.__new__(DataMatrices)
    d._hold(states)
    return d


@dataclass(frozen=True)
class RankReport:
    """Numerical-rank diagnostics for a pair of data matrices.

    The solvers accept any shape and rank. When X lacks full column rank
    (always so when m > n) they fit through its rank-r part and warn, and
    strict mode refuses; optimal fits are capped at the rank of Y V_x,
    which is that of Y when X has full column rank. The report tells the
    caller which case applies, so they can decide whether to proceed, use
    strict mode, or reduce the target rank.
    """

    n: int
    m: int
    rank_x: int
    rank_y: int
    tol: float

    @classmethod
    def from_factorization(cls, fac) -> "RankReport":
        """The ranks of X and Y from a solvers.Factorization, at its tol:
        from the SVD of R_x and the singular values of R_y."""
        return cls(n=fac.n, m=fac.m, rank_x=fac.rank_x, rank_y=fac.rank_of_y, tol=fac.tol)

    @property
    def m_within_n(self) -> bool:
        return self.m <= self.n

    @property
    def full_rank(self) -> bool:
        return self.rank_x == self.m and self.rank_y == self.m

    def lines(self):
        return [
            f"n (state dimension)      : {self.n}",
            f"m (snapshot pairs)       : {self.m}",
            f"numerical rank of X      : {self.rank_x}",
            f"numerical rank of Y      : {self.rank_y}",
            f"tolerance (rel. to s_max): {self.tol:g}",
            f"m <= n                   : {self.m_within_n}",
            f"rank(X) = rank(Y) = m    : {self.full_rank}",
        ]


def _parse_header(header):
    if len(header) < 3 or header[0] != "traj_id" or header[1] != "t":
        raise SnapshotFormatError(
            "expected header 'traj_id,t,x0,...', got: " + ",".join(header[:4])
        )
    for j, name in enumerate(header[2:]):
        if name != f"x{j}":
            raise SnapshotFormatError(f"expected state column 'x{j}', got '{name}'")
    return len(header) - 2


def read_numeric_rows(source, converters=None) -> np.ndarray:
    """Parse comma-separated numeric rows with numpy's C parser.

    ``source`` is an open text file or a list of lines. Empty lines are
    skipped; whitespace around a cell is allowed. Returns a 2-D float array
    (0 rows for no input). A cell that is not a number, or a row whose
    width differs from the first row's, raises numpy's ValueError, which
    names the row counted from 0 (bad cell) or from 1 (width change),
    empty lines not counted.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, delimiter=",", ndmin=2, comments=None, converters=converters)


# loadtxt's messages for a bad cell, a width change and a first row too
# narrow for the key converters; read by _row_error.
_BAD_CELL = re.compile(r"(could not convert string .*) at row (\d+), column (\d+)")
_WIDTH_CHANGE = re.compile(r"number of columns changed from (\d+) to (\d+) at row (\d+)")
_NARROW_FIRST_ROW = re.compile(r"invalid for the number of fields (\d+)")


def _line_of_row(path: Path, row: int) -> int:
    """File line number of data row ``row`` (0-based, empty lines skipped,
    as loadtxt skips them); the line it would have without empty lines if
    the file has fewer data rows."""
    with path.open(newline="") as fh:
        fh.readline()
        seen = -1
        for lineno, line in enumerate(fh, start=2):
            if line.strip("\r\n"):
                seen += 1
                if seen == row:
                    return lineno
    return row + 2


def _row_error(path: Path, n: int, exc: ValueError) -> SnapshotFormatError:
    """Translate a loadtxt ValueError into the error naming its file line."""
    msg = str(exc)
    if m := _BAD_CELL.search(msg):
        lineno = _line_of_row(path, int(m[2]))
        return SnapshotFormatError(
            f"{path}:{lineno}: non-numeric cell in column {m[3]} ({m[1]})"
        )
    if m := _WIDTH_CHANGE.search(msg):
        first, width, row = int(m[1]), int(m[2]), int(m[3]) - 1
        if first != n + 2:
            width, row = first, 0
    elif m := _NARROW_FIRST_ROW.search(msg):
        width, row = int(m[1]), 0
    else:
        return SnapshotFormatError(f"{path}: non-numeric cell ({msg})")
    return _width_error(path, n, width, row)


def _width_error(path: Path, n: int, width: int, row: int) -> SnapshotFormatError:
    lineno = _line_of_row(path, row)
    return SnapshotFormatError(f"{path}:{lineno}: expected {n + 2} columns, got {width}")


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot CSV into a SnapshotSet.

    Raises SnapshotFormatError on ragged trajectories, duplicate or missing
    (traj_id, t) keys, inconsistent row widths, or non-numeric cells. Key
    cells must be integers ("1.0" is non-numeric).
    """
    path = Path(path)
    if not path.is_file():
        raise SnapshotFormatError(f"snapshot file not found: {path}")
    with path.open(newline="") as fh:
        first = fh.readline()
        if not first:
            raise SnapshotFormatError(f"empty snapshot file: {path}")
        n = _parse_header([h.strip() for h in next(csv.reader([first]), [])])
        try:
            data = read_numeric_rows(fh, converters={0: int, 1: int})
        except ValueError as exc:
            raise _row_error(path, n, exc) from None
    if data.shape[0] == 0:
        raise SnapshotFormatError(f"no data rows in {path}")
    if data.shape[1] != n + 2:
        raise _width_error(path, n, data.shape[1], 0)
    traj, t = data[:, 0], data[:, 1]
    order = np.lexsort((t, traj))
    keys = data[order, :2]
    repeats = order[1:][np.all(keys[1:] == keys[:-1], axis=1)]
    if repeats.size:
        row = int(repeats.min())
        raise SnapshotFormatError(
            f"{path}:{_line_of_row(path, row)}: duplicate entry for "
            f"traj {int(traj[row])}, t {int(t[row])}"
        )
    traj_ids = np.unique(traj)
    N = traj_ids.size
    if traj_ids[0] != 1 or traj_ids[-1] != N:
        raise SnapshotFormatError(
            f"trajectory ids must be 1..N, got {list(map(int, traj_ids.tolist()))}"
        )
    i = traj.astype(np.intp) - 1
    lengths = np.bincount(i, minlength=N)
    T = int(lengths[0])
    off_grid = np.bincount(i, weights=(t < 1) | (t > T), minlength=N)
    bad = (lengths != T) | (off_grid > 0)
    if bad.any():
        j = int(np.argmax(bad))
        if lengths[j] != T:
            raise SnapshotFormatError(
                f"ragged trajectories: trajectory {j + 1} has {lengths[j]} snapshots, "
                f"trajectory 1 has {T}"
            )
        times = list(map(int, np.sort(t[i == j]).tolist()))
        raise SnapshotFormatError(f"trajectory {j + 1}: time indices must be 1..T, got {times}")
    states = np.empty((N, T, n), dtype=np.float64)
    states[i, t.astype(np.intp) - 1] = data[:, 2:]
    # nothing else holds this array: read-only, build_data_matrices takes
    # it as it is
    states.flags.writeable = False
    return SnapshotSet(states=states)


def write_csv_rows(fh, M: np.ndarray, lead=None) -> None:
    """Write the rows of a 2-D array to ``fh`` as CSV lines.

    Each cell is repr() of a Python float, the shortest string that reads
    back bit-exactly; a complex entry is written as two cells, re then im.
    ``lead``, when given, yields one prefix per row (such as "traj_id,t"),
    written as the leading cell(s). Rows are streamed, not joined in memory.
    """
    M = np.atleast_2d(M)
    if np.iscomplexobj(M):
        M = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64)
    else:
        M = M.astype(np.float64, copy=False)
    cells = (",".join(map(repr, row.tolist())) for row in M)
    if lead is None:
        fh.writelines(f"{c}\n" for c in cells)
    else:
        fh.writelines(f"{p},{c}\n" for p, c in zip(lead, cells))


def save_snapshots(s: SnapshotSet, path) -> None:
    """Write a SnapshotSet as CSV; load_snapshots round-trips it bit-exactly."""
    N, T = s.num_trajectories, s.num_snapshots
    with Path(path).open("w", newline="") as fh:
        fh.write("traj_id,t," + ",".join(f"x{j}" for j in range(s.n)) + "\n")
        keys = (f"{i + 1},{t + 1}" for i in range(N) for t in range(T))
        write_csv_rows(fh, s.states.reshape(N * T, s.n), keys)
