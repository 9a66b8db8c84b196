"""Trajectory snapshots: the container every fitter takes, its CSV reader
and writer, and the paired predecessor/successor matrices of the data.

Snapshot CSV format: header ``traj_id,t,x0,x1,...,x{n-1}``, one row per
(trajectory, time) pair. Trajectory ids are 1..N and time indices 1..T;
rows may appear in any order but must tile the complete N-by-T grid.
The body is parsed by numpy's C parser (read_numeric_rows) and checked
array-at-a-time. Every CSV the package writes goes through save_csv,
which writes each float as its shortest round-trip repr.
"""

import csv
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import SnapshotFormatError, ValidationError
from .linalg import row_blocks


class SnapshotSet:
    """N trajectories of T state vectors in R^n, held as one read-only,
    C-ordered float64 (N, T, n) array, ``states``, and the snapshot pairs
    that the fitters take: column j of Y succeeds column j of X.

    X gathers states 1..T-1 of every trajectory and Y states 2..T,
    trajectory-major, so m = N (T - 1). ``states`` is the caller's array
    itself when it has that layout and nothing can write into it
    (load_snapshots and generate_snapshots hand over such arrays), else one
    copy of it; either way it is checked once for its shape and for finite
    values. d.X and d.Y are read from the array at each access (see
    _lagged), and the solvers factor the array itself (see
    solvers.factorize).

    The data cannot change, so the object keeps the one Factorization that
    solvers.factorize last built for it (see there), and exactly as long
    as itself: a fitted SnapshotSet keeps its n-row bases alive, about its
    own size again (twice that when X and Y are factored apart).
    """

    def __init__(self, states):
        if not (
            isinstance(states, np.ndarray)
            and states.dtype == np.float64
            and states.flags.c_contiguous
            and _frozen(states)
        ):
            states = np.array(states, dtype=np.float64, order="C")
            states.flags.writeable = False
        if states.ndim != 3:
            raise ValidationError("states must have shape (N, T, n)")
        N, T, n = states.shape
        if N < 1:
            raise ValidationError("need at least one trajectory")
        if T < 2:
            raise ValidationError("need at least two snapshots per trajectory")
        if n < 1:
            raise ValidationError("state dimension must be positive")
        if not np.all(np.isfinite(states)):
            raise ValidationError("snapshots contain non-finite values")
        self._hold(states)

    def _hold(self, states: np.ndarray) -> None:
        """Hold a finite, read-only, C-ordered (N, T, n) array as it is."""
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_factorization", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    @property
    def n(self) -> int:
        return self.states.shape[2]

    @property
    def num_trajectories(self) -> int:
        return self.states.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        N, T, _ = self.states.shape
        return N * (T - 1)

    def initial_condition(self, traj: int = 0) -> np.ndarray:
        """First state of the given trajectory (default: trajectory 1)."""
        return self.states[traj, 0].copy()

    @property
    def X(self) -> np.ndarray:
        return self._lagged(0)

    @property
    def Y(self) -> np.ndarray:
        return self._lagged(1)

    def _lagged(self, lag: int) -> np.ndarray:
        """States lag+1 .. lag+T-1 of every trajectory as the columns of a
        read-only n-by-m matrix, X for lag 0 and Y for lag 1: a view of the
        snapshot array where its layout allows (one trajectory, or two
        states each), else one F-ordered copy, made at every call and not
        kept."""
        N, T, n = self.states.shape
        M = self.states[:, lag : lag + T - 1].reshape(-1, n).T
        M.flags.writeable = False
        return M

    @property
    def norm_y(self) -> float:
        """||Y||_F, summed state by state from the snapshot array."""
        later = self.states[:, 1:]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", later, later).sum()))


class DataMatrices(SnapshotSet):
    """A SnapshotSet made from explicit n-by-m snapshot pairs X and Y.

    ``DataMatrices(X=..., Y=...)`` refuses non-finite entries and copies
    the pairs into one snapshot array: as N trajectories of T states when
    they chain trajectory-major into trajectories of one length (column j
    of Y is column j + 1 of X inside each trajectory), else as m
    trajectories of two states. Either way its pairs are exactly X and Y.
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
    for rows in row_blocks(n):
        if not chained.any():
            break
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
    width differs from the first row's, raises numpy's ValueError.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, delimiter=",", ndmin=2, comments=None, converters=converters)


# The key cells, traj_id and t, must be integers: "1.0" is refused.
_KEY_CELLS = {0: int, 1: int}


def _data_lines(path: Path):
    """(file line number, line) of each data row of a snapshot CSV: every
    line after the header that is not empty, as loadtxt skips only those."""
    with path.open(newline="") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip("\r\n")
            if line:
                yield lineno, line


def _bad_line(path: Path, n: int) -> SnapshotFormatError:
    """The error naming the first data row that has not n + 2 cells or that
    the parser refuses, scanned one line at a time."""
    for lineno, line in _data_lines(path):
        width = line.count(",") + 1
        if width != n + 2:
            return SnapshotFormatError(f"{path}:{lineno}: expected {n + 2} columns, got {width}")
        try:
            read_numeric_rows([line], converters=_KEY_CELLS)
        except ValueError as exc:
            return SnapshotFormatError(f"{path}:{lineno}: non-numeric cell ({exc})")
    return SnapshotFormatError(f"{path}: unreadable data rows")


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
            data = read_numeric_rows(fh, converters=_KEY_CELLS)
        except ValueError:
            data = None
    if data is not None and data.shape[0] == 0:
        raise SnapshotFormatError(f"no data rows in {path}")
    if data is None or data.shape[1] != n + 2:
        raise _bad_line(path, n)
    traj, t = data[:, 0], data[:, 1]
    order = np.lexsort((t, traj))
    keys = data[order, :2]
    repeats = order[1:][np.all(keys[1:] == keys[:-1], axis=1)]
    if repeats.size:
        row = int(repeats.min())
        lineno = next(islice(_data_lines(path), row, None))[0]
        raise SnapshotFormatError(
            f"{path}:{lineno}: duplicate entry for traj {int(traj[row])}, t {int(t[row])}"
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
    # nothing else holds this array: read-only, SnapshotSet holds it as it is
    states.flags.writeable = False
    return SnapshotSet(states=states)


def save_csv(path, rows, header=None, lead=None) -> None:
    """Write a CSV file: the ``header`` line, when given, then the rows.

    ``rows`` is a float or complex array, whose rows are written as they
    are (a vector is one row), or rows of mixed cells. Each float is repr()
    of a Python float, the shortest string that reads back bit-exactly; a
    complex entry is two cells, re then im; any other cell is its str().
    ``lead``, when given, yields one prefix per row (such as "traj_id,t"),
    written as the leading cell(s). Rows are streamed, not joined in memory;
    a row of mixed cells is joined from a list, which str.join takes faster
    than a generator.
    """
    if isinstance(rows, np.ndarray):
        M = np.atleast_2d(rows)
        if np.iscomplexobj(M):
            M = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64)
        else:
            M = M.astype(np.float64, copy=False)
        cells = (",".join(map(repr, row.tolist())) for row in M)
    else:
        cells = (
            ",".join([repr(float(c)) if isinstance(c, float) else str(c) for c in row])
            for row in rows
        )
    with Path(path).open("w", newline="") as fh:
        if header is not None:
            fh.write(header + "\n")
        if lead is None:
            fh.writelines(f"{c}\n" for c in cells)
        else:
            fh.writelines(f"{p},{c}\n" for p, c in zip(lead, cells))


def save_snapshots(s: SnapshotSet, path) -> None:
    """Write a SnapshotSet as CSV; load_snapshots round-trips it bit-exactly."""
    N, T = s.num_trajectories, s.num_snapshots
    header = "traj_id,t," + ",".join(f"x{j}" for j in range(s.n))
    keys = (f"{i + 1},{t + 1}" for i in range(N) for t in range(T))
    save_csv(path, s.states.reshape(N * T, s.n), header, keys)
