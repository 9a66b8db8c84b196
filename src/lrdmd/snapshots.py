"""Trajectory snapshot containers, CSV ingestion, and the paired
predecessor/successor data matrices consumed by the solvers.

Snapshot CSV format: header ``traj_id,t,x0,x1,...,x{n-1}``, one row per
(trajectory, time) pair. Trajectory ids are 1..N and time indices 1..T;
rows may appear in any order but must tile the complete N-by-T grid.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SnapshotFormatError, ValidationError
from .linalg import DEFAULT_TOL, thin_svd


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


@dataclass(frozen=True)
class DataMatrices:
    """Aligned n-by-m snapshot matrices: column j of Y succeeds column j of X."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2 or X.shape != Y.shape:
            raise ValidationError("X and Y must be matrices of identical shape")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


def build_data_matrices(s: SnapshotSet) -> DataMatrices:
    """Pair each snapshot with its time successor, trajectory by trajectory.

    X gathers states 1..T-1 of every trajectory and Y states 2..T, so
    m = (T-1)*N columns, ordered trajectory-major.
    """
    # (N, T-1, n) -> (m, n) -> transpose to columns
    X = s.states[:, :-1, :].reshape(-1, s.n).T.copy()
    Y = s.states[:, 1:, :].reshape(-1, s.n).T.copy()
    return DataMatrices(X=X, Y=Y)


@dataclass(frozen=True)
class RankReport:
    """Numerical-rank diagnostics for a pair of data matrices."""

    n: int
    m: int
    rank_x: int
    rank_y: int
    tol: float

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


def validate_rank_assumptions(d: DataMatrices, tol: float = DEFAULT_TOL) -> RankReport:
    """Report the numerical ranks of X and Y; never mutates data.

    The solvers accept any shape and rank. When X lacks full column rank
    (always so when m > n) they fit through its rank-r part and warn, and
    strict mode refuses; optimal fits are capped at the rank of Y V_x,
    which is that of Y when X has full column rank. This diagnostic tells
    the caller which case applies so they can decide whether to proceed,
    use strict mode, or reduce the target rank.
    """
    rank_x = thin_svd(d.X).numerical_rank(tol)
    rank_y = thin_svd(d.Y).numerical_rank(tol)
    return RankReport(n=d.n, m=d.m, rank_x=rank_x, rank_y=rank_y, tol=tol)


def _parse_header(header):
    if len(header) < 3 or header[0] != "traj_id" or header[1] != "t":
        raise SnapshotFormatError(
            "expected header 'traj_id,t,x0,...', got: " + ",".join(header[:4])
        )
    for j, name in enumerate(header[2:]):
        if name != f"x{j}":
            raise SnapshotFormatError(f"expected state column 'x{j}', got '{name}'")
    return len(header) - 2


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot CSV into a SnapshotSet.

    Raises SnapshotFormatError on ragged trajectories, duplicate or missing
    (traj_id, t) keys, inconsistent row widths, or non-numeric cells.
    """
    path = Path(path)
    if not path.is_file():
        raise SnapshotFormatError(f"snapshot file not found: {path}")
    cells = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SnapshotFormatError(f"empty snapshot file: {path}") from None
        n = _parse_header([h.strip() for h in header])
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n + 2:
                raise SnapshotFormatError(
                    f"{path}:{lineno}: expected {n + 2} columns, got {len(row)}"
                )
            try:
                traj = int(row[0])
                t = int(row[1])
                vec = np.array([float(c) for c in row[2:]], dtype=np.float64)
            except ValueError as exc:
                raise SnapshotFormatError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
            if (traj, t) in cells:
                raise SnapshotFormatError(f"{path}:{lineno}: duplicate entry for traj {traj}, t {t}")
            cells[(traj, t)] = vec
    if not cells:
        raise SnapshotFormatError(f"no data rows in {path}")
    traj_ids = sorted({key[0] for key in cells})
    N = len(traj_ids)
    if traj_ids != list(range(1, N + 1)):
        raise SnapshotFormatError(f"trajectory ids must be 1..N, got {traj_ids}")
    lengths = {i: sorted(t for (j, t) in cells if j == i) for i in traj_ids}
    T = len(lengths[1])
    for i in traj_ids:
        if len(lengths[i]) != T:
            raise SnapshotFormatError(
                f"ragged trajectories: trajectory {i} has {len(lengths[i])} snapshots, "
                f"trajectory 1 has {T}"
            )
        if lengths[i] != list(range(1, T + 1)):
            raise SnapshotFormatError(
                f"trajectory {i}: time indices must be 1..T, got {lengths[i]}"
            )
    states = np.empty((N, T, n), dtype=np.float64)
    for (traj, t), vec in cells.items():
        states[traj - 1, t - 1] = vec
    return SnapshotSet(states=states)


def save_snapshots(s: SnapshotSet, path) -> None:
    """Write a SnapshotSet as CSV; load_snapshots round-trips it bit-exactly."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("traj_id,t," + ",".join(f"x{j}" for j in range(s.n)) + "\n")
        for i in range(s.num_trajectories):
            for t in range(s.num_snapshots):
                row = ",".join(repr(float(v)) for v in s.states[i, t])
                fh.write(f"{i + 1},{t + 1},{row}\n")
