"""Every SnapshotSet holds one read-only snapshot array, given as states or
built from explicit X and Y (DataMatrices), and is factored where it lies,
with no X, Y or concatenated copy of them."""

import tracemalloc
import warnings

import numpy as np
import pytest

import lrdmd.solvers
from lrdmd.cli import main
from lrdmd.errors import RankDeficiencyWarning, ValidationError
from lrdmd.modes import compute_modes
from lrdmd.snapshots import DataMatrices, SnapshotSet, load_snapshots, save_snapshots
from lrdmd.solvers import factorize, residual_norm


def trajectories(seed, count, steps, n=60):
    """(count, steps, n) states of noisy trajectories of a stable linear map."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) / (1.5 * np.sqrt(n))
    states = np.empty((count, steps, n))
    states[:, 0] = rng.standard_normal((count, n))
    for t in range(1, steps):
        states[:, t] = states[:, t - 1] @ G.T + 0.1 * rng.standard_normal((count, n))
    return states


def periodic_states():
    """One trajectory that revisits its states: rank-deficient X and Y."""
    cycle = np.random.default_rng(4).standard_normal((30, 3))
    return cycle[:, [0, 1, 2, 0, 1, 2, 0, 1]].T[None].copy()


def explicit(states):
    """The same pairs as explicit X and Y, trajectory-major."""
    n = states.shape[2]
    return DataMatrices(X=states[:, :-1].reshape(-1, n).T, Y=states[:, 1:].reshape(-1, n).T)


def random_walk():
    """Four random walks of 16 steps in R^300."""
    return np.cumsum(np.random.default_rng(0).standard_normal((4, 16, 300)), axis=1)


TRAJECTORY_CASES = {
    # name: (states, whether one factorization serves X and Y)
    "one-trajectory": (lambda: trajectories(1, 1, 21), True),
    "four-trajectories": (lambda: trajectories(2, 4, 6), True),
    "pairs-above-gate": (lambda: trajectories(3, 12, 2, n=40), False),
    "three-steps-above-gate": (lambda: trajectories(5, 4, 3), False),
    "repeated-state": (periodic_states, True),
}


@pytest.fixture
def count_pair_copies(monkeypatch):
    """Reads of d.X (0) and d.Y (1) of any SnapshotSet, DataMatrices
    included, that copy its snapshot array: a read that is a view of the
    array is not counted."""
    calls = []
    for lag, name in enumerate("XY"):
        read = getattr(SnapshotSet, name).fget

        def counted(d, lag=lag, read=read):
            M = read(d)
            if not np.shares_memory(M, d.states):
                calls.append(lag)
            return M

        monkeypatch.setattr(SnapshotSet, name, property(counted))
    return calls


class TestOneSnapshotArray:
    def test_loaded_states_are_held_as_they_are(self, tmp_path):
        path = tmp_path / "s.csv"
        save_snapshots(SnapshotSet(states=trajectories(1, 3, 7, n=5)), path)
        snaps = load_snapshots(path)
        assert not snaps.states.flags.writeable
        assert SnapshotSet(states=snaps.states).states is snaps.states

    def test_writeable_states_are_copied_once(self):
        states = trajectories(1, 3, 7, n=5)
        want = states.copy()
        d = SnapshotSet(states=states)
        assert d.states is not states and not d.states.flags.writeable
        states[:] = 0.0
        assert np.array_equal(d.states, want)

    def test_read_only_view_of_writeable_data_is_copied(self):
        states = trajectories(1, 3, 7, n=5)
        view = states[:]
        view.flags.writeable = False
        d = SnapshotSet(states=view)
        assert not np.shares_memory(d.states, states)

    def test_copy_is_checked(self):
        # non-finite states are refused at construction, whether they are
        # copied (writeable) or held as they are (read-only)
        for writeable in (True, False):
            states = trajectories(1, 3, 7, n=5)
            states[1, 2, 3] = np.nan
            states.flags.writeable = writeable
            with pytest.raises(ValidationError, match="^snapshots contain non-finite values$"):
                SnapshotSet(states=states)

    def test_x_and_y_built_on_demand(self, count_pair_copies):
        states = trajectories(2, 4, 6, n=5)
        d = SnapshotSet(states=states)
        assert (d.n, d.m) == (5, 20)
        assert count_pair_copies == []
        X, Y = d.X, d.Y
        assert count_pair_copies == [0, 1]
        assert np.array_equal(X, states[:, :-1].reshape(-1, 5).T)
        assert np.array_equal(Y, states[:, 1:].reshape(-1, 5).T)
        for M in (X, Y):
            assert not M.flags.writeable
        # not kept: the snapshot array is the one copy d holds
        assert d.X is not X and vars(d).keys() == {"states", "_factorization"}

    def test_read_only(self):
        d = SnapshotSet(states=trajectories(2, 2, 3, n=4))
        with pytest.raises(AttributeError):
            d.states = None

    @pytest.mark.parametrize("case", TRAJECTORY_CASES)
    def test_norm_of_y(self, case):
        states = TRAJECTORY_CASES[case][0]()
        d = SnapshotSet(states=states)
        want = np.linalg.norm(explicit(states).Y)
        assert abs(d.norm_y - want) <= 1e-15 * want

    @pytest.mark.parametrize("case", TRAJECTORY_CASES)
    def test_factored_where_it_lies(self, case, monkeypatch, count_pair_copies):
        make, shared = TRAJECTORY_CASES[case]
        d = SnapshotSet(states=make())
        seen = []
        original = lrdmd.solvers.qr_factor

        def recorded(M, **kwargs):
            seen.append((M.shape, np.shares_memory(M, d.states)))
            return original(M, **kwargs)

        monkeypatch.setattr(lrdmd.solvers, "qr_factor", recorded)
        N, T, n = d.states.shape
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            fac = factorize(d)
        fac.fit("optimal", 1), fac.fit("exact"), fac.fit("projected", 1)
        # a view of the snapshot array wherever its layout allows one: all
        # N T states, or X and Y of two-snapshot trajectories
        if shared:
            assert seen == [((n, N * T), True)]
            assert count_pair_copies == []
        else:
            # X and Y, each copied at most once, when no view can serve
            view = T == 2
            assert seen == [((n, d.m), view), ((n, d.m), view)]
            assert count_pair_copies == ([] if view else [0, 1])


class TestSameFitsAsExplicitData:
    """Explicit X and Y of the same trajectories, trajectory-major, chain
    into the same snapshot array, so their fits agree with those of the
    snapshot-built data (bit for bit: TestExplicitPairs)."""

    @pytest.mark.parametrize("case", TRAJECTORY_CASES)
    def test_fits_agree(self, case):
        states = TRAJECTORY_CASES[case][0]()
        snap, ref = SnapshotSet(states=states), explicit(states)
        tol = 1e-14 * np.linalg.norm(ref.Y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            got, want = factorize(snap), factorize(ref)
        assert (got.rank_x, got.rank_y) == (want.rank_x, want.rank_y)
        X = ref.X

        def applied(op):
            return op.left @ (op.right @ X)

        assert np.abs(applied(got.fit("exact")) - applied(want.fit("exact"))).max() <= tol
        for k in range(1, want.rank_y + 1):
            a, b = got.fit("optimal", k), want.fit("optimal", k)
            assert np.abs(applied(a) - applied(b)).max() <= tol, k
            assert abs(residual_norm(a, snap) - residual_norm(b, ref)) <= tol, k
            assert abs(got.certified_residual(k) - want.certified_residual(k)) <= tol, k
            for fit in ("truncated", "projected"):
                a_k, b_k = got.fit(fit, k), want.fit(fit, k)
                assert np.abs(applied(a_k) - applied(b_k)).max() <= tol, (fit, k)
            # eigenvalues and unit-norm modes are scale-free
            ma, mb = compute_modes(a), compute_modes(b)
            assert np.abs(ma.eigenvalues - mb.eigenvalues).max() <= 1e-13, k
            assert np.abs(ma.modes - mb.modes).max() <= 1e-13, k

    @pytest.mark.parametrize("case", [*TRAJECTORY_CASES, "random-walk"])
    def test_factors_agree(self, case):
        # every fit sets its column signs on the lifted n-row left factor,
        # so the factors do not depend on which columns were factored
        states = random_walk() if case == "random-walk" else TRAJECTORY_CASES[case][0]()
        snap, ref = SnapshotSet(states=states), explicit(states)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            got, want = factorize(snap), factorize(ref)
        k = min(5, want.rank_y)
        for fit in ("exact", "truncated", "projected", "optimal"):
            a, b = (f.fit(fit, k) for f in (got, want))
            for x, y in ((a.left, b.left), (a.right, b.right)):
                assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max(), fit

    def test_unlinked_residual_reads_the_snapshots(self):
        # an operator made by hand is evaluated through its factors, on X
        # and Y as views or copies of the snapshot array
        for case in TRAJECTORY_CASES:
            states = TRAJECTORY_CASES[case][0]()
            snap, ref = SnapshotSet(states=states), explicit(states)
            rng = np.random.default_rng(0)
            op = lrdmd.solvers.DmdOperator(
                left=rng.standard_normal((ref.n, 2)), right=rng.standard_normal((2, ref.n)),
            )
            want = np.linalg.norm(ref.Y - op.left @ (op.right @ ref.X))
            assert abs(residual_norm(op, snap) - want) <= 1e-14 * want


def unequal_trajectories():
    """Pairs of a trajectory of 5 states followed by one of 4."""
    states = trajectories(8, 1, 9)[0]
    X = np.column_stack([states[:4].T, states[5:8].T])
    Y = np.column_stack([states[1:5].T, states[6:9].T])
    return X, Y


def shuffled_pairs(d):
    """d's X and Y with their columns in one random order."""
    order = np.random.default_rng(9).permutation(d.m)
    return d.X[:, order], d.Y[:, order]


class TestExplicitPairs:
    """DataMatrices(X=..., Y=...) holds the pairs as one snapshot array: the
    trajectories they chain into, when all have one length, else m
    trajectories of two states."""

    @pytest.mark.parametrize("case", TRAJECTORY_CASES)
    def test_trajectory_major_pairs_are_the_snapshots(self, case):
        states = TRAJECTORY_CASES[case][0]()
        snap, ref = SnapshotSet(states=states), explicit(states)
        assert np.array_equal(ref.states, states) and ref.states.flags.c_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            got, want = factorize(snap), factorize(ref)
        assert (got.rank_x, got.rank_y, got.span_defect) == (want.rank_x, want.rank_y,
                                                             want.span_defect)
        k = want.rank_y
        for fit in ("exact", "truncated", "projected", "optimal"):
            a, b = (f.fit(fit, k) for f in (got, want))
            assert np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right), fit
            if fit != "exact":
                assert np.array_equal(got.residual_curve(fit), want.residual_curve(fit)), fit
        assert got.certified_residual(k) == want.certified_residual(k)
        assert snap.norm_y == ref.norm_y

    @pytest.mark.parametrize("make", [
        unequal_trajectories,
        # trajectory-major pairs out of order
        lambda: shuffled_pairs(explicit(trajectories(2, 4, 6))),
    ], ids=["unequal-lengths", "shuffled"])
    def test_unchained_pairs_are_two_state_trajectories(self, make):
        X, Y = make()
        d = DataMatrices(X=X, Y=Y)
        n, m = X.shape
        assert d.states.shape == (m, 2, n)
        assert np.array_equal(d.X, X) and np.array_equal(d.Y, Y)

    def test_x_and_y_are_the_callers_bit_for_bit(self):
        # -0.0 == 0.0, but a successor that differs from the next
        # predecessor only in the sign of a zero does not chain
        d = explicit(trajectories(3, 2, 4, n=6))
        X, Y = d.X.copy(order="F"), d.Y.copy(order="F")
        X[2, 1], Y[2, 0] = 0.0, -0.0
        d = DataMatrices(X=X, Y=Y)
        assert d.states.shape == (6, 2, 6)
        for got, want in ((d.X, X), (d.Y, Y)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        X[2, 1] = -0.0
        assert DataMatrices(X=X, Y=Y).states.shape == (2, 4, 6)

    def test_chain_checked_in_every_row_block(self, row_block):
        # pairs that chain in every row but the last are not one trajectory
        states = np.random.default_rng(14).standard_normal((7, 6))
        X, Y = states[:, :-1], states[:, 1:].copy()
        assert DataMatrices(X=X, Y=Y).states.shape == (1, 6, 7)
        Y[-1, 2] += 1.0
        d = DataMatrices(X=X, Y=Y)
        assert d.states.shape == (5, 2, 7)
        assert np.array_equal(d.X, X) and np.array_equal(d.Y, Y)


class TestCommandsBuildNoPairs:
    @pytest.mark.parametrize("steps", [2, 9])
    def test_fit_modes_simulate(self, tmp_path, count_pair_copies, steps):
        path = tmp_path / "s.csv"
        save_snapshots(SnapshotSet(states=trajectories(6, 5, steps, n=30)), path)
        rank = ["--rank", "3"]
        commands = [
            ["fit", "--method", "optimal", *rank],
            ["fit", "--method", "truncated", *rank],
            ["fit", "--method", "projected", *rank],
            ["fit", "--method", "exact"],
            ["modes", *rank],
            ["modes", "--variant", "as-stated", *rank],
            ["simulate", *rank, "--horizon", "20"],
            ["simulate", *rank, "--horizon", "20", "--path", "modal"],
            ["validate"],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            for i, argv in enumerate(commands):
                out = [] if argv[0] == "validate" else ["--out", str(tmp_path / f"o{i}")]
                assert main([*argv, "--input", str(path), *out]) == 0, argv
        assert count_pair_copies == []


class TestMemory:
    """factorize, then optimal(k), on snapshot-built data keeps one copy of
    the snapshots and the one n-row basis Q1 beside it, at c = N T columns:
    2x the snapshot bytes for a caller's writeable array (copied once), 1x
    for a read-only one, which is held as it is (not counted: allocated
    before tracing starts). The rest is the c-by-c cores a Factorization
    caches, about ten of them at c^2 doubles each, 0.05x apiece at
    c / n = 1/20, and the fit's two n-by-k factors; 0.75x covers both. The
    copies of X and Y, and of [X, last states], took 4.2x."""

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("count", [1, 4])
    def test_peak_at_4000_by_200(self, count, read_only):
        states = np.random.default_rng(1).standard_normal((count, 200 // count, 4000))
        states.flags.writeable = not read_only
        tracemalloc.start()
        try:
            factorize(SnapshotSet(states=states)).fit("optimal", 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (1.75 if read_only else 2.75) * states.nbytes
        assert peak <= bound, peak / states.nbytes
