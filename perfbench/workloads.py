"""The benchmark's four workloads.

Each workload makes its inputs from the seed (``setup``), computes the
independent references its checks need (``prepare``, untimed), and yields
one round of operations. Every operation's output is checked against
``reference`` or against a property its method must have; copies of
earlier output are never used as the expected answer.
"""

import contextlib
import csv
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import reference as ref

F1 = "F1 rank-deficient-X"
F2 = "F2 wide-refused"

# Tolerances, relative to ||Y||_F or to the scale named at each use.
RESIDUAL_TOL = 1e-9
EIGENPAIR_TOL = 1e-8
TRAJECTORY_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output failed the named check."""

    def __init__(self, check: str, detail: str = ""):
        super().__init__(f"{check}: {detail}" if detail else check)
        self.check = check


def require(ok, check: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(check, detail)


def require_close(got: float, want: float, tol: float, check: str) -> None:
    require(abs(got - want) <= tol, check, f"got {got!r}, want {want!r} within {tol:.3g}")


def require_rank(L, R, k: int, check: str = "rank-bound") -> None:
    require(
        L.ndim == 2 and R.ndim == 2 and L.shape[1] == R.shape[0] and L.shape[1] <= k,
        check,
        f"factor shapes {L.shape} x {R.shape} do not give rank <= {k}",
    )


def require_minimizer(L, R, X, curve: ref.OptimumCurve, k: int, tol: float) -> None:
    """The rank-k minimizer is unique when sigma_k > sigma_k+1 of Y V_r, as
    on every input here, so the fitted operator must act on the data as the
    reference minimizer does. The residual alone cannot show a small error
    in the operator: it is stationary at the optimum."""
    gap = float(np.linalg.norm(L @ (R @ X) - curve.fitted(k)))
    require(gap <= tol, "operator-vs-reference", f"||(A - A_k) X|| = {gap:.3e} > {tol:.3e}")


def require_states(got, want, check: str) -> None:
    """Each row (one time step) matches within TRAJECTORY_TOL of its own
    largest entry, so a decayed late state is held to its own scale."""
    got = np.asarray(got)
    require(got.shape == want.shape, check, f"shape {got.shape}, want {want.shape}")
    scale = np.maximum(np.abs(want).max(axis=-1, keepdims=True), 1e-300)
    excess = np.abs(got - want) / scale
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
    require(excess[worst] <= TRAJECTORY_TOL, check,
            f"relative deviation {excess[worst]:.3e} at row {worst[0]}")


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` judges its output.

    ``fault`` names a known program fault this operation exposes, and
    ``signatures`` lists the failure signatures ("check:<name>" or
    "error:<Type>") by which that fault shows.
    """

    name: str
    run: object
    check: object
    fault: str | None = None
    signatures: tuple = ()


def classify(op: Op, exc: Exception):
    """(cause, known) for a failed operation."""
    if isinstance(exc, CheckFailed):
        sig = f"check:{exc.check}"
    else:
        sig = f"error:{type(exc).__name__}"
    if op.fault and sig in op.signatures:
        return op.fault, True
    return f"{sig}: {exc}"[:300], False


def quiet_cli(lib, argv):
    """lrdmd.cli.main in process, its printed output captured; returns
    (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main([str(a) for a in argv])
    return code, err.getvalue()


def require_exit_zero(result, command: str) -> None:
    code, err = result
    require(code == 0, "exit-code", f"{command} exited {code}: {err.strip()[-200:]}")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def pair_matrices(states: np.ndarray):
    """Predecessor/successor matrices of (N, T, n) trajectories, trajectory-major."""
    n = states.shape[2]
    return states[:, :-1].reshape(-1, n).T.copy(), states[:, 1:].reshape(-1, n).T.copy()


def low_rank_trajectories(rng, n, trajectories, steps, rank, noise):
    """Trajectories of x <- U M U^T x + noise * w with U n-by-rank orthonormal
    and M a block rotation with radii in [0.75, 0.98]; the operator is only
    ever applied in factored form. The process noise keeps X of full
    column rank."""
    U, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    M = np.zeros((rank, rank))
    for b in range(0, rank - 1, 2):
        radius, angle = rng.uniform(0.75, 0.98), rng.uniform(0.05, 1.0)
        c, s = radius * np.cos(angle), radius * np.sin(angle)
        M[b : b + 2, b : b + 2] = [[c, -s], [s, c]]
    if rank % 2:
        M[-1, -1] = rng.uniform(0.75, 0.98)
    states = np.empty((trajectories, steps, n))
    states[:, 0] = rng.standard_normal((trajectories, n))
    for t in range(1, steps):
        states[:, t] = ((states[:, t - 1] @ U) @ M.T) @ U.T
        states[:, t] += noise * rng.standard_normal((trajectories, n))
    return states


class Workload:
    name = ""
    # percentile reported as op_tail_ms; chosen so that a run of the
    # default length leaves at least ten samples beyond it
    tail_pct = 90.0

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.csv_read = 0
        self.csv_written = 0

    def setup(self) -> None:
        """Input generation and the input files the workload reads (timed)."""

    def prepare(self) -> None:
        """References for the checks (untimed)."""

    def round(self) -> list:
        raise NotImplementedError


class CliFiles(Workload):
    """fit, modes and simulate through lrdmd.cli.main on a tall snapshot CSV."""

    name = "cli-files"
    tail_pct = 80.0
    N_STATE = 3000
    TRAJECTORIES = 4
    STEPS = 16  # m = 4 * 15 = 60 snapshot pairs
    DYN_RANK = 8
    NOISE = 1e-2
    RANK = 8
    MODES_HORIZON = 20
    SIM_HORIZON = 400
    SIM_STRIDE = 20

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        states = low_rank_trajectories(
            rng, self.N_STATE, self.TRAJECTORIES, self.STEPS, self.DYN_RANK, self.NOISE
        )
        self.states = states
        self.input = self.workdir / "snapshots.csv"
        self.lib.save_snapshots(self.lib.SnapshotSet(states=states), self.input)

    def prepare(self):
        X, Y = pair_matrices(self.states)
        self.X, self.Y = X, Y
        self.curve = ref.OptimumCurve(X, Y)
        self.L, self.R = self.curve.operator(self.RANK)
        self.a_norm = ref.frobenius(self.L, self.R)
        self.theta = self.states[0, 0]
        self.trajectory = ref.full_recursion(
            self.L, self.R, self.theta, self.SIM_HORIZON, self.SIM_STRIDE
        )
        self.input_bytes = self.input.stat().st_size

    def _cli_op(self, name, argv, out_dir, check):
        def run():
            return quiet_cli(self.lib, [*argv, "--out", out_dir])

        def checked(result):
            require_exit_zero(result, name)
            self.csv_read += self.input_bytes
            self.csv_written += dir_bytes(out_dir)
            check(out_dir)

        return Op(name, run, checked)

    def round(self):
        k, inp = self.RANK, self.input
        return [
            self._cli_op(
                "fit",
                ["fit", "--input", inp, "--method", "optimal", "--rank", k],
                self.workdir / "fit",
                self.check_fit,
            ),
            self._cli_op(
                "modes",
                ["modes", "--input", inp, "--rank", k, "--horizon", self.MODES_HORIZON],
                self.workdir / "modes",
                self.check_modes,
            ),
            self._cli_op(
                "simulate",
                ["simulate", "--input", inp, "--rank", k, "--horizon", self.SIM_HORIZON,
                 "--stride", self.SIM_STRIDE],
                self.workdir / "simulate",
                self.check_simulate,
            ),
        ]

    def check_fit(self, out: Path):
        L = np.loadtxt(out / "left.csv", delimiter=",", ndmin=2)
        R = np.loadtxt(out / "right.csv", delimiter=",", ndmin=2)
        require_rank(L, R, self.RANK)
        tol = RESIDUAL_TOL * self.curve.norm_y
        want = self.curve.residual(self.RANK)
        require_close(ref.residual(L, R, self.X, self.Y), want, tol, "optimal-vs-reference")
        require_minimizer(L, R, self.X, self.curve, self.RANK, tol)
        with (out / "summary.csv").open() as fh:
            summary = dict(csv.reader(fh))
        require_close(float(summary["residual"]), want, tol, "summary-residual")

    def check_modes(self, out: Path):
        lam = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        lam = lam[:, 0] + 1j * lam[:, 1]
        cols = np.loadtxt(out / "modes.csv", delimiter=",", skiprows=1, ndmin=2)
        modes = cols[:, 0::2] + 1j * cols[:, 1::2]
        require(0 < lam.size <= self.RANK and modes.shape == (self.N_STATE, lam.size),
                "mode-shapes", f"{lam.size} eigenvalues, modes {modes.shape}")
        worst = float(ref.eigen_residuals(self.L, self.R, lam, modes).max())
        require(worst <= EIGENPAIR_TOL * self.a_norm, "eigenpairs",
                f"max residual {worst:.3e} > {EIGENPAIR_TOL:g} * ||A||_F = {self.a_norm:.3e}")
        amp = np.loadtxt(out / "amplitudes.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        amp = amp[:, 0::2] + 1j * amp[:, 1::2]
        want = ref.amplitude_schedule(lam, modes, self.theta, self.MODES_HORIZON)
        require_states(amp, want, "amplitudes")
        with (out / "eigenpair_residuals.csv").open() as fh:
            passed = [row["passed"] for row in csv.DictReader(fh)]
        require(passed and all(p == "True" for p in passed), "eigenpair-report", str(passed))

    def check_simulate(self, out: Path):
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        times = np.arange(1, self.SIM_HORIZON + 1, self.SIM_STRIDE)
        require(np.array_equal(rows[:, 0], times), "trajectory-times", f"{rows[:3, 0]}")
        require_states(rows[:, 1:], self.trajectory, "trajectory")


@dataclass
class FitCase:
    """One in-memory dataset with its reference optimum curve."""

    name: str
    data: object
    curve: ref.OptimumCurve
    theta: np.ndarray
    ranks: tuple = ()

    @property
    def tol(self) -> float:
        return RESIDUAL_TOL * self.curve.norm_y


class TallFit(Workload):
    """All four fitters on two tall in-memory datasets, and after each
    optimal fit the modes, amplitudes and long-horizon trajectories."""

    name = "tall-fit"
    tail_pct = 80.0
    N_STATE = 8000
    PAIRS = 100
    # simulate_full costs O(n) interpreted work per step today, so its
    # horizon is shorter than that of the O(k^2)-per-step reduced recursion
    REDUCED_HORIZON = 1000
    REDUCED_STRIDE = 50
    FULL_HORIZON = 50
    FULL_STRIDE = 5

    def setup(self):
        n, m = self.N_STATE, self.PAIRS
        rng = np.random.default_rng([self.seed, 2])
        # well conditioned: 4 noisy trajectories of a rank-20 stable system
        states = low_rank_trajectories(rng, n, 4, m // 4 + 1, 20, 1e-2)
        well_x, well_y = pair_matrices(states)
        # ill conditioned: independent pairs through a symmetric operator
        # whose spectrum falls geometrically from 0.99 to 0.99e-10, so the
        # spectrum of Y crosses the Gram noise floor (1e-6 relative) near
        # k = 60 and stays above the rank threshold (1e-12) throughout
        U, _ = np.linalg.qr(rng.standard_normal((n, m)))
        spectrum = 0.99 * 10.0 ** (-10.0 * np.arange(m) / (m - 1))
        ill_x = rng.standard_normal((n, m))
        ill_y = U @ (spectrum[:, None] * (U.T @ ill_x))
        DataMatrices = self.lib.DataMatrices
        self.datasets = {
            "well": (DataMatrices(X=well_x, Y=well_y), (5, 10, 20, 40)),
            "ill": (DataMatrices(X=ill_x, Y=ill_y), (10, 40, 70, 90)),
        }

    def prepare(self):
        self.cases = [
            FitCase(name, d, ref.OptimumCurve(d.X, d.Y), d.X[:, 0].copy(), ranks)
            for name, (d, ranks) in self.datasets.items()
        ]

    FITTERS = {"truncated": "fit_truncated_exact_dmd", "projected": "fit_projected_dmd",
               "exact": "fit_exact_dmd"}

    def round(self):
        ops = []
        for case in self.cases:
            for k in case.ranks:
                ops.append(Op(f"{case.name}/optimal/{k}", partial(self.run_optimal, case, k),
                              partial(self.check_optimal, case, k)))
                for method in ("truncated", "projected"):
                    ops.append(Op(f"{case.name}/{method}/{k}",
                                  partial(self.run_fit, method, case, k),
                                  partial(check_baseline_fit, case, k)))
            ops.append(Op(f"{case.name}/exact", partial(self.run_fit, "exact", case),
                          partial(check_exact_fit, case)))
        return ops

    def run_optimal(self, case, k):
        lib = self.lib
        op, factors = lib.fit_optimal_lowrank_dmd(case.data, k)
        res = lib.residual_norm(op, case.data)
        modes = lib.compute_modes(factors)
        report = lib.verify_eigenpairs(modes, op)
        amps = lib.amplitudes(modes, case.theta, self.REDUCED_HORIZON)
        reduced = lib.simulate_reduced(factors, case.theta, self.REDUCED_HORIZON,
                                       stride=self.REDUCED_STRIDE)
        full = lib.simulate_full(op, case.theta, self.FULL_HORIZON, stride=self.FULL_STRIDE)
        return op, factors, res, modes, report, amps, reduced, full

    def check_optimal(self, case, k, out):
        check_optimal_fit(case, k, out, (self.REDUCED_HORIZON, self.REDUCED_STRIDE),
                          (self.FULL_HORIZON, self.FULL_STRIDE))

    def run_fit(self, method, case, *rank):
        op = getattr(self.lib, self.FITTERS[method])(case.data, *rank)
        return op, self.lib.residual_norm(op, case.data)


def check_optimal_fit(case: FitCase, k: int, out, reduced_steps, full_steps) -> None:
    """reduced_steps and full_steps are the (horizon, stride) of the two
    simulations; amplitudes run over the reduced horizon."""
    op, factors, res, modes, report, amps, reduced, full = out
    require_rank(op.left, op.right, k)
    X, Y = case.data.X, case.data.Y
    evaluated = ref.residual(op.left, op.right, X, Y)
    require_close(evaluated, case.curve.residual(k), case.tol, "optimal-vs-reference")
    require_minimizer(op.left, op.right, X, case.curve, k, case.tol)
    require_close(res, evaluated, case.tol, "residual-norm")
    a_norm = ref.frobenius(op.left, op.right)
    worst = float(ref.eigen_residuals(op.left, op.right, modes.eigenvalues, modes.modes).max())
    require(worst <= EIGENPAIR_TOL * a_norm, "eigenpairs",
            f"max residual {worst:.3e} > {EIGENPAIR_TOL:g} * ||A||_F = {a_norm:.3e}")
    require(report.all_passed, "eigenpair-report", f"max {report.max_residual:.3e}")
    want = ref.amplitude_schedule(modes.eigenvalues, modes.modes, case.theta, reduced_steps[0])
    require_states(amps.values, want, "amplitudes")
    require_states(reduced.states,
                   ref.reduced_recursion(factors.P, factors.Q, case.theta, *reduced_steps),
                   "reduced-trajectory")
    require_states(full.states,
                   ref.full_recursion(op.left, op.right, case.theta, *full_steps),
                   "full-trajectory")


def check_exact_fit(case: FitCase, out) -> None:
    op, res = out
    require_rank(op.left, op.right, case.curve.rank_x)
    evaluated = ref.residual(op.left, op.right, case.data.X, case.data.Y)
    # the unconstrained least-squares fit leaves exactly the span defect
    require_close(evaluated, case.curve.defect, case.tol, "exact-equals-defect")
    require_close(res, evaluated, case.tol, "residual-norm")


def check_baseline_fit(case: FitCase, k: int, out) -> None:
    op, res = out
    require_rank(op.left, op.right, k)
    evaluated = ref.residual(op.left, op.right, case.data.X, case.data.Y)
    require(evaluated >= case.curve.residual(k) - case.tol, "baseline-above-optimum",
            f"{evaluated!r} < optimum {case.curve.residual(k)!r}")
    require_close(res, evaluated, case.tol, "residual-norm")


class RankSweep(Workload):
    """``lrdmd bench`` on the reference study, one CLI call per operation."""

    name = "rank-sweep"
    tail_pct = 75.0
    SETTINGS = ("i", "ii", "iii")
    K_MAX = 40

    def setup(self):
        self.program_seed = int(np.random.default_rng([self.seed, 3]).integers(1, 2**31))
        self.config = self.workdir / "bench.cfg"
        self.config.write_text(
            "n = 50\nr = 30\nm = 40\nsettings = i,ii,iii\nmethods = a,b,c\n"
            f"k_values = 1..{self.K_MAX}\nseed = {self.program_seed}\n"
        )

    def prepare(self):
        toybench = self.lib.toybench
        cfg = toybench.BenchConfig(seed=self.program_seed)
        self.curves = {}
        for s in self.SETTINGS:
            d = toybench.benchmark_data(cfg, s)
            self.curves[s] = ref.OptimumCurve(d.X, d.Y)

    def round(self):
        out_csv = self.workdir / "sweep" / "results.csv"

        def run():
            return quiet_cli(self.lib, ["bench", "--config", self.config, "--out", out_csv])

        def check(result):
            require_exit_zero(result, "bench")
            self.csv_read += self.config.stat().st_size
            self.csv_written += dir_bytes(out_csv.parent)
            with out_csv.open() as fh:
                check_sweep_rows(list(csv.DictReader(fh)), self.curves, self.K_MAX)

        return [Op("bench", run, check)]


def check_sweep_rows(rows, curves, k_max: int) -> None:
    """The sweep CSV is complete, has no NaN residual, its optimal method
    meets the reference and dominates both baselines at every k."""
    table = {}
    for row in rows:
        value = float(row["residual"])
        require(np.isfinite(value), "no-nan", f"{row}")
        table[(row["setting"], row["method"], int(row["k"]))] = value
    expected = {(s, m, k) for s in curves for m in ("a", "b", "c") for k in range(1, k_max + 1)}
    require(set(table) == expected and len(rows) == len(expected), "complete",
            f"{len(rows)} rows, {len(expected)} expected")
    for s, curve in curves.items():
        tol = RESIDUAL_TOL * curve.norm_y
        for k in range(1, k_max + 1):
            a = table[(s, "a", k)]
            require_close(a, curve.residual(k), tol, "optimal-vs-reference")
            for m in ("b", "c"):
                require(a <= table[(s, m, k)] + tol, "optimal-dominates",
                        f"setting {s} k={k}: a={a!r} > {m}={table[(s, m, k)]!r}")


class AlsOracle(Workload):
    """The closed form cross-checked by alternating least squares."""

    name = "als-oracle"
    tail_pct = 80.0
    DRAWS = 2  # 6x4 problems per round, each at k = 1, 2, 3
    RESTARTS = 20
    ITERS = 200

    def setup(self):
        rng = np.random.default_rng([self.seed, 4])
        DataMatrices = self.lib.DataMatrices
        self.cases = []
        for i in range(self.DRAWS):
            d = DataMatrices(X=rng.standard_normal((6, 4)), Y=rng.standard_normal((6, 4)))
            for k in (1, 2, 3):
                self.cases.append((f"6x4/{i}/k{k}", d, k, int(rng.integers(2**31)), None))
        # Fixed inputs, independent of the seed: each exposes one known fault
        # on every draw, so the failed share of a run never depends on it.
        fixed = np.random.default_rng(2017)
        rank_deficient = DataMatrices(
            X=fixed.standard_normal((12, 4)) @ fixed.standard_normal((4, 8)),
            Y=fixed.standard_normal((12, 8)),
        )
        wide = DataMatrices(X=fixed.standard_normal((6, 10)), Y=fixed.standard_normal((6, 10)))
        self.cases.append(("12x8-rank4/k2", rank_deficient, 2, 11, F1))
        self.cases.append(("6x10-wide/k2", wide, 2, 12, F2))

    def prepare(self):
        self.curves = [ref.OptimumCurve(d.X, d.Y) for _, d, _, _, _ in self.cases]

    def round(self):
        signatures = {
            F1: ("check:optimal-vs-reference", "check:closed-form-not-beaten"),
            F2: ("error:ValidationError",),
        }
        return [
            Op(name, partial(self.run_case, d, k, als_seed), partial(check_als, d, k, curve),
               fault, signatures.get(fault, ()))
            for (name, d, k, als_seed, fault), curve in zip(self.cases, self.curves)
        ]

    def run_case(self, d, k, als_seed):
        # ALS runs whether or not the closed form succeeds, so the cost of
        # an operation does not depend on which faults are mended
        lib = self.lib
        try:
            fit, error = lib.fit_optimal_lowrank_dmd(d, k)[0], None
        except lib.LowRankDmdError as exc:
            fit, error = None, exc
        als = lib.als_lowrank_fit(d.X, d.Y, k, restarts=self.RESTARTS, iters=self.ITERS,
                                  seed=als_seed)
        if error is not None:
            raise error
        return fit, als


def check_als(d, k, curve, out) -> None:
    fit, (objective, L, R) = out
    tol = RESIDUAL_TOL * curve.norm_y
    require_rank(fit.left, fit.right, k)
    closed = ref.residual(fit.left, fit.right, d.X, d.Y)
    require_close(closed, curve.residual(k), tol, "optimal-vs-reference")
    require_minimizer(fit.left, fit.right, d.X, curve, k, tol)
    require_rank(L, R, k, "als-rank-bound")
    require_close(objective, ref.residual(L, R, d.X, d.Y), tol, "als-objective")
    require(objective >= curve.residual(k) - tol, "als-above-optimum",
            f"ALS {objective!r} < optimum {curve.residual(k)!r}")
    require(closed <= objective + tol, "closed-form-not-beaten",
            f"closed form {closed!r} > ALS {objective!r}")


WORKLOADS = {w.name: w for w in (CliFiles, TallFit, RankSweep, AlsOracle)}
