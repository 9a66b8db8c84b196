"""Synthetic benchmark: a random low-rank symmetric map drives three
snapshot-generation settings, and every solver is swept over target ranks.

The generator G is a sum of r Gaussian outer products (rank r, symmetric
PSD). Settings:

* ``i``   one long trajectory of the spectrally normalized linear map.
  After r steps the iterates live in range(G), so the successors lie in
  the span of the predecessors (the projected solver's assumption holds;
  companion_residual ~ 0).
* ``ii``  m independent one-step pairs of the unnormalized linear map
  from standard-normal starts. The predecessor columns span a generic
  m-dimensional subspace, which breaks the span assumption.
* ``iii`` like ii but with a cubic state map x -> G(x + x*x*x)
  (elementwise cube), a non-linear system.

Residuals ||Y - A X||_F are recorded per (setting, method, k) into a
plot-ready CSV. Each setting is factorized once, and every row is
evaluated from that factorization's coefficient matrices
(Factorization.residual) without forming the operator. Randomness comes
from numpy's default generator (PCG64, ziggurat normals), recorded in run
metadata; identical config and seed reproduce identical rows.
"""

import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import RankDeficiencyWarning, ValidationError
from .linalg import DEFAULT_TOL
from .snapshots import DataMatrices, SnapshotSet, build_data_matrices
from .solvers import Factorization, factorize

SETTINGS = ("i", "ii", "iii")
METHODS = ("a", "b", "c")  # a: optimal closed form, b: truncated exact, c: projected
FITS = {"a": "optimal", "b": "truncated", "c": "projected"}
RNG_NAME = "numpy default_rng (PCG64)"
RESULT_HEADER = "setting,method,k,residual,companion_residual,wall_time_ms"


@dataclass(frozen=True)
class ToyModel:
    """Random symmetric PSD map G of rank r, built as a sum of r Gaussian
    outer products; `normalization` records the spectral scaling divisor
    already applied (1.0 = none)."""

    G: np.ndarray
    rank: int
    seed: int
    normalization: float = 1.0

    @property
    def n(self) -> int:
        return self.G.shape[0]

    def spectrally_normalized(self) -> "ToyModel":
        """Copy of the model scaled to unit spectral radius.

        Scaling changes iterate magnitudes only, not any of the subspaces
        the solvers see, and keeps long trajectories representable.
        """
        if self.normalization != 1.0:
            return self
        radius = float(np.linalg.eigvalsh(self.G)[-1])
        return ToyModel(
            G=self.G / radius, rank=self.rank, seed=self.seed, normalization=radius
        )


def generate_toy_operator(n: int, r: int, seed: int) -> ToyModel:
    """G = sum of r outer products xi xi^T with standard-normal xi in R^n."""
    if r < 1 or r > n:
        raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
    rng = np.random.default_rng(seed)
    G = np.zeros((n, n))
    for _ in range(r):
        xi = rng.standard_normal(n)
        G += np.outer(xi, xi)
    return ToyModel(G=G, rank=r, seed=seed)


def generate_snapshots(model: ToyModel, setting: str, m: int, seed: int) -> SnapshotSet:
    """Snapshot data for one benchmark setting, m predecessor/successor pairs.

    Setting i produces a single trajectory of length m+1 under the
    spectrally normalized map; settings ii and iii produce m independent
    two-snapshot trajectories of the unnormalized linear and cubic maps.
    """
    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    if m < 1 or m > model.n:
        raise ValidationError(f"need 1 <= m <= n, got m={m}, n={model.n}")
    rng = np.random.default_rng(seed)
    n = model.n
    if setting == "i":
        G = model.spectrally_normalized().G
        states = np.empty((1, m + 1, n))
        states[0, 0] = rng.standard_normal(n)
        for t in range(1, m + 1):
            states[0, t] = G @ states[0, t - 1]
        return SnapshotSet(states=states)
    G = model.G
    starts = rng.standard_normal((m, n))
    states = np.empty((m, 2, n))
    states[:, 0, :] = starts
    if setting == "ii":
        states[:, 1, :] = starts @ G.T
    else:  # iii: cubic map x -> G(x + x*x*x)
        states[:, 1, :] = (starts + starts**3) @ G.T
    return SnapshotSet(states=states)


def companion_residual(d: DataMatrices, tol: float = DEFAULT_TOL) -> float:
    """Span defect ||Y - X X^+ Y||_F / ||Y||_F.

    Zero means every successor column is a linear combination of the
    predecessor columns (the projected solver's modeling assumption);
    values near one mean the successors are mostly outside that span.
    A rank-deficient X is part of the diagnosis, so it raises no warning.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        return _span_defect(factorize(d, tol))


def _span_defect(fac: Factorization) -> float:
    """companion_residual of a factorization: its span defect over ||Y||."""
    norm_y = float(np.linalg.norm(fac.Y))
    return fac.span_defect / norm_y if norm_y else 0.0


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark sweep parameters; defaults reproduce the reference study
    scale (n=50, r=30, m=40, all settings, all methods, k = 1..m)."""

    n: int = 50
    r: int = 30
    m: int = 40
    settings: tuple = SETTINGS
    methods: tuple = METHODS
    k_values: tuple = ()
    seed: int | None = None
    output: str = "bench_results.csv"
    measure_time: bool = True

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if self.m > self.n:
            raise ValidationError(f"need m <= n, got m={self.m}, n={self.n}")
        for s in self.settings:
            if s not in SETTINGS:
                raise ValidationError(f"unknown setting {s!r}")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValidationError(f"unknown method {meth!r}")
        for k in self.k_values:
            if not 1 <= k <= self.m:
                raise ValidationError(f"k values must lie in 1..m, got {k}")

    def ranks(self) -> tuple:
        """The sweep's k values; an empty k_values field means 1..m."""
        return self.k_values or tuple(range(1, self.m + 1))


@dataclass(frozen=True)
class BenchRow:
    setting: str
    method: str
    k: int
    residual: float
    companion_residual: float
    wall_time_ms: float


@dataclass(frozen=True)
class SettingInfo:
    """Per-dataset facts shared by every row of a setting."""

    norm_y: float
    companion_residual: float
    data_seed: int


@dataclass(frozen=True)
class BenchResult:
    rows: tuple
    settings: dict = field(default_factory=dict)

    def rows_for(self, setting: str, method: str):
        return [r for r in self.rows if r.setting == setting and r.method == method]


def data_seed_for(seed: int, setting: str) -> int:
    """Deterministic per-setting data seed (model uses `seed` itself)."""
    return seed + 1 + SETTINGS.index(setting)


def _setting_data(model: ToyModel, cfg: BenchConfig, setting: str) -> DataMatrices:
    snaps = generate_snapshots(model, setting, cfg.m, data_seed_for(cfg.seed, setting))
    return build_data_matrices(snaps)


def benchmark_data(cfg: BenchConfig, setting: str) -> DataMatrices:
    """The exact dataset the sweep uses for one setting of a config."""
    return _setting_data(generate_toy_operator(cfg.n, cfg.r, cfg.seed), cfg, setting)


def run_benchmark(cfg: BenchConfig) -> BenchResult:
    """Sweep every requested (setting, method, k), one dataset per setting.

    The toy model is built once. Each setting's data is factorized once and
    every row is that factorization's residual(fit, k), computed from its
    small coefficient matrices, so wall_time_ms times that evaluation and
    no operator is formed. Rows come out sorted by (setting, method, k).
    Fitter warnings (rank deficiency of X, rank clamps past the numerical
    rank of Y V_x) are expected in the sweep and suppressed; an error, in a
    row or in the setting's data or factorization, is recorded as a NaN
    residual for the rows it affects without aborting the sweep.
    """
    if cfg.seed is None:
        raise ValidationError("a seed is required for a reproducible benchmark run")
    model = generate_toy_operator(cfg.n, cfg.r, cfg.seed)
    rows = []
    settings_info = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for setting in sorted(cfg.settings, key=SETTINGS.index):
            d, fac, comp = None, None, float("nan")
            try:
                d = _setting_data(model, cfg, setting)
                fac = factorize(d)
                comp = _span_defect(fac)
            except Exception:
                fac = None
            settings_info[setting] = SettingInfo(
                norm_y=float("nan") if d is None else float(np.linalg.norm(d.Y)),
                companion_residual=comp,
                data_seed=data_seed_for(cfg.seed, setting),
            )
            for method in sorted(cfg.methods, key=METHODS.index):
                for k in sorted(cfg.ranks()):
                    start = time.perf_counter()
                    res = float("nan")
                    if fac is not None:
                        try:
                            res = fac.residual(FITS[method], k)
                        except Exception:
                            pass
                    elapsed_ms = (time.perf_counter() - start) * 1e3 if cfg.measure_time else 0.0
                    rows.append(
                        BenchRow(
                            setting=setting,
                            method=method,
                            k=k,
                            residual=res,
                            companion_residual=comp,
                            wall_time_ms=elapsed_ms,
                        )
                    )
    return BenchResult(rows=tuple(rows), settings=settings_info)


def write_result_csv(result: BenchResult, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(RESULT_HEADER + "\n")
        for r in result.rows:
            fh.write(
                f"{r.setting},{r.method},{r.k},{r.residual!r},"
                f"{r.companion_residual!r},{r.wall_time_ms!r}\n"
            )


def _parse_int_list(text: str):
    """Comma-separated ints, with a lo..hi range shorthand (lo <= hi)."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lo, dots, hi = part.partition("..")
            lo, hi = int(lo), int(hi) if dots else None
        except ValueError:
            raise ValidationError(f"{part!r} is not an integer or a lo..hi range") from None
        if hi is None:
            out.append(lo)
        elif lo > hi:
            raise ValidationError(f"range {part!r} is reversed; write {hi}..{lo}")
        else:
            out.extend(range(lo, hi + 1))
    return tuple(out)


def load_config(path) -> BenchConfig:
    """Parse a flat key=value config file into a BenchConfig.

    Keys match the BenchConfig fields; lists are comma-separated and k
    ranges may use ``1..40``. Lines starting with '#' are comments.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in {f.name for f in fields(BenchConfig)}:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            if key in ("n", "r", "m", "seed"):
                values[key] = int(val)
            elif key in ("settings", "methods"):
                values[key] = tuple(v.strip() for v in val.split(",") if v.strip())
            elif key == "k_values":
                values[key] = _parse_int_list(val)
            elif key == "output":
                values[key] = val
            else:  # measure_time
                values[key] = val.lower() in ("1", "true", "yes")
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return BenchConfig(**values)
