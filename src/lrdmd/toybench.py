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
plot-ready CSV. Each setting is factorized once, and each (setting,
method) block of rows reads one residual curve of that factorization
(Factorization.residual_curve), every k at once, without forming an
operator. Randomness comes from numpy's default generator (PCG64,
ziggurat normals), recorded in run metadata. The rows hold results only,
no timing, so identical config and seed reproduce identical rows and a
byte-identical CSV; the sweep's speed is measured by perfbench.
"""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RankDeficiencyWarning, ValidationError
from .snapshots import SnapshotSet, save_csv
from .solvers import Factorization, factorize

SETTINGS = ("i", "ii", "iii")
METHODS = ("a", "b", "c")  # a: optimal closed form, b: truncated exact, c: projected
FITS = {"a": "optimal", "b": "truncated", "c": "projected"}
RNG_NAME = "numpy default_rng (PCG64)"
RESULT_HEADER = "setting,method,k,residual,companion_residual"


def _rng(seed: int) -> np.random.Generator:
    """numpy's default generator, seeded; a seed is required, and numpy takes no negative one."""
    if seed is None:
        raise ValidationError("a seed is required for reproducible data (--seed or a config seed)")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def generate_toy_operator(n: int, r: int, seed: int) -> np.ndarray:
    """G = sum of r outer products xi xi^T with standard-normal xi in R^n."""
    if r < 1 or r > n:
        raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
    rng = _rng(seed)
    G = np.zeros((n, n))
    for _ in range(r):
        xi = rng.standard_normal(n)
        G += np.outer(xi, xi)
    return G


def generate_snapshots(G: np.ndarray, setting: str, m: int, seed: int) -> SnapshotSet:
    """Snapshot data of G for one benchmark setting, m predecessor/successor pairs.

    Setting i produces a single trajectory of length m+1 under G scaled to
    unit spectral radius, which keeps long trajectories representable;
    settings ii and iii produce m independent two-snapshot trajectories of
    the unscaled linear and cubic maps.
    """
    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    n = G.shape[0]
    if m < 1 or m > n:
        raise ValidationError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = _rng(seed)
    if setting == "i":
        G = G / float(np.linalg.eigvalsh(G)[-1])
        states = np.empty((1, m + 1, n))
        states[0, 0] = rng.standard_normal(n)
        for t in range(1, m + 1):
            states[0, t] = G @ states[0, t - 1]
    else:
        starts = rng.standard_normal((m, n))
        states = np.empty((m, 2, n))
        states[:, 0, :] = starts
        if setting == "ii":
            states[:, 1, :] = starts @ G.T
        else:  # iii: cubic map x -> G(x + x*x*x)
            states[:, 1, :] = (starts + starts**3) @ G.T
    # nothing else holds this array: read-only, SnapshotSet holds it as it is
    states.flags.writeable = False
    return SnapshotSet(states=states)


def _span_defect(fac: Factorization, norm_y: float) -> float:
    """The companion residual ||Y - X X^+ Y||_F / ||Y||_F of a factorization
    of data with ||Y||_F = norm_y: its span defect over norm_y.

    Zero means every successor column is a linear combination of the
    predecessor columns (the projected solver's modeling assumption);
    values near one mean the successors are mostly outside that span.
    """
    return fac.span_defect / norm_y if norm_y else 0.0


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark sweep parameters; defaults reproduce the reference study
    scale (n=50, r=30, m=40, all settings, all methods, k = 1..m). Every
    field determines the result CSV (output names it): one config gives
    one CSV, byte for byte."""

    n: int = 50
    r: int = 30
    m: int = 40
    settings: tuple = SETTINGS
    methods: tuple = METHODS
    k_values: tuple = ()
    seed: int | None = None
    output: str = "bench_results.csv"

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if not 1 <= self.m <= self.n:
            raise ValidationError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        for name, known in (("settings", SETTINGS), ("methods", METHODS)):
            if not getattr(self, name):
                raise ValidationError(f"{name} is empty; give one or more of {','.join(known)}")
            for entry in getattr(self, name):
                if entry not in known:
                    raise ValidationError(f"unknown {name[:-1]} {entry!r}")
        for k in self.k_values:
            if not 1 <= k <= self.m:
                raise ValidationError(f"k values must lie in 1..m, got {k}")
        for name in ("settings", "methods", "k_values"):
            seen = set()
            for entry in getattr(self, name):
                if entry in seen:
                    raise ValidationError(f"{name} repeats {entry!r}; give each once")
                seen.add(entry)

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


def data_seed_for(seed: int, setting: str) -> int:
    """Deterministic per-setting data seed (G uses `seed` itself)."""
    return seed + 1 + SETTINGS.index(setting)


def benchmark_data(cfg: BenchConfig, setting: str) -> SnapshotSet:
    """The exact dataset the sweep uses for one setting of a config."""
    G = generate_toy_operator(cfg.n, cfg.r, cfg.seed)
    return generate_snapshots(G, setting, cfg.m, data_seed_for(cfg.seed, setting))


def run_benchmark(cfg: BenchConfig) -> tuple:
    """Sweep every requested (setting, method, k) into BenchRows, one dataset per setting.

    The toy map G is built once. Each setting's data is factorized once,
    and each (setting, method) block of rows reads one residual curve of
    that factorization (Factorization.residual_curve), computed at size c
    with no operator formed: the row of rank k is curve[min(k, rank)].
    Rows come out sorted by (setting, method, k) and hold no timing, so
    identical configs give identical rows. RankDeficiencyWarning (an X
    without full column rank, as in setting i) is expected and ignored;
    every other warning reaches the caller. An error, in a curve or in the
    setting's data or factorization, is recorded as a NaN residual for the
    block or the setting it affects without aborting the sweep. The optimal fit of a setting whose Y is
    numerically zero on the row space of X has no curve, hence NaN rows.
    """
    G = generate_toy_operator(cfg.n, cfg.r, cfg.seed)
    ranks = sorted(cfg.ranks())
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        for setting in sorted(cfg.settings, key=SETTINGS.index):
            fac, comp = None, float("nan")
            try:
                d = generate_snapshots(G, setting, cfg.m, data_seed_for(cfg.seed, setting))
                fac = factorize(d)
                comp = _span_defect(fac, d.norm_y)
            except Exception:
                fac = None
            for method in sorted(cfg.methods, key=METHODS.index):
                curve = [float("nan")]
                if fac is not None:
                    try:
                        curve = fac.residual_curve(FITS[method]).tolist()
                    except Exception:
                        pass
                for k in ranks:
                    res = curve[min(k, len(curve) - 1)]
                    rows.append(BenchRow(setting, method, k, res, comp))
    return tuple(rows)


def write_result_csv(rows, path) -> None:
    """Write BenchRows as the result CSV, one line per row under RESULT_HEADER."""
    cells = ((r.setting, r.method, r.k, r.residual, r.companion_residual) for r in rows)
    save_csv(path, cells, RESULT_HEADER)


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


def _parse_names(text: str) -> tuple:
    """Comma-separated names, empty entries dropped."""
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_path(text: str) -> str:
    """A path, refused when empty."""
    if not text:
        raise ValidationError("an empty path")
    return text


# How each BenchConfig field is read from text, in a config file or a flag.
_PARSERS = {
    **dict.fromkeys(("n", "r", "m", "seed"), int),
    **dict.fromkeys(("settings", "methods"), _parse_names),
    "k_values": _parse_int_list,
    "output": _parse_path,
}


def load_config(path=None, overrides=None) -> BenchConfig:
    """One BenchConfig from a flat key=value config file (None: no file)
    with overrides applied over it, validated once.

    Keys match the BenchConfig fields, and any other key is refused with
    its file:line; lists are comma-separated and k ranges may use
    ``1..40``. Lines starting with '#' are comments. overrides maps fields to
    a text, parsed as in the file, or to a value of the field's type; None
    or an empty text counts as not given.
    """
    values = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ValidationError(f"config file not found: {path}")
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _PARSERS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _PARSERS[key](val)
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    for key, value in (overrides or {}).items():
        if isinstance(value, str):
            value = _PARSERS[key](value) if value else None
        if value is not None:
            values[key] = value
    return BenchConfig(**values)
