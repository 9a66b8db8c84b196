"""Command-line front end.

Subcommands: fit, modes, simulate, bench, generate, validate. Every run
that writes artifacts also writes a manifest.json recording the resolved
parameters, seed, paths, and library version, so any output can be
reproduced from its manifest.

Exit codes: 0 success, 1 internal error, 2 invalid input or usage,
3 numerical guard (a rank the data cannot support, trajectory overflow,
a LAPACK breakdown).
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import traceback
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalGuardError, RankClampWarning, RankDeficiencyWarning, ValidationError
from .linalg import DEFAULT_TOL, _check_tol
from .modes import _check_horizon, _check_theta, amplitudes, compute_modes, verify_eigenpairs
from .rom import reconstruct_from_modes, save_trajectory, simulate_full
from .snapshots import load_snapshots, read_numeric_rows, save_csv, save_snapshots
from .solvers import _check_rank_arg, factorize, residual_norm
from .toybench import (
    RNG_NAME,
    _span_defect,
    data_seed_for,
    generate_snapshots,
    generate_toy_operator,
    load_config,
    run_benchmark,
    write_result_csv,
)

VARIANT_NAMES = {"as-stated": "as_stated", "exact": "exact_reconstruction"}


def _load_theta(spec: str, snaps) -> np.ndarray:
    if spec == "first":
        return snaps.initial_condition(0)
    path = Path(spec)
    if not path.is_file():
        raise ValidationError(f"theta file not found: {path}")
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if lines and lines[0].lstrip().startswith("x"):
        lines = lines[1:]  # optional x0,x1,... header
    try:
        rows = read_numeric_rows(lines)
    except ValueError:
        raise ValidationError(f"non-numeric value in theta file {path}") from None
    if rows.shape[0] != 1:
        raise ValidationError(f"theta file must contain exactly one row, got {rows.shape[0]}")
    return _check_theta(rows[0], snaps.n)


def _read(args):
    """The snapshots of --input, after the tol check: the read can take long."""
    _check_tol(args.svd_tol)
    return load_snapshots(args.input)


def _fit(args):
    """(snapshots, theta, Factorization, operator) of fit, modes and
    simulate, in this order: the flag checks, before the snapshot file is
    read; the read; theta (modes and simulate); the factorization at
    --svd-tol; the fit named by --method (optimal for modes and simulate).
    The library's rank warnings become refusals in main: a rank-deficient
    X under --strict-rank, and an optimal --rank above rank(Y V_x).
    """
    method = getattr(args, "method", "optimal")
    if method == "exact":
        # the exact fit reads no k: refused, so that no manifest records one
        if args.rank is not None:
            raise ValidationError("fit --method exact does not read --rank; leave it out")
    elif args.rank is None:
        raise ValidationError("--rank is required for this command")
    else:
        _check_rank_arg(args.rank)
    if "horizon" in args:
        _check_horizon(args.horizon, getattr(args, "stride", 1))
    args.out = args.out or f"{args.command}_out"  # --out left out or empty
    _check_out(args.out, directory=True)
    snaps = _read(args)
    theta = _load_theta(args.theta, snaps) if "theta" in args else None
    fac = factorize(snaps, args.svd_tol)
    return snaps, theta, fac, fac.fit(method, args.rank)


def _check_out(path, directory: bool) -> None:
    """ValidationError unless ``path`` can be written as an output
    directory (``directory``) or file, checked before any work is done: the
    nearest existing path on it is a directory, or the output file itself."""
    if not str(path):
        raise ValidationError("output path '' cannot be written: it is empty")
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing.is_dir() == (existing == path and not directory):
        what = "a directory" if existing.is_dir() else "not a directory"
        raise ValidationError(f"output path {path} cannot be written: {existing} is {what}")


def _make_out(path, directory: bool) -> Path:
    """The output directory (``directory``) or file ``path``, its directory
    made when the outputs are ready to be written, so that a run that fails
    leaves none behind."""
    path = Path(path)
    (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    return path


def _finish(args, outputs, summary: str, manifest: Path | None = None, params=None) -> int:
    """Write the manifest of a run that wrote ``outputs``, which records
    the resolved parameters ``params`` (by default the flags that are set
    and that the command reads), their seed, the paths, the library
    version and the _environment, and print the command's summary line.
    The manifest goes to ``manifest``, by default beside the one output as
    <output>.manifest.json."""
    if manifest is None:
        manifest = outputs[0].with_suffix(outputs[0].suffix + ".manifest.json")
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in (vars(args) if params is None else params).items()
        if k not in ("func", "command", *_UNREAD_GLOBALS[args.command]) and v is not None
    }
    inputs = (getattr(args, "input", None), getattr(args, "config", None))
    record = {
        "command": args.command,
        "parameters": params,
        "seed": params.get("seed"),
        "inputs": [str(p) for p in inputs if p],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "rng": RNG_NAME,
        "environment": _environment(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    manifest.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{args.command}: {summary}")
    return 0


@functools.cache
def _environment() -> dict:
    """What the bytes of a run's CSVs depend on beyond its parameters, read
    once per process: numpy's version, its BLAS (None where numpy cannot
    name it, as numpy 1.24's show_config, which takes no mode), the BLAS
    thread variables as set (None when unset) and the CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in threads},
        "cpu_count": os.cpu_count(),
    }


def cmd_fit(args) -> int:
    snaps, _, fac, op = _fit(args)
    requested = snaps.m if args.method == "exact" else args.rank
    res = residual_norm(op, snaps)
    norm_y = snaps.norm_y
    out_dir = _make_out(args.out, directory=True)
    outputs = [out_dir / "left.csv", out_dir / "right.csv", out_dir / "summary.csv"]
    save_csv(outputs[0], op.left)
    save_csv(outputs[1], op.right)
    certified = []
    if args.method == "optimal":
        certified = [("certified_residual", fac.certified_residual(requested))]
    rows = [
        ("method", args.method),
        ("requested_rank", requested),
        ("declared_rank", op.declared_rank),
        ("residual", res),
        *certified,
        ("residual_relative", res / norm_y if norm_y else 0.0),
        ("norm_y", norm_y),
        ("n", snaps.n),
        ("m", snaps.m),
        ("rank_x", fac.rank_x),
        ("rank_y", fac.rank_y),
        ("svd_tol", args.svd_tol),
    ]
    save_csv(outputs[2], rows, "key,value")
    summary = f"method={args.method} rank={op.declared_rank} residual={res:.6e}"
    return _finish(args, outputs, summary, out_dir / "manifest.json")


def cmd_modes(args) -> int:
    _, theta, _, op = _fit(args)
    mode_set = compute_modes(op, VARIANT_NAMES[args.variant], tol=args.svd_tol)
    schedule = amplitudes(mode_set, theta, args.horizon)
    report = verify_eigenpairs(mode_set, op)
    k = mode_set.eigenvalues.shape[0]
    # every complex quantity gets its _re,_im column pair, also when a
    # variant's values are real
    eigenvalues, modes, amps = (
        np.asarray(a, dtype=np.complex128)
        for a in (mode_set.eigenvalues, mode_set.modes, schedule.values)
    )
    out_dir = _make_out(args.out, directory=True)
    outputs = [
        out_dir / f"{name}.csv"
        for name in ("eigenvalues", "modes", "amplitudes", "eigenpair_residuals")
    ]
    save_csv(outputs[0], eigenvalues[:, None], "lambda_re,lambda_im")
    save_csv(outputs[1], modes, ",".join(f"mode{i}_re,mode{i}_im" for i in range(k)))
    header = ",".join(["t", *(f"amp{i}_re,amp{i}_im" for i in range(k))])
    save_csv(outputs[2], amps, header, map(str, range(1, amps.shape[0] + 1)))
    residuals = [
        (i, lam.real, lam.imag, res, report.tolerance, ok)
        for i, (lam, res, ok) in enumerate(zip(eigenvalues, report.residuals, report.passed))
    ]
    save_csv(outputs[3], residuals, "mode,lambda_re,lambda_im,residual,tolerance,passed")
    summary = f"variant={args.variant} k={k} max_eigenpair_residual={report.max_residual:.6e}"
    return _finish(args, outputs, summary, out_dir / "manifest.json")


def cmd_simulate(args) -> int:
    _, theta, _, op = _fit(args)
    if args.path == "reduced":
        traj = simulate_full(op, theta, args.horizon, stride=args.stride)
    else:
        mode_set = compute_modes(op, "exact_reconstruction", tol=args.svd_tol)
        schedule = amplitudes(mode_set, theta, args.horizon)
        # only the kept steps are expanded to n-vectors
        kept = dataclasses.replace(schedule, values=schedule.values[:: args.stride])
        traj = reconstruct_from_modes(mode_set, kept)
        traj = dataclasses.replace(traj, times=np.arange(1, args.horizon + 1, args.stride))
    out_dir = _make_out(args.out, directory=True)
    traj_path = out_dir / "trajectory.csv"
    save_trajectory(traj, traj_path)
    summary = f"path={args.path} steps={traj.states.shape[0]} -> {traj_path}"
    return _finish(args, [traj_path], summary, out_dir / "manifest.json")


def cmd_bench(args) -> int:
    # the flags override the config file's values, and the merge is validated once
    flags = dict(
        n=args.n, r=args.r, m=args.m, settings=args.settings, methods=args.methods,
        k_values=args.k_values, seed=args.seed, output=args.out,
    )
    cfg = load_config(args.config or None, flags)
    _check_out(cfg.output, directory=False)
    rows = run_benchmark(cfg)
    out_path = _make_out(cfg.output, directory=False)
    write_result_csv(rows, out_path)
    summary = f"{len(rows)} rows -> {out_path}"
    return _finish(args, [out_path], summary, params=vars(cfg))


def cmd_generate(args) -> int:
    _check_out(args.out, directory=False)
    G = generate_toy_operator(args.n, args.r, args.seed)
    snaps = generate_snapshots(G, args.setting, args.m, data_seed_for(args.seed, args.setting))
    out_path = _make_out(args.out, directory=False)
    save_snapshots(snaps, out_path)
    summary = f"setting={args.setting} n={args.n} r={args.r} m={args.m} -> {out_path}"
    return _finish(args, [out_path], summary)


def cmd_validate(args) -> int:
    """Print the rank diagnostics of --input: which of the solvers' cases
    applies. They accept any shape and rank; when X lacks full column rank
    (always so when m > n) they fit through its rank-r part and warn, and
    --strict-rank refuses it (exit 3), here as in fit: only without the flag
    is the RankDeficiencyWarning ignored. Optimal fits are capped at the
    rank of Y V_x, that of Y when X has full column rank."""
    snaps = _read(args)
    # one factorization gives rank(X), rank(Y) from R_y and the span
    # defect; a rank-deficient X is part of the diagnosis, so it raises no
    # warning, but --strict-rank still refuses it
    with warnings.catch_warnings():
        if not args.strict_rank:
            warnings.simplefilter("ignore", RankDeficiencyWarning)
        fac = factorize(snaps, args.svd_tol)
    rows = [
        ("n (state dimension)", snaps.n),
        ("m (snapshot pairs)", snaps.m),
        ("numerical rank of X", fac.rank_x),
        ("numerical rank of Y", fac.rank_of_y),
        ("tolerance (rel. to s_max)", f"{fac.tol:g}"),
        ("m <= n", snaps.m <= snaps.n),
        ("rank(X) = rank(Y) = m", fac.rank_x == snaps.m and fac.rank_of_y == snaps.m),
        ("companion residual", f"{_span_defect(fac, snaps.norm_y):.6e}"),
    ]
    for label, value in rows:
        print(f"{label:<25}: {value}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args does not change it, and
    main hands it a fresh Namespace on each call."""
    # global options go before or after the subcommand, the one after winning;
    # SUPPRESS keeps a subcommand from resetting them (main sets the defaults)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="RNG seed for stochastic commands")
    common.add_argument(
        "--strict-rank",
        action="store_true",
        help="treat numerically rank-deficient X as an error instead of a warning",
    )
    common.add_argument(
        "--svd-tol",
        type=float,
        help=f"relative singular-value threshold (default {DEFAULT_TOL:g})",
    )
    parser = argparse.ArgumentParser(
        prog="lrdmd",
        description="Low-rank dynamic mode decomposition: fit, spectral analysis, "
        "reduced-order simulation, and benchmarking.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit an operator to snapshot data")
    p.add_argument("--input", required=True, help="snapshot CSV")
    p.add_argument(
        "--method",
        required=True,
        choices=("optimal", "truncated", "projected", "exact"),
        help="optimal: closed-form rank-constrained minimizer; truncated: rank-k "
        "truncation of the unconstrained fit; projected: span-restricted fit; "
        "exact: unconstrained least squares",
    )
    p.add_argument("--rank", type=int, default=None, help="target rank k")
    p.add_argument("--out", help="output directory (default: fit_out)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "modes", parents=[common], help="spectral modes, eigenvalues, and amplitudes"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--variant", choices=tuple(VARIANT_NAMES), default="exact")
    p.add_argument("--theta", default="first", help="'first' or a one-row CSV file")
    p.add_argument("--horizon", type=int, default=10, help="amplitude schedule length")
    p.add_argument("--out", help="output directory (default: modes_out)")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("simulate", parents=[common], help="run the reduced-order surrogate")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--path", choices=("reduced", "modal"), default="reduced")
    p.add_argument("--theta", default="first")
    p.add_argument("--stride", type=int, default=1, help="keep every stride-th state")
    p.add_argument("--out", help="output directory (default: simulate_out)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", parents=[common], help="sweep solvers over the synthetic settings")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--settings", default=None, help="comma list from {i,ii,iii}")
    p.add_argument("--methods", default=None, help="comma list from {a,b,c}")
    p.add_argument("--k-values", dest="k_values", default=None, help="e.g. 1..40 or 5,10,20")
    p.add_argument("--out", default=None, help="result CSV path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generate", parents=[common], help="emit a synthetic snapshot CSV")
    p.add_argument("--setting", required=True, choices=("i", "ii", "iii"))
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--r", type=int, default=30)
    p.add_argument("--m", type=int, default=40)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", parents=[common], help="rank diagnostics for a snapshot CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


_GLOBAL_DEFAULTS = dict(seed=None, strict_rank=False, svd_tol=DEFAULT_TOL)
# the global options each command ignores: setting one is refused, so that
# no manifest records a value that had no effect
_UNREAD_GLOBALS = dict.fromkeys(("bench", "generate"), ("svd_tol", "strict_rank"))
_UNREAD_GLOBALS.update(dict.fromkeys(("fit", "modes", "simulate", "validate"), ("seed",)))


def _warning_line(message, category, *_) -> str:
    """A warning as main prints it, one line that names no source file."""
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv, argparse.Namespace(**_GLOBAL_DEFAULTS))
    # catch_warnings restores the filters and showwarning, not the format
    default_format = warnings.formatwarning
    try:
        for name in _UNREAD_GLOBALS[args.command]:
            if getattr(args, name) != _GLOBAL_DEFAULTS[name]:
                flag = "--" + name.replace("_", "-")
                raise ValidationError(f"{args.command} does not read {flag}; leave it out")
        # where the library warns about rank, the CLI refuses (exit 3)
        with warnings.catch_warnings():
            warnings.formatwarning = _warning_line
            warnings.simplefilter("error", RankClampWarning)
            if args.strict_rank:
                warnings.simplefilter("error", RankDeficiencyWarning)
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RankDeficiencyWarning as exc:
        print(f"numerical guard: {exc}; strict mode refuses rank-deficient X", file=sys.stderr)
        return 3
    except (NumericalGuardError, RankClampWarning, np.linalg.LinAlgError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
