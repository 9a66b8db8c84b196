"""Command-line front end.

Subcommands: fit, modes, simulate, bench, generate, validate. Every run
that writes artifacts also writes a manifest.json recording the resolved
parameters, seed, paths, and library version, so any output can be
reproduced from its manifest.

Exit codes: 0 success, 1 internal error, 2 invalid input or usage,
3 numerical guard (rank guard, trajectory overflow).
"""

import argparse
import dataclasses
import json
import sys
import traceback
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalGuardError, RankDeficiencyWarning, RankGuardError, ValidationError
from .linalg import DEFAULT_TOL, _check_tol
from .modes import _check_horizon, _check_theta, amplitudes, compute_modes, verify_eigenpairs
from .rom import reconstruct_from_modes, save_trajectory, simulate_reduced
from .snapshots import (
    RankReport,
    build_data_matrices,
    load_snapshots,
    read_numeric_rows,
    save_snapshots,
    write_csv_rows,
)
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_matrix_csv(path: Path, M: np.ndarray, header: str = "", lead=None) -> None:
    with path.open("w", newline="") as fh:
        fh.write(header)
        write_csv_rows(fh, M, lead)


def _write_keyvalue_csv(path: Path, pairs) -> None:
    with path.open("w", newline="") as fh:
        fh.write("key,value\n")
        for key, value in pairs:
            fh.write(f"{key},{value}\n")


def _write_manifest(out_path: Path, command: str, args, inputs, outputs) -> None:
    params = {
        k: v for k, v in vars(args).items() if k not in ("func", "command") and v is not None
    }
    manifest = {
        "command": command,
        "parameters": {k: (str(v) if isinstance(v, Path) else v) for k, v in params.items()},
        "seed": getattr(args, "seed", None),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "rng": RNG_NAME,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    out_path.write_text(json.dumps(manifest, indent=2) + "\n")


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


def _check_rank_flag(rank: int) -> int:
    if rank is None:
        raise ValidationError("--rank is required for this command")
    return _check_rank_arg(rank)


def _load_matrices(args):
    _check_tol(args.svd_tol)  # before the snapshots are read, which can take long
    snaps = load_snapshots(args.input)
    return snaps, build_data_matrices(snaps)


def _fit_optimal_guarded(fac, rank: int):
    """CLI-level hard guard: requesting more than the numerical rank of
    Y V_x is a numerical failure (exit 3), unlike the library's
    clamp-and-warn."""
    if rank > fac.rank_y:
        raise RankGuardError(
            f"requested rank {rank} exceeds the numerical rank of Y ({fac.rank_y}) "
            f"on the row space of X; choose a rank <= {fac.rank_y}"
        )
    return fac.optimal(rank)


def _out_dir(args) -> Path:
    """The --out directory, made when the outputs are ready to be written,
    so that a run that fails leaves none behind."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_fit(args) -> int:
    rank = None if args.method == "exact" else _check_rank_flag(args.rank)
    snaps, d = _load_matrices(args)
    requested = d.m if rank is None else rank
    fac = factorize(d, args.svd_tol, args.strict_rank)
    if args.method == "exact":
        op = fac.exact()
    elif args.method == "optimal":
        op = _fit_optimal_guarded(fac, requested)
    elif args.method == "truncated":
        op = fac.truncated(requested)
    else:
        op = fac.projected(requested)
    res = residual_norm(op, d)
    norm_y = d.norm_y
    out_dir = _out_dir(args)
    outputs = [out_dir / "left.csv", out_dir / "right.csv", out_dir / "summary.csv"]
    _write_matrix_csv(outputs[0], op.left)
    _write_matrix_csv(outputs[1], op.right)
    certified = []
    if args.method == "optimal":
        certified = [("certified_residual", _fmt(fac.certified_residual(requested)))]
    _write_keyvalue_csv(
        outputs[2],
        [
            ("method", args.method),
            ("requested_rank", requested),
            ("declared_rank", op.declared_rank),
            ("residual", _fmt(res)),
            *certified,
            ("residual_relative", _fmt(res / norm_y if norm_y else 0.0)),
            ("norm_y", _fmt(norm_y)),
            ("n", d.n),
            ("m", d.m),
            ("rank_x", fac.rank_x),
            ("rank_y", fac.rank_y),
            ("svd_tol", _fmt(args.svd_tol)),
        ],
    )
    _write_manifest(out_dir / "manifest.json", "fit", args, [args.input], outputs)
    print(f"fit: method={args.method} rank={op.declared_rank} residual={res:.6e}")
    return 0


def cmd_modes(args) -> int:
    rank = _check_rank_flag(args.rank)
    _check_horizon(args.horizon)
    snaps, d = _load_matrices(args)
    theta = _load_theta(args.theta, snaps)
    op = _fit_optimal_guarded(factorize(d, args.svd_tol, args.strict_rank), rank)
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
    out_dir = _out_dir(args)
    eig_path = out_dir / "eigenvalues.csv"
    _write_matrix_csv(eig_path, eigenvalues[:, None], "lambda_re,lambda_im\n")
    modes_path = out_dir / "modes.csv"
    _write_matrix_csv(
        modes_path, modes, ",".join(f"mode{i}_re,mode{i}_im" for i in range(k)) + "\n"
    )
    amp_path = out_dir / "amplitudes.csv"
    _write_matrix_csv(
        amp_path,
        amps,
        "t," + ",".join(f"amp{i}_re,amp{i}_im" for i in range(k)) + "\n",
        map(str, range(1, amps.shape[0] + 1)),
    )
    resid_path = out_dir / "eigenpair_residuals.csv"
    with resid_path.open("w", newline="") as fh:
        fh.write("mode,lambda_re,lambda_im,residual,tolerance,passed\n")
        for i in range(k):
            fh.write(
                f"{i},{_fmt(mode_set.eigenvalues[i].real)},{_fmt(mode_set.eigenvalues[i].imag)},"
                f"{_fmt(report.residuals[i])},{_fmt(report.tolerance)},{report.passed[i]}\n"
            )
    outputs = [eig_path, modes_path, amp_path, resid_path]
    _write_manifest(out_dir / "manifest.json", "modes", args, [args.input], outputs)
    print(
        f"modes: variant={args.variant} k={k} "
        f"max_eigenpair_residual={report.max_residual:.6e}"
    )
    return 0


def cmd_simulate(args) -> int:
    rank = _check_rank_flag(args.rank)
    _check_horizon(args.horizon, args.stride)
    snaps, d = _load_matrices(args)
    theta = _load_theta(args.theta, snaps)
    op = _fit_optimal_guarded(factorize(d, args.svd_tol, args.strict_rank), rank)
    if args.path == "reduced":
        traj = simulate_reduced(op, theta, args.horizon, stride=args.stride)
    else:
        mode_set = compute_modes(op, "exact_reconstruction", tol=args.svd_tol)
        schedule = amplitudes(mode_set, theta, args.horizon)
        traj = reconstruct_from_modes(mode_set, schedule)
        if args.stride > 1:
            keep = slice(None, None, args.stride)
            traj = dataclasses.replace(traj, states=traj.states[keep], times=traj.times[keep])
    out_dir = _out_dir(args)
    traj_path = out_dir / "trajectory.csv"
    save_trajectory(traj, traj_path)
    _write_manifest(out_dir / "manifest.json", "simulate", args, [args.input], [traj_path])
    print(f"simulate: path={args.path} steps={traj.states.shape[0]} -> {traj_path}")
    return 0


def cmd_bench(args) -> int:
    # the flags override the config file's values, and the merge is validated once
    flags = dict(
        n=args.n, r=args.r, m=args.m, settings=args.settings, methods=args.methods,
        k_values=args.k_values, seed=args.seed, output=args.out,
        measure_time=False if args.no_timing else None,
    )
    cfg = load_config(args.config or None, flags)
    result = run_benchmark(cfg)
    out_path = Path(cfg.output)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    write_result_csv(result, out_path)
    _write_manifest(
        out_path.with_suffix(out_path.suffix + ".manifest.json"),
        "bench",
        args,
        [args.config] if args.config else [],
        [out_path],
    )
    print(f"bench: {len(result.rows)} rows -> {out_path}")
    return 0


def cmd_generate(args) -> int:
    model = generate_toy_operator(args.n, args.r, args.seed)
    snaps = generate_snapshots(model, args.setting, args.m, data_seed_for(args.seed, args.setting))
    out_path = Path(args.out)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    save_snapshots(snaps, out_path)
    _write_manifest(
        out_path.with_suffix(out_path.suffix + ".manifest.json"), "generate", args, [], [out_path]
    )
    print(
        f"generate: setting={args.setting} n={args.n} r={args.r} m={args.m} -> {out_path}"
    )
    return 0


def cmd_validate(args) -> int:
    snaps, d = _load_matrices(args)
    # one factorization gives rank(X), rank(Y) from R_y and the span
    # defect; a rank-deficient X is part of the diagnosis, so it raises no
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        fac = factorize(d, args.svd_tol)
    for line in RankReport.from_factorization(fac).lines():
        print(line)
    print(f"companion residual       : {_span_defect(fac, d.norm_y):.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--out", default="fit_out", help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "modes", parents=[common], help="spectral modes, eigenvalues, and amplitudes"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--variant", choices=tuple(VARIANT_NAMES), default="exact")
    p.add_argument("--theta", default="first", help="'first' or a one-row CSV file")
    p.add_argument("--horizon", type=int, default=10, help="amplitude schedule length")
    p.add_argument("--out", default="modes_out")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("simulate", parents=[common], help="run the reduced-order surrogate")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--path", choices=("reduced", "modal"), default="reduced")
    p.add_argument("--theta", default="first")
    p.add_argument("--stride", type=int, default=1, help="keep every stride-th state")
    p.add_argument("--out", default="simulate_out")
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
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="write wall_time_ms as 0.0 so result CSVs are byte-identical across runs",
    )
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


def main(argv=None) -> int:
    parser = build_parser()
    defaults = argparse.Namespace(seed=None, strict_rank=False, svd_tol=DEFAULT_TOL)
    args = parser.parse_args(argv, defaults)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
