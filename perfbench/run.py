#!/usr/bin/env python3
"""Benchmark of lrdmd's public entry points.

One run measures one workload in this process, closed loop (one
operation at a time), checks every operation's output, and prints as its
last line a JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Run it from the root of a source checkout:

    python3 perfbench/run.py --workload tall-fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --suite --runs 5 --out results.json   # all workloads
    python3 perfbench/run.py --compare before.json after.json
    python3 perfbench/run.py --selftest                            # the checks bite

The program is imported from ``src/`` of the checkout and nowhere else.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
WORKLOAD_NAMES = ("cli-files", "tall-fit", "rank-sweep", "als-oracle")
TAIL_GRID = (99.0, 95.0, 90.0, 80.0, 75.0)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One BLAS thread by default: on a shared 2-core machine, two OpenBLAS
    # threads spin-wait on the small operands of rank-sweep and als-oracle,
    # and their latency then swings with the neighbours' load (0.46 s per
    # rank-sweep call with one thread, 1.8 s with two, measured back to back).
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads, capped at the CPUs this process may use (default 1)")
    p.add_argument("--record", type=Path, help="write the full result record of a run here")
    p.add_argument("--suite", action="store_true", help="run every workload, each run in a "
                   "fresh process, and write a result file")
    p.add_argument("--runs", type=int, default=5, help="untraced runs per workload (suite)")
    p.add_argument("--first-seed", type=int, default=1, help="seed of the first run (suite)")
    p.add_argument("--workloads", default=",".join(WORKLOAD_NAMES),
                   help="comma list of workloads (suite)")
    p.add_argument("--out", type=Path, help="result file of the suite")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not (args.suite or args.compare or args.selftest or args.workload):
        p.error("one of --workload, --suite, --compare or --selftest is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def limit_blas_threads(requested) -> int:
    """Set the BLAS thread count before numpy is imported."""
    threads = max(1, min(requested, nproc()))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import numpy and lrdmd from src/ of this checkout; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "lrdmd" / "__init__.py").is_file():
        fail(f"no lrdmd sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import numpy
    import lrdmd
    import lrdmd.cli  # noqa: F401  (the CLI workloads call lrdmd.cli.main)

    if src.resolve() not in Path(lrdmd.__file__).resolve().parents:
        fail(f"lrdmd was imported from {lrdmd.__file__}, not from {src}")
    return numpy, lrdmd


def blas_facts(np) -> dict:
    facts = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts = {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    facts["threads"] = blas_threads_in_use(np)
    return facts


def blas_threads_in_use(np):
    """Thread count reported by the OpenBLAS that numpy loaded, else the
    environment's setting."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_facts(np, seed, threads) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(np),
        "blas_threads_requested": threads,
        "platform": platform.platform(),
        "seed": seed,
    }


def tail_percentile(n: int, preferred: float):
    """The workload's preferred tail percentile if at least ten samples lie
    beyond it, else the highest one on the grid that has them."""
    for pct in (preferred,) + tuple(p for p in TAIL_GRID if p < preferred):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return None


def nearest_rank(n: int, pct: float) -> int:
    """Index of the pct-th percentile of n sorted samples (nearest rank)."""
    return max(0, math.ceil(pct * n / 100.0) - 1)


class Segment:
    """Operations measured back to back with the tracer in one state."""

    def __init__(self):
        self.latency = []
        self.cpu = []
        self.names = []
        self.failures = {}
        self.unexpected = []
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latency)


def run_segment(workload, seconds, tracer=None) -> Segment:
    """Whole rounds of the workload's operations until `seconds` of wall
    time have passed. Only the program call of an operation is timed; its
    check runs after the clock stops."""
    from workloads import classify

    seg = Segment()
    ops = workload.round()
    clock, cpu_clock = time.perf_counter, time.process_time
    start = clock()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = seg.attempted
            c0, t0 = cpu_clock(), clock()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            t1, c1 = clock(), cpu_clock()
            if tracer is not None:
                tracer.op = -1
            seg.latency.append(t1 - t0)
            seg.cpu.append(c1 - c0)
            seg.names.append(op.name)
            if error is None:
                try:
                    op.check(out)
                except Exception as exc:
                    error = exc
            if error is not None:
                cause, known = classify(op, error)
                seg.failed += 1
                seg.failures[cause] = seg.failures.get(cause, 0) + 1
                if not known:
                    seg.unexpected.append(f"{op.name}: {cause}")
        seg.rounds += 1
        if clock() - start >= seconds:
            break
    seg.wall = clock() - start
    return seg


def op_medians(seg: Segment) -> dict:
    by_name = {}
    for name, t in zip(seg.names, seg.latency):
        by_name.setdefault(name, []).append(t)
    return {name: 1e3 * statistics.median(ts) for name, ts in by_name.items()}


def end_to_end(seg: Segment, setup_s: float, tail_pct: float):
    lat = sorted(seg.latency)
    # with fewer than forty samples no percentile on the grid has ten
    # beyond it; the slowest operation stands in and the record says so
    pct = tail_percentile(len(lat), tail_pct) or 100.0
    tail = nearest_rank(len(lat), pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (seg.ops_per_s(), "op/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * lat[tail], "ms"),
        "cpu_ms_per_op": (1e3 * sum(seg.cpu) / seg.attempted, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return metrics, {"percentile": pct, "samples": len(lat), "beyond": len(lat) - 1 - tail}


PER_LAYER_UNITS = {
    "snapshots.load_ms": "ms", "snapshots.load_mib_per_s": "MiB/s", "snapshots.save_ms": "ms",
    "snapshots.build_ms": "ms", "snapshots.validate_ms": "ms",
    "linalg.svd_calls_per_op": "count", "linalg.gram_calls_per_op": "count",
    "linalg.svd_ms": "ms", "linalg.gram_ms": "ms",
    "linalg.gflop_computed_per_op": "GFLOP", "linalg.gflop_per_s": "GFLOP/s",
    "solvers.optimal_ms": "ms", "solvers.truncated_ms": "ms", "solvers.projected_ms": "ms",
    "solvers.exact_ms": "ms", "solvers.self_ms": "ms", "solvers.residual_ms": "ms",
    "solvers.clamps_per_op": "count",
    "modes.compute_ms": "ms", "modes.verify_ms": "ms", "modes.amplitudes_ms": "ms",
    "rom.simulate_ms": "ms", "rom.steps_per_s": "step/s", "rom.save_ms": "ms",
    "rom.save_mib": "MiB",
    "kernels.propagate_ms": "ms", "kernels.als_sweep_ms": "ms", "kernels.als_iters_per_s": "iter/s",
    "altmin.self_ms": "ms",
    "toybench.generate_ms": "ms", "toybench.sweep_ms": "ms", "toybench.self_ms": "ms",
    "toybench.write_ms": "ms",
    "cli.self_ms": "ms", "cli.written_mib": "MiB",
    "trace.overhead_pct": "%",
}


def single_run(args) -> int:
    threads = limit_blas_threads(args.blas_threads)
    t0 = time.perf_counter()
    np, lib = import_program()
    import_s = time.perf_counter() - t0

    import warnings

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    for category in (lib.RankDeficiencyWarning, lib.RankClampWarning,
                     lib.DegenerateModeWarning, lib.ReconstructionWarning):
        warnings.simplefilter("ignore", category)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](lib, args.seed, workdir)
        if tracer:
            tracer.install(lib)
        setup_times = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t)
        if tracer:
            tracer.uninstall()
        setup_s = import_s + statistics.median(setup_times)
        workload.prepare()

        if not args.trace:
            segments = [run_segment(workload, args.seconds)]
            measured = segments[0]
        else:
            # untraced first half gives the baseline for the tracing overhead
            plain = run_segment(workload, args.seconds / 2)
            read, written = workload.csv_read, workload.csv_written
            tracer.install(lib)
            measured = run_segment(workload, args.seconds / 2, tracer)
            tracer.uninstall()
            workload.csv_read -= read
            workload.csv_written -= written
            segments = [plain, measured]
        attempted = sum(s.attempted for s in segments)
        failed = sum(s.failed for s in segments)
        unexpected = [u for s in segments for u in s.unexpected]
        failures = {}
        for s in segments:
            for cause, n in s.failures.items():
                failures[cause] = failures.get(cause, 0) + n
        io = {
            "csv_read_mib_per_op": workload.csv_read / 2**20 / measured.attempted,
            "csv_written_mib_per_op": workload.csv_written / 2**20 / measured.attempted,
        }
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "machine": machine_facts(np, args.seed, threads),
            "setup": {"import_s": import_s, "reps_s": setup_times},
            "failures": failures, "unexpected": unexpected[:20], "io": io,
            "op_p50_ms_by_name": op_medians(measured),
            "segments": [{"attempted": s.attempted, "failed": s.failed, "rounds": s.rounds,
                          "wall_s": s.wall, "ops_per_s": s.ops_per_s()} for s in segments],
        }
        if not args.trace:
            metrics, record["tail"] = end_to_end(measured, setup_s, workload.tail_pct)
        else:
            layer, record["computed"] = layer_metrics(tracer.spans, measured.names, SETUP_REPS)
            layer["cli.written_mib"] = io["csv_written_mib_per_op"]
            layer["trace.overhead_pct"] = 100.0 * (1.0 - measured.ops_per_s()
                                                   / plain.ops_per_s())
            metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.csv"
            tracer.write(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not unexpected and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    for line in unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    causes = ", ".join(f"{c} x{n}" for c, n in sorted(failures.items())) or "none"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted {attempted}, "
          f"failed {failed} ({causes})")
    print(json.dumps(result))
    return 0


def suite(args) -> int:
    """Every workload in fresh processes: `runs` untraced runs on seeds
    first_seed.., then one traced run; one result file for all of them."""
    from report import print_suite

    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    for name in names:
        if name not in WORKLOAD_NAMES:
            fail(f"unknown workload {name!r}")
    out = args.out or OUT / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    records = []
    for name in names:
        plan = [(args.first_seed + i, 0) for i in range(args.runs)] + [(args.first_seed, 1)]
        for seed, trace in plan:
            path = OUT / "records" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--record", str(path)]
            cmd += ["--blas-threads", str(args.blas_threads)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                fail(f"{name} seed {seed} exited {done.returncode}")
            records.append(json.loads(path.read_text()))
            path.unlink()
            print(done.stdout.splitlines()[-2], flush=True)
    result = {"runs": records}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print_suite(result)
    print(f"result file: {out}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from report import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if args.suite:
        return suite(args)
    if args.selftest:
        limit_blas_threads(args.blas_threads)
        _, lib = import_program()
        from selftest import selftest

        return selftest(lib, OUT / f"selftest-{os.getpid()}")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
