"""Shows that the benchmark's checks bite.

Each case runs a real operation of a workload on a small input, confirms
that its output passes, then hands the same check a deliberately wrong
answer and requires a rejection. Run with

    python3 perfbench/run.py --selftest
"""

import csv
import dataclasses
import shutil
from functools import partial

import numpy as np

import reference as ref
from workloads import (
    F1,
    F2,
    AlsOracle,
    CheckFailed,
    CliFiles,
    FitCase,
    RankSweep,
    TallFit,
    check_baseline_fit,
    check_sweep_rows,
    classify,
)


class Cases:
    def __init__(self):
        self.missed = []

    def passes(self, label, check, out):
        try:
            check(out)
        except CheckFailed as exc:
            self.missed.append(label)
            print(f"FAIL  {label}: the correct output was rejected ({exc})")
            return
        print(f"ok    {label}: the correct output passes")

    def rejects(self, label, check, out):
        try:
            check(out)
        except CheckFailed as exc:
            print(f"ok    {label}: rejected by {exc.check}")
            return
        self.missed.append(label)
        print(f"FAIL  {label}: the wrong output was accepted")


def _scaled_csv(path, skiprows, row, col, factor):
    """Rewrite a numeric CSV with one cell scaled."""
    lines = path.read_text().splitlines()
    cells = lines[skiprows + row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[skiprows + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def tall_fit_cases(lib, workdir, cases: Cases):
    cfg = lib.toybench.BenchConfig(seed=7)
    d = lib.toybench.benchmark_data(cfg, "ii")
    case = FitCase("ii", d, ref.OptimumCurve(d.X, d.Y), d.X[:, 0].copy(), (10,))
    w = TallFit(lib, 0, workdir)
    # the unnormalized setting-ii map is expansive: a short horizon stays finite
    w.REDUCED_HORIZON, w.REDUCED_STRIDE, w.FULL_HORIZON, w.FULL_STRIDE = 20, 2, 10, 1
    out = w.run_optimal(case, 10)
    check = partial(w.check_optimal, case, 10)
    cases.passes("tall-fit optimal k=10 on setting ii", check, out)
    truncated = lib.fit_truncated_exact_dmd(d, 10)
    cases.rejects("truncated fit labelled optimal on setting ii", check,
                  (truncated,) + out[1:])
    op, factors, res, modes, report, amps, reduced, full = out
    scaled = dataclasses.replace(op, right=op.right * (1 + 1e-6))
    cases.rejects("optimal operator scaled by 1 + 1e-6 (residual moves by ~1e-12)", check,
                  (scaled,) + out[1:])
    bad = full.states.copy()
    bad[-1] *= 1 + 1e-6
    cases.rejects("perturbed full trajectory", check,
                  out[:7] + (dataclasses.replace(full, states=bad),))
    bad = reduced.states.copy()
    bad[3, 0] += 1e-6 * np.abs(bad).max()
    cases.rejects("perturbed reduced trajectory", check,
                  out[:6] + (dataclasses.replace(reduced, states=bad), full))
    lam = modes.eigenvalues.copy()
    lam[0] *= 1.001
    cases.rejects("perturbed eigenvalue", check,
                  out[:3] + (dataclasses.replace(modes, eigenvalues=lam),) + out[4:])
    baseline = (truncated, lib.residual_norm(truncated, d))
    cases.passes("truncated baseline k=10", lambda o: check_baseline_fit(case, 10, o), baseline)
    over = lib.fit_optimal_lowrank_dmd(d, 11)[0]
    cases.rejects("rank-11 fit passed off as a rank-10 baseline",
                  lambda o: check_baseline_fit(case, 10, o), (over, lib.residual_norm(over, d)))


def rank_sweep_cases(lib, workdir, cases: Cases):
    w = RankSweep(lib, 1, workdir)
    w.setup()
    w.prepare()
    op = w.round()[0]
    cases.passes("rank-sweep bench call", op.check, op.run())
    with (workdir / "sweep" / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    truncated = {(r["setting"], r["k"]): r["residual"] for r in rows if r["method"] == "b"}
    relabelled = [dict(r, residual=truncated[(r["setting"], r["k"])])
                  if r["setting"] == "ii" and r["method"] == "a" else r for r in rows]
    check = lambda rs: check_sweep_rows(rs, w.curves, w.K_MAX)  # noqa: E731
    cases.rejects("sweep with the truncated rows labelled optimal on setting ii", check,
                  relabelled)
    cases.rejects("sweep with a NaN row", check, rows[:5] + [dict(rows[5], residual="nan")]
                  + rows[6:])
    cases.rejects("sweep with a missing row", check, rows[:-1])


def cli_files_cases(lib, workdir, cases: Cases):
    w = CliFiles(lib, 1, workdir)
    w.N_STATE = 300
    w.setup()
    w.prepare()
    fit, modes, simulate = w.round()
    for op in (fit, modes, simulate):
        cases.passes(f"cli {op.name}", op.check, op.run())
    out = fit.run()
    _scaled_csv(workdir / "fit" / "left.csv", 0, 7, 2, 1 + 1e-4)
    cases.rejects("cli fit with a perturbed left.csv", fit.check, out)
    out = modes.run()
    _scaled_csv(workdir / "modes" / "eigenvalues.csv", 1, 0, 0, 1.001)
    cases.rejects("cli modes with a perturbed eigenvalue", modes.check, out)
    out = simulate.run()
    _scaled_csv(workdir / "simulate" / "trajectory.csv", 1, 4, 9, 1 + 1e-3)
    cases.rejects("cli simulate with a perturbed trajectory", simulate.check, out)
    cases.rejects("cli call that exited 3", fit.check, (3, "numerical guard"))


def als_cases(lib, workdir, cases: Cases):
    w = AlsOracle(lib, 1, workdir)
    w.RESTARTS, w.ITERS = 3, 20
    w.setup()
    w.prepare()
    ops = w.round()
    out = ops[0].run()
    cases.passes("als-oracle 6x4 operation", ops[0].check, out)
    fit, (objective, L, R) = out
    cases.rejects("ALS objective reported below its own factors", ops[0].check,
                  (fit, (0.9 * objective, L, R)))
    for op, fault in ((ops[-2], F1), (ops[-1], F2)):
        try:  # the known faults must fail, and be named

            op.check(op.run())
            cause, known = "passed", False
        except Exception as exc:
            cause, known = classify(op, exc)
        if known and cause == fault:
            print(f"ok    {op.name}: fails as {fault}")
        else:
            cases.missed.append(op.name)
            print(f"FAIL  {op.name}: expected {fault}, got {cause}")


def selftest(lib, workdir) -> int:
    cases = Cases()
    try:
        for part in (tall_fit_cases, rank_sweep_cases, cli_files_cases, als_cases):
            sub = workdir / part.__name__
            sub.mkdir(parents=True, exist_ok=True)
            part(lib, sub, cases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {len(cases.missed)} case(s) failed" if cases.missed
          else "selftest: every check rejects its wrong answer")
    return 1 if cases.missed else 0
