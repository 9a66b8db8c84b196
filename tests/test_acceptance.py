"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion. Criterion 5 is asserted twice: once literally (expected to
fail, see the xfail reason: the span-restricted solver has an irreducible
residual floor that criterion 6 itself requires to be large), and once for
its attainable content.

Runtime budgets are set for the plain-numpy kernels. The
alternating-LS oracle of criterion 2 advances all restarts of a fit
together, so its 60 fits of 50 restarts x 500 iterations stay well inside
the 30 s budget.
"""

import time
import warnings

import numpy as np
import pytest

import lrdmd
from lrdmd.toybench import BenchConfig, benchmark_data, run_benchmark, write_result_csv

SEED = 7


def report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


@pytest.fixture(scope="module")
def bench():
    cfg = BenchConfig(seed=SEED)
    start = time.perf_counter()
    rows = run_benchmark(cfg)
    elapsed = time.perf_counter() - start
    residuals = {
        (row.setting, row.method, row.k): row.residual for row in rows
    }
    return cfg, rows, residuals, elapsed


@pytest.fixture(scope="module")
def norm_y(bench):
    """||Y||_F of each setting's data."""
    cfg = bench[0]
    return {s: benchmark_data(cfg, s).norm_y for s in cfg.settings}


def companion(rows):
    """The companion residual of each setting, as its rows record it."""
    return {row.setting: row.companion_residual for row in rows}


def toy_fit(data, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return lrdmd.fit_optimal_lowrank_dmd(data, k)


def lifted_residual(op, d):
    """||Y - A X|| of the operator's own factors: on a fresh DataMatrices,
    which no fit's Factorization holds, residual_norm evaluates the factors
    by row blocks instead of answering from the fit."""
    return lrdmd.residual_norm(op, lrdmd.DataMatrices(X=d.X, Y=d.Y))


def test_1_optimality_dominance_over_full_sweep(bench, norm_y):
    cfg, _, res, elapsed = bench
    violations = []
    for s in cfg.settings:
        slack = 1e-9 * norm_y[s]
        for k in cfg.ranks():
            if res[(s, "a", k)] > res[(s, "b", k)] + slack:
                violations.append((s, "b", k))
            if res[(s, "a", k)] > res[(s, "c", k)] + slack:
                violations.append((s, "c", k))
    ok = not violations and elapsed < 60.0
    report(1, "optimal solver dominates both baselines at every point", ok,
           f"sweep ran in {elapsed:.2f}s")
    assert not violations, f"dominance violated at {violations}"
    assert elapsed < 60.0


def test_2_closed_form_beats_alternating_least_squares_oracle():
    start = time.perf_counter()
    failures = []
    worst = -np.inf
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        d = lrdmd.DataMatrices(
            X=rng.standard_normal((6, 4)), Y=rng.standard_normal((6, 4))
        )
        for k in (1, 2, 3):
            op, _ = lrdmd.fit_optimal_lowrank_dmd(d, k)
            closed = lifted_residual(op, d)
            als, _, _ = lrdmd.als_lowrank_fit(
                d.X, d.Y, k, restarts=50, iters=500, seed=2000 + i
            )
            worst = max(worst, closed - als)
            if closed > als + 1e-8:
                failures.append((i, k, closed, als))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(2, "closed form is never beaten by 50-restart alternating LS", ok,
           f"worst margin {worst:.2e}, ran in {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 30.0


def test_3_fixed_rank_approximation_of_identity_driven_data():
    rng = np.random.default_rng(SEED)
    n = 12
    Y = rng.standard_normal((n, n))
    d = lrdmd.DataMatrices(X=np.eye(n), Y=Y)
    sigma = np.linalg.svd(Y, compute_uv=False)
    worst = 0.0
    for k in range(1, n + 1):
        op, _ = toy_fit(d, k)
        tail = float(np.linalg.norm(sigma[k:]))
        worst = max(worst, abs(lifted_residual(op, d) - tail))
    ok = worst < 1e-10
    report(3, "identity-driven fit reproduces the singular-value tail", ok,
           f"worst |residual - tail| = {worst:.2e}")
    assert ok


def test_4_span_satisfying_setting_matches_optimal_everywhere(bench, norm_y):
    cfg, _, res, _ = bench
    ny = norm_y["i"]
    worst = -np.inf
    violations = []
    for k in cfg.ranks():
        gap = abs(res[("i", "a", k)] - res[("i", "c", k)])
        allowed = max(1e-8 * res[("i", "a", k)], 1e-9 * ny)
        worst = max(worst, gap - allowed)
        if gap > allowed:
            violations.append(k)
    ok = not violations
    report(4, "projected solver ties the optimal one on span-satisfying data", ok,
           f"worst slack excess {worst:.2e}")
    assert not violations, violations


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the span-restricted method's residual is "
    "bounded below by its span defect, ||Y - X pinv(X) Y||, and the companion "
    "diagnostic criterion requires exactly that defect to exceed 1e-3*||Y|| on "
    "the independent-pairs and cubic settings; no rank can take method c below "
    "1e-6*||Y|| there. Methods a and b, and method c on the single-trajectory "
    "setting, do collapse (see the attainable-content test).",
)
def test_5_all_methods_collapse_past_generator_rank_literal(bench, norm_y):
    cfg, _, res, _ = bench
    violations = []
    for s in cfg.settings:
        limit = 1e-6 * norm_y[s]
        for meth in cfg.methods:
            for k in range(30, 41):
                if res[(s, meth, k)] > limit:
                    violations.append((s, meth, k, res[(s, meth, k)]))
    ok = not violations
    report(5, "every method collapses below 1e-6*||Y|| for k >= 30 (literal)", ok,
           f"{len(violations)} violating rows, all method c on settings ii/iii"
           if violations else "")
    assert not violations, f"{len(violations)} rows above threshold: {violations[:4]}..."


def test_5_collapse_attainable_content_and_floor_identity(bench, norm_y):
    cfg, rows, res, _ = bench
    # attainable part: the optimal and truncated solvers collapse on every
    # setting, the projected one on the span-satisfying setting
    violations = []
    for s in cfg.settings:
        limit = 1e-6 * norm_y[s]
        for meth in ("a", "b"):
            violations += [
                (s, meth, k) for k in range(30, 41) if res[(s, meth, k)] > limit
            ]
        if s == "i":
            violations += [(s, "c", k) for k in range(30, 41) if res[(s, "c", k)] > limit]
    # floor identity: on the settings that break the span assumption the
    # projected residual plateaus at the span defect, which the companion
    # diagnostic requires to be >= 1e-3 * ||Y||; hence the literal blanket
    # claim above cannot hold for method c there
    floor_checks = []
    comp = companion(rows)
    for s in ("ii", "iii"):
        floor = comp[s] * norm_y[s]
        res_at_full = res[(s, "c", 40)]
        floor_checks.append(abs(res_at_full - floor) <= 1e-6 * norm_y[s])
    ok = not violations and all(floor_checks)
    report(5, "collapse holds for every method/setting pair that can attain it", ok,
           "projected residual plateaus at its span defect on settings ii/iii")
    assert not violations, violations
    assert all(floor_checks)


def test_6_companion_diagnostic_separates_the_settings(bench):
    _, rows, _, _ = bench
    comp = companion(rows)
    ok = comp["i"] <= 1e-8 and comp["ii"] >= 1e-3 and comp["iii"] >= 1e-3
    report(6, "span-defect diagnostic: ~0 on setting i, large on ii/iii", ok,
           f"i={comp['i']:.2e}, ii={comp['ii']:.2e}, iii={comp['iii']:.2e}")
    assert ok


@pytest.mark.parametrize("setting", ["ii", "iii"])
def test_7_reconstruction_modes_are_true_eigenpairs(setting, toy_config):
    d = benchmark_data(toy_config, setting)
    worst = 0.0
    for k in (5, 15, 30):
        op, factors = toy_fit(d, k)
        modes = lrdmd.compute_modes(factors, "exact_reconstruction")
        rep = lrdmd.verify_eigenpairs(modes, op)
        worst = max(worst, rep.max_residual / op.frobenius)
    ok = worst <= 1e-8
    report(7, f"eigen equation residuals on setting {setting} data", ok,
           f"worst relative residual {worst:.2e}")
    assert ok


def test_8_reduced_recursion_matches_dense_powers_and_modal_path(toy_config):
    d = benchmark_data(toy_config, "ii")
    op, factors = toy_fit(d, 10)
    A = op.left @ op.right
    rng = np.random.default_rng(SEED)
    theta = rng.standard_normal(d.n)
    traj = lrdmd.simulate_reduced(factors, theta, 10)
    worst_dense = 0.0
    x = theta.copy()
    for t in range(1, 10):
        x = A @ x
        worst_dense = max(
            worst_dense, np.linalg.norm(traj.states[t] - x) / np.linalg.norm(x)
        )
    # symmetric fixture: identity predecessors and a symmetric target make
    # the fitted operator symmetric, where the modal expansion is exact
    Ys = rng.standard_normal((10, 10))
    Ys = Ys + Ys.T
    ds = lrdmd.DataMatrices(X=np.eye(10), Y=Ys)
    _, sym_factors = lrdmd.fit_optimal_lowrank_dmd(ds, 4)
    theta_s = rng.standard_normal(10)
    modes = lrdmd.compute_modes(sym_factors)
    modal = lrdmd.reconstruct_from_modes(
        modes, lrdmd.amplitudes(modes, theta_s, 10)
    )
    reduced = lrdmd.simulate_reduced(sym_factors, theta_s, 10)
    worst_modal = 0.0
    for t in range(1, 10):
        scale = max(np.linalg.norm(reduced.states[t]), 1e-300)
        worst_modal = max(
            worst_modal, np.linalg.norm(modal.states[t] - reduced.states[t]) / scale
        )
    ok = worst_dense <= 1e-9 and worst_modal <= 1e-8
    report(8, "reduced recursion matches dense powers; modal path matches it", ok,
           f"dense {worst_dense:.2e}, modal {worst_modal:.2e}")
    assert worst_dense <= 1e-9
    assert worst_modal <= 1e-8


def test_9_benchmark_runs_are_reproducible(tmp_path):
    cfg = BenchConfig(seed=SEED)
    blobs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        write_result_csv(run_benchmark(cfg), path)
        blobs.append(path.read_bytes())
    byte_identical = blobs[0] == blobs[1]
    report(9, "identical config and seed give byte-identical result CSVs", byte_identical)
    assert byte_identical


def test_10_optimal_residual_is_monotone_in_rank(bench):
    cfg, _, res, _ = bench
    violations = []
    for s in cfg.settings:
        for k in range(1, 40):
            if res[(s, "a", k + 1)] > res[(s, "a", k)] + 1e-12:
                violations.append((s, k, res[(s, "a", k + 1)] - res[(s, "a", k)]))
    ok = not violations
    report(10, "optimal residual never increases with rank", ok)
    assert not violations, violations
