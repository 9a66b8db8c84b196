"""Summaries of suite result files, and the before/after comparison."""

import json
import statistics
from pathlib import Path


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _by_workload(result, trace):
    groups = {}
    for run in result["runs"]:
        if run["trace"] == trace:
            groups.setdefault(run["workload"], []).append(run)
    return groups


def print_suite(result) -> None:
    """Every metric by name with its unit: median [q1, q3] over the runs,
    and the operations attempted and failed, per workload."""
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        for workload, runs in _by_workload(result, trace).items():
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            causes = {}
            for r in runs:
                for cause, n in r["failures"].items():
                    causes[cause] = causes.get(cause, 0) + n
            correct = all(r["result"]["correct"] for r in runs)
            print(f"\n{workload} — {title}, {len(runs)} run(s), seeds "
                  f"{sorted(r['seed'] for r in runs)}: attempted {attempted}, failed {failed}"
                  f"{' ' + str(causes) if causes else ''}, correct={correct}")
            if trace == 0:
                tails = sorted({(r["tail"]["percentile"], r["tail"]["samples"]) for r in runs})
                print(f"  op_tail_ms is p{tails[0][0]:g} of {min(t[1] for t in tails)}"
                      f"..{max(t[1] for t in tails)} samples per run")
            for name in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                unit = runs[0]["result"]["metrics"][name]["unit"]
                q1, q2, q3 = quartiles(values)
                print(f"  {name:30s} {q2:12.5g} {unit:8s} [{q1:.5g}, {q3:.5g}]")


def compare(before_path: Path, after_path: Path, benchmark_json: Path) -> int:
    """For each workload and end-to-end metric: medians and quartiles of
    both files, the ratio after/before, and whether the after median is
    worse than the before median by more than the metric's bound."""
    spec = json.loads(benchmark_json.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = _by_workload(json.loads(Path(before_path).read_text()), 0)
    after = _by_workload(json.loads(Path(after_path).read_text()), 0)
    print(f"{'workload':12s} {'metric':14s} {'before median [q1, q3]':>32s} "
          f"{'after median [q1, q3]':>32s} {'ratio':>7s}  verdict")
    worse = 0
    for workload in [w for w in before if w in after]:
        for name, m in metrics.items():
            b = [r["result"]["metrics"][name]["value"] for r in before[workload]]
            a = [r["result"]["metrics"][name]["value"] for r in after[workload]]
            b1, b2, b3 = quartiles(b)
            a1, a2, a3 = quartiles(a)
            ratio = a2 / b2 if b2 else float("inf")
            if m["better"] == "lower":
                regressed = ratio > 1 + m["bound"]
            else:
                regressed = ratio < 1 - m["bound"]
            spread = max((b3 - b1) / b2 if b2 else 0.0, (a3 - a1) / a2 if a2 else 0.0)
            if regressed:
                verdict = f"WORSE beyond bound {m['bound']:g}"
                worse += 1
            elif spread > m["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            print(f"{workload:12s} {name:14s} {b2:12.5g} [{b1:.4g}, {b3:.4g}]".ljust(61)
                  + f" {a2:12.5g} [{a1:.4g}, {a3:.4g}]".ljust(33)
                  + f" {ratio:7.3f}  {verdict}")
    return 1 if worse else 0
