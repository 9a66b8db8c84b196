"""Layer tracing from outside the program.

``Tracer.install`` replaces, in each ``lrdmd`` module's namespace, every
function that the module imported from another ``lrdmd`` module by a
wrapper that records a span: name, start, end, parent span and the
operation it belongs to. The kernels are called as module attributes
(``kernels.als_sweep``), so they are wrapped where they are defined. The
package namespace is wrapped too, since the benchmark calls the library
through it, and so is ``cli.main``. A few calls inside ``toybench`` are
wrapped so that the sweep's data generation shows as its own span.
``uninstall`` puts every original back. Nothing under ``src/`` changes.

Spans live in memory and are written out once, at the end of a run.
"""

import functools
import importlib
import os
import time
import types

MODULES = ("cli", "solvers", "snapshots", "modes", "rom", "altmin", "toybench")
EXTRA = {
    "cli": ("main",),
    "kernels": ("als_sweep", "propagate_factored", "propagate_reduced"),
    "toybench": ("generate_toy_operator", "generate_snapshots"),
}
FITTERS = {
    "solvers.fit_optimal_lowrank_dmd": "optimal",
    "solvers.fit_truncated_exact_dmd": "truncated",
    "solvers.fit_projected_dmd": "projected",
    "solvers.fit_exact_dmd": "exact",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _fitter_info(args, kwargs, result):
    op = result[0] if isinstance(result, tuple) else result
    k = _arg(args, kwargs, 1, "k") if len(args) > 1 or "k" in kwargs else None
    return {"k": k, "rank": op.declared_rank}


# What a span records beyond its timing, from its arguments and result.
ANNOTATE = {
    "linalg.thin_svd": lambda a, kw, r: {"shape": _arg(a, kw, 0, "M").shape},
    "linalg.gram_singular_triplets": lambda a, kw, r: {"shape": _arg(a, kw, 0, "Y").shape},
    "snapshots.load_snapshots": lambda a, kw, r: {"bytes": _file_size(_arg(a, kw, 0, "path"))},
    "snapshots.save_snapshots": lambda a, kw, r: {"bytes": _file_size(_arg(a, kw, 1, "path"))},
    "rom.save_trajectory": lambda a, kw, r: {"bytes": _file_size(_arg(a, kw, 1, "path"))},
    "rom.simulate_reduced": lambda a, kw, r: {"steps": _arg(a, kw, 2, "horizon")},
    "rom.simulate_full": lambda a, kw, r: {"steps": _arg(a, kw, 2, "horizon")},
    "kernels.als_sweep": lambda a, kw, r: {"iters": _arg(a, kw, 3, "inits").shape[0]
                                           * _arg(a, kw, 4, "iters")},
    **{name: _fitter_info for name in FITTERS},
}


class Tracer:
    """Spans are lists [name, start, end, parent, op, info]."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, annotate = self.spans, self._stack, ANNOTATE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    def _patch(self, namespace, attr, fn):
        defining = fn.__module__.rsplit(".", 1)[-1]
        self._patches.append((namespace, attr, fn))
        setattr(namespace, attr, self._wrap(f"{defining}.{fn.__name__}", fn))

    def install(self, package) -> None:
        if self._patches:
            return
        namespaces = [package] + [importlib.import_module(f"lrdmd.{m}") for m in MODULES]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("lrdmd.")
                    and value.__module__ != ns.__name__
                ):
                    self._patch(ns, attr, value)
        for mod, attrs in EXTRA.items():
            ns = importlib.import_module(f"lrdmd.{mod}")
            for attr in attrs:
                self._patch(ns, attr, getattr(ns, attr))

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._patches):
            setattr(namespace, attr, fn)
        self._patches.clear()

    def write(self, path) -> None:
        """One CSV row per span; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,op,parent,name,start_s,end_s,info\n")
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in (info or {}).items())
                fh.write(f"{i},{op},{parent},{name},{start - t0:.9f},{end - t0:.9f},{extra}\n")


def svd_flop(shape) -> float:
    """Computed flop count of a thin SVD with both singular bases
    (R-SVD, Golub & Van Loan table 8.6.1): 6 p q^2 + 20 q^3, p >= q."""
    p, q = max(shape), min(shape)
    return 6.0 * p * q * q + 20.0 * q**3


def gram_flop(shape) -> float:
    """Computed flop count of Y^T Y (2 p q^2) plus a symmetric eigensolve
    with vectors (about 9 q^3)."""
    p, q = shape
    return 2.0 * p * q * q + 9.0 * q**3


def self_times(spans, selected):
    """Self time of each selected span: its duration minus that of its
    direct children."""
    child = {}
    for i in selected:
        parent = spans[i][3]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]
    return {i: spans[i][2] - spans[i][1] - child.get(i, 0.0) for i in selected}


def factorizations_by_name(spans, in_ops, op_names) -> dict:
    """Mean thin SVD and Gram calls of each kind of operation."""
    counts = {}
    for name in op_names:
        counts.setdefault(name, {"ops": 0, "thin_svd": 0, "gram": 0})["ops"] += 1
    kinds = {"linalg.thin_svd": "thin_svd", "linalg.gram_singular_triplets": "gram"}
    for i in in_ops:
        kind = kinds.get(spans[i][0])
        if kind:
            counts[op_names[spans[i][4]]][kind] += 1
    return {name: {"thin_svd": c["thin_svd"] / c["ops"], "gram": c["gram"] / c["ops"]}
            for name, c in counts.items()}


def layer_metrics(spans, op_names: list, setup_reps: int) -> tuple:
    """Per-layer metrics of the traced operations (op >= 0), per operation,
    plus the computed work of each factorization kind and the
    factorizations each kind of operation makes. op_names[i] names
    operation i.

    snapshots.save_ms comes from the set-up spans (op == -1), per set-up.
    """
    ops = len(op_names)
    in_ops = [i for i, s in enumerate(spans) if s[4] >= 0]
    selfs = self_times(spans, in_ops)
    by_name = {}
    for i in in_ops:
        by_name.setdefault(spans[i][0], []).append(i)

    def ms(*names):
        return 1e3 * sum(spans[i][2] - spans[i][1] for n in names for i in by_name.get(n, ())) / ops

    def secs(*names):
        return sum(spans[i][2] - spans[i][1] for n in names for i in by_name.get(n, ()))

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def info_sum(key, *names):
        return sum(info[key] for n in names for info in infos(n))

    def self_ms(*names):
        return 1e3 * sum(selfs[i] for n in names for i in by_name.get(n, ())) / ops

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def infos(name):
        # a span whose call raised carries no info
        return [spans[i][5] for i in by_name.get(name, ()) if spans[i][5]]

    svd = [info["shape"] for info in infos("linalg.thin_svd")]
    gram = [info["shape"] for info in infos("linalg.gram_singular_triplets")]
    flop = sum(map(svd_flop, svd)) + sum(map(gram_flop, gram))
    fact_s = secs("linalg.thin_svd", "linalg.gram_singular_triplets")
    load_s = secs("snapshots.load_snapshots")
    sim = ("rom.simulate_reduced", "rom.simulate_full")
    clamps = sum(
        1
        for n in FITTERS
        for info in infos(n)
        if info["k"] is not None and info["rank"] < info["k"]
    )
    save = [i for i, s in enumerate(spans) if s[4] < 0 and s[0] == "snapshots.save_snapshots"]
    mib = 1024.0 * 1024.0

    metrics = {
        "snapshots.load_ms": ms("snapshots.load_snapshots"),
        "snapshots.load_mib_per_s": rate(info_sum("bytes", "snapshots.load_snapshots") / mib,
                                         load_s),
        "snapshots.save_ms": 1e3 * sum(spans[i][2] - spans[i][1] for i in save) / setup_reps,
        "snapshots.build_ms": ms("snapshots.build_data_matrices"),
        "snapshots.validate_ms": ms("snapshots.validate_rank_assumptions"),
        "linalg.svd_calls_per_op": count("linalg.thin_svd") / ops,
        "linalg.gram_calls_per_op": count("linalg.gram_singular_triplets") / ops,
        "linalg.svd_ms": ms("linalg.thin_svd"),
        "linalg.gram_ms": ms("linalg.gram_singular_triplets"),
        "linalg.gflop_computed_per_op": flop / 1e9 / ops,
        "linalg.gflop_per_s": rate(flop / 1e9, fact_s),
        **{f"solvers.{kind}_ms": ms(name) for name, kind in FITTERS.items()},
        "solvers.self_ms": self_ms(*FITTERS),
        "solvers.residual_ms": ms("solvers.residual_norm"),
        "solvers.clamps_per_op": clamps / ops,
        "modes.compute_ms": ms("modes.compute_modes"),
        "modes.verify_ms": ms("modes.verify_eigenpairs"),
        "modes.amplitudes_ms": ms("modes.amplitudes"),
        "rom.simulate_ms": ms(*sim),
        "rom.steps_per_s": rate(info_sum("steps", *sim), secs(*sim)),
        "rom.save_ms": ms("rom.save_trajectory"),
        "rom.save_mib": info_sum("bytes", "rom.save_trajectory") / mib / ops,
        "kernels.propagate_ms": ms("kernels.propagate_factored", "kernels.propagate_reduced"),
        "kernels.als_sweep_ms": ms("kernels.als_sweep"),
        "kernels.als_iters_per_s": rate(info_sum("iters", "kernels.als_sweep"),
                                        secs("kernels.als_sweep")),
        "altmin.self_ms": self_ms("altmin.als_lowrank_fit"),
        "toybench.generate_ms": ms("toybench.generate_toy_operator",
                                   "toybench.generate_snapshots"),
        "toybench.sweep_ms": ms("toybench.run_benchmark"),
        "toybench.self_ms": self_ms("toybench.run_benchmark"),
        "toybench.write_ms": ms("toybench.write_result_csv"),
        "cli.self_ms": self_ms("cli.main"),
    }
    computed = {
        "thin_svd": {
            "calls_per_op": len(svd) / ops,
            "gflop_per_op": sum(map(svd_flop, svd)) / 1e9 / ops,
            "operand_mib_per_op": sum(8.0 * p * q for p, q in svd) / mib / ops,
        },
        "gram_eigh": {
            "calls_per_op": len(gram) / ops,
            "gflop_per_op": sum(map(gram_flop, gram)) / 1e9 / ops,
            "operand_mib_per_op": sum(8.0 * p * q for p, q in gram) / mib / ops,
        },
        "flop_model": "thin SVD 6pq^2+20q^3; Gram 2pq^2+9q^3 (computed from shapes)",
        "factorizations_per_op": factorizations_by_name(spans, in_ops, op_names),
    }
    return metrics, computed
