"""Mutation gate for tier-1: every entry of MUTANTS is a small fault in
src/lrdmd, and tier-1 must fail on each.

For each entry the script copies src/, tests/ and pyproject.toml into a
temporary directory, replaces the entry's old text, which must occur exactly
once in its file, with the new text, and runs tier-1 there with -x. A mutant
survives when tier-1 passes. Tier-1 first runs once on the unmutated copy,
which must pass.

    python tests/mutants.py             # every mutant
    python tests/mutants.py M5 M11      # the named ones

Exit status: 0 when tier-1 catches every mutant run, 1 when one survives,
2 when the unmutated copy fails or an entry's old text is not found once.
pytest collects only test_*.py, so tier-1 itself does not run this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIRST_BLOCK = "list(row_blocks({}))[:1]"

# (name, file in src/lrdmd, old text, new text, the claim the mutant breaks)
MUTANTS = [
    (
        "M1", "solvers.py",
        "return float(np.hypot(self.row_space_defect, np.linalg.norm(self.yv.sigma[k:])))",
        "return float(np.linalg.norm(self.yv.sigma[k:]))",
        "certified_residual is the optimal residual also when X is rank deficient",
    ),
    (
        "M2", "solvers.py",
        "f = thin_svd(self._y[1] @ self.V)",
        "f = thin_svd(self._y[1])",
        "the optimal fit's core is the SVD of R_y V: it minimizes ||Y - A X||",
    ),
    (
        "M3", "linalg.py",
        "R2 = np.linalg.cholesky(Q.T @ Q).T",
        "R2 = np.eye(Q.shape[1])",
        "CholeskyQR2 takes two passes: the basis of qr_factor is orthonormal",
    ),
    (
        "M4", "solvers.py",
        'if k <= rank or fit != "optimal":',
        "if True:",
        "the optimal fit warns when it clamps k to rank(Y V)",
    ),
    (
        "M5", "solvers.py",
        "for rows in row_blocks(Y.shape[0]):",
        "for rows in " + FIRST_BLOCK.format("Y.shape[0]") + ":",
        "residual_norm through the factors sums every block of rows",
    ),
    (
        "M6", "solvers.py",
        "curve = np.hypot(self._outside, curve)",
        "curve = np.hypot(0.0, curve)",
        "the projected residual counts the part of Y outside X's basis",
    ),
    (
        "M7", "solvers.py",
        "if N > SHARED_MAX_NEW * d.m:",
        "if True:",
        "trajectory data is factored once, X and Y in one basis",
    ),
    (
        "M8", "linalg.py",
        "sigma > tol * smax",
        "sigma >= tol * smax",
        "numerical_rank counts singular values strictly above tol times the largest",
    ),
    (
        "M9", "modes.py",
        "i = np.argmax(mag, axis=0)",
        "i = np.argmax(mag[:3], axis=0)",
        "each complex mode's largest entry, in any row, is made real positive",
    ),
    (
        "M10", "modes.py",
        "for rows in row_blocks(n):",
        "for rows in " + FIRST_BLOCK.format("n") + ":",
        "verify_eigenpairs sums every block of rows",
    ),
    (
        "M11", "snapshots.py",
        "for rows in row_blocks(n):",
        "for rows in " + FIRST_BLOCK.format("n") + ":",
        "the pairs of DataMatrices(X=..., Y=...) are exactly X and Y",
    ),
    (
        "M12", "solvers.py",
        "basis, L, R, k = self._y[0], self._y[1] @ (self.V / self.s)",
        "basis, L, R, k = self.basis, self._y[1] @ (self.V / self.s)",
        "the exact fit lifts its left factor through Y's basis",
    ),
    (
        "M13", "cli.py",
        "if args.strict_rank:",
        "if False:",
        "--strict-rank refuses a rank-deficient X (exit 3)",
    ),
    (
        "M14", "linalg.py",
        "        del found, Q1  # the refused p-by-q basis, before the shifted pass\n",
        "",
        "qr_factor frees a refused CholeskyQR2 basis before the shifted pass",
    ),
    (
        "M15", "cli.py",
        '            warnings.simplefilter("error", RankClampWarning)\n',
        "",
        "the CLI refuses an optimal rank above rank(Y V_x) (exit 3)",
    ),
    (
        "M16", "cli.py",
        "if not args.strict_rank:",
        "if True:",
        "validate under --strict-rank refuses a rank-deficient X (exit 3)",
    ),
    (
        "M17", "snapshots.py",
        "M = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64)",
        "M = M.real.astype(np.float64)",
        "the CSV writer writes a complex entry as two cells, re then im",
    ),
    (
        "M18", "snapshots.py",
        '            fh.write(header + "\\n")\n',
        "            pass\n",
        "the CSV writer writes the header line first",
    ),
    (
        "M19", "solvers.py",
        "return np.sqrt(float(np.vdot(head, head)) + kept + left)",
        "return np.sqrt(kept + left)",
        "the residual curve counts the part of T outside the span of Omega",
    ),
    (
        "M20", "toybench.py",
        "res = curve[min(k, len(curve) - 1)]",
        "res = curve[min(k, len(curve) - 1) - 1]",
        "the sweep's row of rank k reads the curve at k",
    ),
    (
        "M21", "solvers.py",
        'np.concatenate((np.einsum("ij,ij->i", C, C), [0.0]))',
        'np.concatenate(([0.0], np.einsum("ij,ij->i", C, C)))',
        "the residual curve at k sums the rows of C past k, from k + 1",
    ),
    (
        "M22", "cli.py",
        "            warnings.formatwarning = _warning_line\n",
        "",
        "the CLI prints a warning as one line that names no source file",
    ),
    (
        "M23", "solvers.py",
        "        right *= sign[:, None]\n",
        "",
        "the right factor's rows take the signs of the left factor's columns",
    ),
    (
        "M24", "solvers.py",
        "if basis is self.basis:",
        "if True:",
        "where Y was factored apart, the left factor is lifted through Y's basis",
    ),
    (
        "M25", "linalg.py",
        'raise NumericalGuardError(f"LAPACK failed to factor a {p}-by-{q} matrix: {exc}") from exc',
        "raise",
        "a LAPACK breakdown in qr_factor is a NumericalGuardError",
    ),
    (
        "M26", "toybench.py",
        'warnings.simplefilter("ignore", RankDeficiencyWarning)',
        'warnings.simplefilter("ignore")',
        "the sweep ignores RankDeficiencyWarning alone; other warnings reach the caller",
    ),
    (
        "M27", "linalg.py",
        'raise NumericalGuardError(f"LAPACK failed on the SVD of a small matrix: {exc}") from exc',
        "raise",
        "a LAPACK breakdown in thin_svd is a NumericalGuardError",
    ),
    (
        "M28", "modes.py",
        "scale = column_signs(U) / norms",
        "scale = 1.0 / norms",
        "each real mode's largest-magnitude entry is made positive",
    ),
    (
        "M29", "modes.py",
        "np.conjugate(modes[:, f], out=modes[:, s])",
        "np.copyto(modes[:, s], modes[:, f])",
        "the second mode of a conjugate pair is the exact conjugate of the first",
    ),
    (
        "M30", "modes.py",
        "block -= _real_view(phi[rows] * modes.eigenvalues)",
        "block -= _real_view(phi[rows] * modes.eigenvalues) if np.iscomplexobj(phi) else 0.0",
        "verify_eigenpairs subtracts Phi Lambda on the real path too",
    ),
    (
        "M31", "linalg.py",
        "    if not np.all(np.isfinite(G)):\n",
        "    if False:\n",
        "a Cholesky Gram that overflows is refused before it is factored",
    ),
    (
        "M32", "modes.py",
        "b.lift_rows((fq.W @ V).T).T",
        "b.lift_rows(V.T).T",
        "as_stated lifts Ur V through Qb: its modes are Wq w",
    ),
    (
        "F1", "solvers.py",
        "return _read_only((f.W, core, core @ self.U.T))",
        "return _read_only((thin_svd(self._y[1]).W, core, core @ self.U.T))",
        "the optimal fit takes P from Y V_r, not Y: optimal for rank-deficient X",
    ),
    (
        "F2", "solvers.py",
        "    _check_tol(tol)\n",
        "    _check_tol(tol)\n"
        "    if d.m > d.n:\n"
        '        raise ValidationError("more snapshot pairs than states")\n',
        "every fitter accepts m > n and fits through the rank-r part of X",
    ),
]


def _tree(dest: Path) -> None:
    """Copy what tier-1 reads into dest."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _tier1(tree: Path) -> tuple:
    """(pytest's exit code, its first failure line) of tier-1 with -x in
    tree, importing lrdmd from tree/src alone."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return run.returncode, (failed[0] if failed else lines[-1])


def _mutate(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "lrdmd" / file
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise LookupError(f"old text found {count} times in {file}: {old!r}")
    path.write_text(text.replace(old, new))


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        _tree(Path(tmp))
        code, line = _tier1(Path(tmp))
    if code != 0:
        print(f"tier-1 fails on the unmutated copy: {line}", file=sys.stderr)
        return 2
    survivors = []
    for name, file, old, new, claim in MUTANTS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _tree(tree)
            try:
                _mutate(tree, file, old, new)
            except LookupError as exc:
                print(f"{name}: stale entry: {exc}", file=sys.stderr)
                return 2
            code, line = _tier1(tree)
        verdict = "SURVIVED" if code == 0 else "caught"
        print(f"{name:4} {verdict:8} {time.perf_counter() - start:5.1f} s  {claim}", flush=True)
        if code == 0:
            survivors.append(name)
        else:
            print(f"     {line}", flush=True)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived tier-1: {', '.join(survivors)}")
        return 1
    print("every mutant caught")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
