"""Low-rank dynamic mode decomposition.

Fits rank-constrained linear operators to snapshot data, including the
closed-form global minimizer of the rank-constrained least-squares
problem, extracts spectral modes and amplitudes, runs reduced-order
surrogate trajectories, and benchmarks the solvers on a synthetic
low-rank system.
"""

__version__ = "0.1.0"

from .altmin import als_lowrank_fit
from .errors import (
    DegenerateModeWarning,
    LowRankDmdError,
    NumericalGuardError,
    OverflowGuardError,
    RankClampWarning,
    RankDeficiencyWarning,
    RankGuardError,
    ReconstructionWarning,
    SnapshotFormatError,
    ValidationError,
)
from .linalg import DEFAULT_TOL, SvdFactors, numerical_rank, thin_svd
from .modes import (
    AmplitudeSchedule,
    DmdModes,
    EigenpairReport,
    amplitudes,
    compute_modes,
    verify_eigenpairs,
)
from .rom import (
    RomTrajectory,
    reconstruct_from_modes,
    save_trajectory,
    simulate_full,
    simulate_reduced,
)
from .snapshots import (
    DataMatrices,
    SnapshotSet,
    load_snapshots,
    save_snapshots,
)
from .solvers import (
    DmdOperator,
    Factorization,
    factorize,
    fit_exact_dmd,
    fit_optimal_lowrank_dmd,
    fit_projected_dmd,
    fit_truncated_exact_dmd,
    residual_norm,
)
from .toybench import (
    BenchConfig,
    BenchRow,
    generate_snapshots,
    generate_toy_operator,
    load_config,
    run_benchmark,
    write_result_csv,
)

__all__ = [
    "__version__",
    "als_lowrank_fit",
    "AmplitudeSchedule",
    "BenchConfig",
    "BenchRow",
    "DataMatrices",
    "DEFAULT_TOL",
    "DegenerateModeWarning",
    "DmdModes",
    "DmdOperator",
    "EigenpairReport",
    "Factorization",
    "LowRankDmdError",
    "NumericalGuardError",
    "OverflowGuardError",
    "RankClampWarning",
    "RankDeficiencyWarning",
    "RankGuardError",
    "ReconstructionWarning",
    "RomTrajectory",
    "SnapshotFormatError",
    "SnapshotSet",
    "SvdFactors",
    "ValidationError",
    "amplitudes",
    "compute_modes",
    "factorize",
    "fit_exact_dmd",
    "fit_optimal_lowrank_dmd",
    "fit_projected_dmd",
    "fit_truncated_exact_dmd",
    "generate_snapshots",
    "generate_toy_operator",
    "load_config",
    "load_snapshots",
    "numerical_rank",
    "reconstruct_from_modes",
    "residual_norm",
    "run_benchmark",
    "save_snapshots",
    "save_trajectory",
    "simulate_full",
    "simulate_reduced",
    "thin_svd",
    "verify_eigenpairs",
    "write_result_csv",
]
