"""Brute-force alternating-least-squares reference for the rank-constrained
fit, used to cross-check the closed-form solver.

Deliberately independent of the SVD-based machinery in the rest of the
package: the factor updates go through numpy's pseudo-inverse / solves
directly, and the best objective over many random restarts upper-bounds
the true optimum (every iterate is a feasible rank-<=k point). The sweep
itself is `kernels.als_sweep`, which advances all restarts together as
stacked (restarts, k, k) solves, one Python step per iteration.
"""

import numpy as np

from . import kernels
from .errors import ValidationError


def als_lowrank_fit(
    X: np.ndarray,
    Y: np.ndarray,
    rank: int,
    restarts: int = 50,
    iters: int = 500,
    seed: int = 0,
):
    """Minimize ||Y - L R X||_F over L (n, rank) and R (rank, n) by
    alternating exact updates, restarted from `restarts` random L's.

    Returns (best objective, L, R) for the best iterate seen anywhere in
    the sweep. The objective can only over-estimate the true rank-<=k
    optimum, never undercut it.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape != Y.shape:
        raise ValidationError("X and Y must be matrices of identical shape")
    if rank < 1:
        raise ValidationError("rank must be >= 1")
    if restarts < 1 or iters < 1:
        raise ValidationError("restarts and iters must be >= 1")
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    inits = rng.standard_normal((restarts, n, rank))
    YXp = Y @ np.linalg.pinv(X)
    return kernels.als_sweep(X, Y, np.ascontiguousarray(YXp), inits, iters)
