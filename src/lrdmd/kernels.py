"""Loop-bound numerical kernels in plain numpy.

The kernels here iterate: the alternating-least-squares sweep used as a
brute-force reference for the closed-form solver, and the sequential
trajectory recursions. Everything else in the package is BLAS/LAPACK-bound.

The sweep runs every restart at once: the factors are stacked as
(restarts, n, k) and (restarts, k, n), so each iteration is a handful of
batched numpy calls and the Python loop has `iters` steps, not
`restarts * iters`. The recursions are sequential by nature and loop over
time steps in rank space, with each step's guard norm taken from the
rank-sized state: no step touches an n-row array.
"""

import numpy as np


def _ridge(G, k):
    """Vanishing ridge 1e-12 * tr(G) / k + 1e-30 for each stacked (k, k) G,
    shaped to broadcast against the stack."""
    tr = np.einsum("rii->r", G)
    return (1e-12 * tr / k + 1e-30)[:, None, None]


def als_sweep(X, Y, YXp, inits, iters):
    """Best-of-restarts alternating least squares for min ||Y - L R X||_F.

    X, Y are n-by-m data matrices, YXp is the precomputed product of Y with
    the pseudo-inverse of X, and inits stacks the random starting values of
    the left factor L (restarts, n, k). Each restart alternates closed-form
    updates of L (n, k) and R (k, n) for `iters` iterations; the update
    solves are regularized with a vanishing ridge so a collapsed factor
    cannot abort the sweep. Every iterate is a feasible rank-<=k point, so
    the best objective seen is always an upper bound on the optimum.

    All restarts advance together. The best iterate is tracked per restart
    with a strict `<`, and the first restart reaching the overall minimum
    wins, so ties resolve as in a restart-by-restart sweep.

    Returns (best objective, best L, best R).
    """
    restarts, n, k = inits.shape
    eye = np.eye(k)
    L = inits.copy()
    best = np.full(restarts, np.inf)
    best_L = np.zeros((restarts, n, k))
    best_R = np.zeros((restarts, k, n))
    for _ in range(iters):
        # R-step: R = (L^T L)^-1 L^T (Y X^+), ridge keeps it solvable
        LT = L.transpose(0, 2, 1)
        G = LT @ L
        R = np.linalg.solve(G + _ridge(G, k) * eye, LT @ YXp)
        Z = R @ X
        # L-step: L = Y Z^T (Z Z^T)^-1
        H = Z @ Z.transpose(0, 2, 1)
        L = np.linalg.solve(H + _ridge(H, k) * eye, Z @ Y.T).transpose(0, 2, 1)
        E = Y - L @ Z
        obj = np.sqrt(np.einsum("rij,rij->r", E, E))
        better = obj < best
        np.copyto(best, obj, where=better)
        np.copyto(best_L, L, where=better[:, None, None])
        np.copyto(best_R, R, where=better[:, None, None])
    r = int(np.argmin(best))
    return best[r], best_L[r], best_R[r]


def propagate_factored(left, right, x0, horizon, stride, limit):
    """Iterate x <- left (right x) from x0, keeping every stride-th state.

    States are indexed t = 1..horizon with x0 at t = 1; rows of the output
    hold the states at t = 1, 1+stride, 1+2*stride, ... The recursion runs
    in rank space: x_t = left z_t with z_2 = right x0 and z_{t+1} = (right
    left) z_t, so a step costs O(rho^2), and the kept states are lifted in
    one product at the end. The squared norm of each new state, z^T (left^T
    left) z, is checked against limit**2; on overflow the step index that
    tripped the guard is returned (0 means the whole horizon was safe).
    """
    n = x0.shape[0]
    n_keep = 1 + (horizon - 1) // stride
    out = np.empty((n_keep, n))
    out[0] = x0
    if horizon == 1:
        return out, 0
    M = right @ left
    G = left.T @ left
    Z = np.empty((n_keep - 1, M.shape[0]))
    z = right @ x0
    row, overflow = 0, 0
    for t in range(2, horizon + 1):
        if t > 2:
            z = M @ z
        s = float(z @ (G @ z))
        if not np.isfinite(s) or s > limit * limit:
            overflow = t
            break
        if (t - 1) % stride == 0:
            Z[row] = z
            row += 1
    out[1 : row + 1] = Z[:row] @ left.T
    return out[: row + 1], overflow


def propagate_reduced(M, z_first, horizon, stride, limit):
    """Iterate the low-dimensional recursion z_t = M z_{t-1} from z_2.

    z_first is the state at t = 2; output rows hold z at the kept times
    t = 1+stride, 1+2*stride, ... up to horizon. Overflow is reported the
    same way as in propagate_factored.
    """
    k = z_first.shape[0]
    n_keep = (horizon - 1) // stride
    out = np.empty((n_keep, k))
    z = z_first.copy()
    row = 0
    for t in range(2, horizon + 1):
        if t > 2:
            z = M @ z
        s = float(z @ z)
        if not np.isfinite(s) or s > limit * limit:
            return out[:row], t
        if (t - 1) % stride == 0:
            out[row] = z
            row += 1
    return out[:row], 0
