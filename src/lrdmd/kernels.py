"""Loop-bound numerical kernels in plain numpy.

The kernels here iterate: the alternating-least-squares sweep used as a
brute-force reference for the closed-form solver, and the sequential
trajectory recursions. Everything else in the package is BLAS/LAPACK-bound.

The sweep runs every restart at once: the factors are stacked as
(restarts, n, k) and (restarts, k, n), so each iteration is a handful of
batched numpy calls and the Python loop has `iters` steps, not
`restarts * iters`. The two trajectory recursions share one loop over
time steps in rank space (_recurse): each step is one matrix-vector
product into a buffer, and the overflow guard is checked once per block of
steps by one vectorized norm of the rank-sized states, so no step touches
an n-row array or runs interpreted guard work.
"""

import numpy as np

# Steps of a recursion between two checks of its overflow guard: one
# vectorized norm per block replaces a guard per step, and a block of
# states stays in cache.
_BLOCK = 256


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


def _recurse(M, z, horizon, stride, limit, G=None):
    """(kept, overflow) of the recursion z_t = M z_{t-1} from z_2 = z.

    kept holds z_t at t = 1+stride, 1+2*stride, ... up to horizon. The
    guard is the squared norm z^T z, or z^T G z when G is given, checked
    against limit**2 once per block of _BLOCK steps, by one vectorized
    norm; overflow is the first step that trips it (0: none did), and no
    state from that step on is kept. Each step is one np.dot into the
    block's buffer (a BLAS gemv, with less call overhead than np.matmul),
    so the states are those of z = M @ z step by step, and the recursion
    holds the kept states and one block, whatever the horizon. Steps past
    a trip in its block are computed and discarded, their floating-point
    warnings with them.
    """
    kept = np.empty(((horizon - 1) // stride, z.shape[0]))
    if horizon == 1:
        return kept, 0
    buf = np.empty((min(_BLOCK, horizon - 1), z.shape[0]))
    rows = list(buf)
    buf[0] = z
    prev, skip, row = rows[0], 1, 0
    bound = limit * limit
    for start in range(2, horizon + 1, _BLOCK):
        count = min(_BLOCK, horizon + 1 - start)
        with np.errstate(over="ignore", invalid="ignore"):
            for state in rows[skip:count]:
                np.dot(M, prev, out=state)
                prev = state
            skip = 0
            block = buf[:count]
            s = np.einsum("ij,ij->i", block if G is None else block @ G, block)
        tripped = np.flatnonzero(~(s <= bound))
        end = start + (int(tripped[0]) if tripped.size else count)
        first = start + (-(start - 1) % stride)
        times = np.arange(first, end, stride)
        kept[row : row + times.size] = buf[times - start]
        row += times.size
        if tripped.size:
            return kept[:row], end
    return kept, 0


def propagate_factored(left, right, x0, horizon, stride, limit):
    """Iterate x <- left (right x) from x0, keeping every stride-th state.

    States are indexed t = 1..horizon with x0 at t = 1; rows of the output
    hold the states at t = 1, 1+stride, 1+2*stride, ... The recursion runs
    in rank space: x_t = left z_t with z_2 = right x0 and z_{t+1} = (right
    left) z_t, so a step costs O(rho^2), and the kept states are lifted in
    one product at the end. The squared norm of each new state, z^T (left^T
    left) z, is checked against limit**2 (see _recurse); on overflow the
    step index that tripped the guard is returned (0 means the whole
    horizon was safe), with the states before it.
    """
    if horizon == 1:
        return x0[None, :].copy(), 0
    Z, overflow = _recurse(right @ left, right @ x0, horizon, stride, limit, G=left.T @ left)
    out = np.empty((1 + Z.shape[0], x0.shape[0]))
    out[0] = x0
    out[1:] = Z @ left.T
    return out, overflow


def propagate_reduced(M, z_first, horizon, stride, limit):
    """Iterate the low-dimensional recursion z_t = M z_{t-1} from z_2.

    z_first is the state at t = 2; output rows hold z at the kept times
    t = 1+stride, 1+2*stride, ... up to horizon. The guard is on ||z_t||
    and overflow is reported the same way as in propagate_factored.
    """
    return _recurse(M, z_first, horizon, stride, limit)
