"""Independent numpy references for the benchmark's output checks.

Nothing here imports ``lrdmd``: every quantity the checks compare against
is computed from the raw data with numpy alone, so a fault in
``lrdmd.linalg`` or ``lrdmd.solvers`` cannot also corrupt its own check.
"""

import numpy as np

# Relative singular-value threshold for the numerical rank of X; the same
# default the program documents for its own rank decisions.
RANK_TOL = 1e-12


class OptimumCurve:
    """Global optimum of min ||Y - A X||_F over rank(A) <= k, for every k.

    Reduced-rank regression: with X = W_r S_r V_r^T the rank-r SVD of X
    (r its numerical rank), the optimum is

        ||Y||^2 - ||Y V_r||^2 + sum_{i>k} sigma_i(Y V_r)^2.

    The first difference equals ||Y - Y V_r V_r^T||^2 (Pythagoras), which
    is evaluated directly here so that no cancellation limits the
    precision when X has full column rank. The minimizer itself is
    P_k P_k^T Y X^+, with P_k the top-k left singular vectors of Y V_r.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, tol: float = RANK_TOL):
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        W, s, Vt = np.linalg.svd(X, full_matrices=False)
        r = int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0
        V = Vt[:r].T
        YV = Y @ V
        P, t, _ = np.linalg.svd(YV, full_matrices=False)
        self.rank_x = r
        self.norm_y = float(np.linalg.norm(Y))
        self.defect = float(np.linalg.norm(Y - YV @ V.T))
        self.sigma = t
        # tails[k] = sqrt(sum_{i>k} sigma_i^2), tails[len(t)] = 0
        self.tails = np.sqrt(np.append(np.cumsum((t**2)[::-1])[::-1], 0.0))
        self._P = P
        self._core = (P.T @ YV) / s[:r]
        self._W = W[:, :r]
        self._WtX = s[:r, None] * Vt[:r]  # W_r^T X

    def residual(self, k: int) -> float:
        return float(np.hypot(self.defect, self.tails[min(k, self.sigma.size)]))

    def fitted(self, k: int) -> np.ndarray:
        """A_k X for the rank-k minimizer A_k, without forming A_k."""
        k = min(k, self.sigma.size)
        return self._P[:, :k] @ (self._core[:k] @ self._WtX)

    def operator(self, k: int):
        """Factors (L, R) of the rank-k minimizer, L n-by-k and R k-by-n."""
        k = min(k, self.sigma.size)
        return self._P[:, :k], self._core[:k] @ self._W.T


def residual(L: np.ndarray, R: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """||Y - L (R X)||_F, evaluated without forming L R."""
    return float(np.linalg.norm(Y - L @ (R @ X)))


def frobenius(L: np.ndarray, R: np.ndarray) -> float:
    """||L R||_F from the factors: sqrt(tr((L^T L)(R R^T)))."""
    return float(np.sqrt(abs(np.sum((L.T @ L) * (R @ R.T)))))


def eigen_residuals(L, R, eigenvalues, modes) -> np.ndarray:
    """Column norms of (L R) phi_i - lambda_i phi_i."""
    return np.linalg.norm(L @ (R @ modes) - modes * eigenvalues, axis=0)


def amplitude_schedule(eigenvalues, modes, theta, horizon: int) -> np.ndarray:
    """nu[t, i] = lambda_i^t (phi_i^* theta) for t = 0..horizon-1."""
    powers = eigenvalues[None, :] ** np.arange(horizon)[:, None]
    return powers * (np.conj(modes).T @ theta)[None, :]


def full_recursion(L, R, theta, horizon: int, stride: int) -> np.ndarray:
    """States x_1 = theta, x_{t+1} = L (R x_t), kept at t = 1, 1+stride, ..."""
    x = np.array(theta, dtype=np.float64)
    kept = [x.copy()]
    for t in range(2, horizon + 1):
        x = L @ (R @ x)
        if (t - 1) % stride == 0:
            kept.append(x.copy())
    return np.array(kept)


def reduced_recursion(P, Q, theta, horizon: int, stride: int) -> np.ndarray:
    """Lifted k-dimensional recursion for A = P Q^T: z_2 = Q^T theta,
    z_t = (Q^T P) z_{t-1}, x_t = P z_t, kept at the same times as
    full_recursion."""
    M = Q.T @ P
    z = Q.T @ np.asarray(theta, dtype=np.float64)
    kept = [np.array(theta, dtype=np.float64)]
    for t in range(2, horizon + 1):
        if t > 2:
            z = M @ z
        if (t - 1) % stride == 0:
            kept.append(P @ z)
    return np.array(kept)
