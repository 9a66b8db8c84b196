"""Reduced-order trajectory generation.

Two routes to a surrogate trajectory x~_t with x~_1 = theta:

* simulate_full, also named simulate_reduced: repeated application of the
  factored operator A = L R, run in rank space. The rho-dimensional
  recursion z_t = (R L) z_{t-1} from z_2 = R theta is lifted back as
  x~_t = L z_t; for an optimal fit A = P Q^T it is the paper's reduced
  model z_t = (Q^T P) z_{t-1}. The transition R L and the Gram L^T L that
  guards the norm of x~_t come with the operator (DmdOperator), at size c
  for an optimal fit, whose L is orthonormal and needs no Gram. Each step
  costs O(rho^2), and the kept states are lifted in one product.
* reconstruct_from_modes: the modal expansion x~_t = sum_i nu[t,i] phi_i.

Diverging trajectories are permitted but guarded: any state whose norm
exceeds the overflow limit aborts the run with OverflowGuardError.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import OverflowGuardError, ReconstructionWarning, ValidationError
from .modes import AmplitudeSchedule, DmdModes, _check_horizon, _check_theta
from .snapshots import save_csv
from .solvers import DmdOperator

OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class RomTrajectory:
    """Surrogate trajectory: states[j] is the state at time times[j].

    times is 1-based and always starts at t = 1 (the initial condition).
    """

    states: np.ndarray
    times: np.ndarray


def simulate_full(
    op: DmdOperator, theta: np.ndarray, horizon: int, stride: int = 1
) -> RomTrajectory:
    """Apply the factored operator horizon-1 times starting from theta.

    z_2 = R theta, z_t = (R L) z_{t-1} guarded by op.gram, x~_t = L z_t,
    kept every stride-th step (kernels.propagate_reduced). For an optimal
    fit the transition Q^T P is exactly P^T (Y X^+) P.
    """
    theta = _check_theta(theta, op.n)
    _check_horizon(horizon, stride)
    times = np.arange(1, horizon + 1, stride, dtype=np.int64)
    zs, overflow_step = kernels.propagate_reduced(
        np.ascontiguousarray(op.transition),
        op.right @ theta,
        horizon,
        stride,
        OVERFLOW_LIMIT,
        op.gram,
    )
    if overflow_step:
        raise OverflowGuardError(
            f"trajectory norm exceeded {OVERFLOW_LIMIT:g} at step {overflow_step}"
        )
    states = np.empty((1 + zs.shape[0], op.n))
    states[0] = theta
    states[1:] = zs @ op.left.T
    return RomTrajectory(states=states, times=times)


simulate_reduced = simulate_full


def reconstruct_from_modes(modes: DmdModes, amps: AmplitudeSchedule) -> RomTrajectory:
    """Modal expansion x~_t = sum_i nu[t,i] phi_i for t = 1..T.

    The state is the real part of the expansion; a conjugate-closed mode
    set makes the imaginary part vanish, and a warning is raised when it
    does not (relative to the state norm). Real modes take one real product,
    Re(nu) Phi^T, and form the imaginary part Im(nu) Phi^T only when nu has
    a nonzero imaginary entry.
    """
    if modes.eigenvalues.shape[0] != amps.values.shape[1]:
        raise ValidationError("modes and amplitude schedule have mismatched mode counts")
    nu, phi = amps.values, modes.modes
    if np.iscomplexobj(phi):
        expanded = nu @ phi.T
        parts = expanded.view(np.float64).reshape(-1, 2)
        real_sq, imag_sq = np.einsum("ij,ij->j", parts, parts)
        states = np.ascontiguousarray(expanded.real)
    else:
        states = np.real(nu) @ phi.T
        real_sq = imag_sq = 0.0
        if np.any(np.imag(nu)):
            imag = np.imag(nu) @ phi.T
            real_sq, imag_sq = np.vdot(states, states), np.vdot(imag, imag)
    real_norm, imag_norm = float(np.sqrt(real_sq)), float(np.sqrt(imag_sq))
    if imag_norm > 1e-6 * max(real_norm, 1e-300):
        warnings.warn(
            f"modal reconstruction has imaginary norm {imag_norm:.3e} "
            f"(relative {imag_norm / max(real_norm, 1e-300):.3e}); the mode set may "
            "not be conjugate-closed or the variant may not reproduce the operator",
            ReconstructionWarning,
            stacklevel=2,
        )
    horizon = amps.values.shape[0]
    return RomTrajectory(
        states=states,
        times=np.arange(1, horizon + 1, dtype=np.int64),
    )


def save_trajectory(traj: RomTrajectory, path) -> None:
    """Write a trajectory CSV: header t,x0,...,x{n-1}, one row per kept step."""
    header = "t," + ",".join(f"x{j}" for j in range(traj.states.shape[1]))
    save_csv(path, traj.states, header, (str(int(t)) for t in traj.times))
