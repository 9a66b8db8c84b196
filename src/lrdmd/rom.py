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
from pathlib import Path

import numpy as np

from . import kernels
from .errors import OverflowGuardError, ReconstructionWarning, ValidationError
from .modes import AmplitudeSchedule, DmdModes, _check_theta
from .snapshots import write_csv_rows
from .solvers import DmdOperator

OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class RomTrajectory:
    """Surrogate trajectory: states[j] is the state at time times[j].

    times is 1-based and always starts at t = 1 (the initial condition).
    reduced_states holds the rank-space coordinates z_t for times[1:] when
    the trajectory came from simulate_full, and is None for the modal
    expansion.
    """

    states: np.ndarray
    times: np.ndarray
    reduced_states: np.ndarray | None = None


def _check_horizon(horizon, stride):
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if stride < 1:
        raise ValidationError("stride must be >= 1")


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
    return RomTrajectory(states=states, times=times, reduced_states=zs)


simulate_reduced = simulate_full


def reconstruct_from_modes(modes: DmdModes, amps: AmplitudeSchedule) -> RomTrajectory:
    """Modal expansion x~_t = sum_i nu[t,i] phi_i for t = 1..T.

    The state is the real part of the expansion; a conjugate-closed mode
    set makes the imaginary part vanish, and a warning is raised when it
    does not (relative to the state norm).
    """
    if modes.eigenvalues.shape[0] != amps.values.shape[1]:
        raise ValidationError("modes and amplitude schedule have mismatched mode counts")
    complex_states = amps.values @ modes.modes.T
    imag_norm = float(np.linalg.norm(complex_states.imag))
    real_norm = float(np.linalg.norm(complex_states.real))
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
        states=np.ascontiguousarray(complex_states.real),
        times=np.arange(1, horizon + 1, dtype=np.int64),
    )


def save_trajectory(traj: RomTrajectory, path) -> None:
    """Write a trajectory CSV: header t,x0,...,x{n-1}, one row per kept step."""
    n = traj.states.shape[1]
    with Path(path).open("w", newline="") as fh:
        fh.write("t," + ",".join(f"x{j}" for j in range(n)) + "\n")
        write_csv_rows(fh, traj.states, (str(int(t)) for t in traj.times))
