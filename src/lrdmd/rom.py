"""Reduced-order trajectory generation.

Three routes to a surrogate trajectory x~_t with x~_1 = theta:

* simulate_reduced: the k-dimensional recursion z_t = (P^T A P) z_{t-1}
  driven by z_2 = Q^T theta, lifted back as x~_t = P z_t. The k-by-k
  transition matrix Q^T P comes with the optimal fit, formed at size c
  (OptimalLowRankFactors.transition); only a bundle built by hand forms it
  here, over the n rows. Each step costs O(k^2).
* simulate_full: repeated application of the factored operator A = L R,
  run in rank space as z_{t+1} = (R L) z_t from z_2 = R theta, O(rho^2) per
  step; the kept states are lifted as L z_t in one product. An optimal
  operator carries R L (DmdOperator.transition) and an orthonormal L, so
  it takes the reduced recursion with the guard on ||z_t|| = ||x_t||; any
  other operator forms R L and L^T L here (kernels.propagate_factored).
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
from .solvers import DmdOperator, OptimalLowRankFactors

OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class RomTrajectory:
    """Surrogate trajectory: states[j] is the state at time times[j].

    times is 1-based and always starts at t = 1 (the initial condition).
    reduced_states holds the k-dimensional coordinates for times[1:] when
    the trajectory came from the reduced recursion, else None.
    """

    states: np.ndarray
    times: np.ndarray
    reduced_states: np.ndarray | None = None


def _check_horizon(horizon, stride):
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if stride < 1:
        raise ValidationError("stride must be >= 1")


def _reduced_recursion(P, transition, z2, theta, horizon, stride, label):
    """(states, zs): z_t = transition z_{t-1} from z_2, kept every stride-th
    step as zs and lifted as P z_t below theta; ||z_t|| is guarded, which is
    ||x_t|| for an orthonormal P."""
    zs, overflow_step = kernels.propagate_reduced(
        np.ascontiguousarray(transition), z2, horizon, stride, OVERFLOW_LIMIT
    )
    if overflow_step:
        raise OverflowGuardError(
            f"{label} norm exceeded {OVERFLOW_LIMIT:g} at step {overflow_step}"
        )
    states = np.empty((1 + zs.shape[0], P.shape[0]))
    states[0] = theta
    states[1:] = zs @ P.T
    return states, zs


def simulate_reduced(
    f: OptimalLowRankFactors, theta: np.ndarray, horizon: int, stride: int = 1
) -> RomTrajectory:
    """Run the k-dimensional recursion and lift the kept states.

    z_2 = Q^T theta, z_t = (Q^T P) z_{t-1}, x~_t = P z_t; the transition
    matrix Q^T P is exactly P^T (Y X^+) P from the fitted factors. It is
    f.transition, formed once by the optimal fit, or Q^T P formed here for
    a bundle built by hand.
    """
    theta = _check_theta(theta, f.P.shape[0])
    _check_horizon(horizon, stride)
    times = np.arange(1, horizon + 1, stride, dtype=np.int64)
    transition = f.Q.T @ f.P if f.transition is None else f.transition
    states, zs = _reduced_recursion(
        f.P, transition, f.Q.T @ theta, theta, horizon, stride, "reduced trajectory"
    )
    return RomTrajectory(states=states, times=times, reduced_states=zs)


def simulate_full(
    op: DmdOperator, theta: np.ndarray, horizon: int, stride: int = 1
) -> RomTrajectory:
    """Apply the factored operator horizon-1 times starting from theta.

    An optimal operator steps with its transition R L; any other forms R L
    and L^T L over the n rows (kernels.propagate_factored).
    """
    theta = _check_theta(theta, op.n)
    _check_horizon(horizon, stride)
    times = np.arange(1, horizon + 1, stride, dtype=np.int64)
    if op.transition is not None:
        states, _ = _reduced_recursion(
            op.left, op.transition, op.right @ theta, theta, horizon, stride, "trajectory"
        )
        return RomTrajectory(states=states, times=times)
    states, overflow_step = kernels.propagate_factored(
        np.ascontiguousarray(op.left),
        np.ascontiguousarray(op.right),
        theta,
        horizon,
        stride,
        OVERFLOW_LIMIT,
    )
    if overflow_step:
        raise OverflowGuardError(
            f"trajectory norm exceeded {OVERFLOW_LIMIT:g} at step {overflow_step}"
        )
    return RomTrajectory(states=states, times=times)


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
