"""Equations of motion: multiplier-free production route plus the
conventional Lagrange-multiplier route used as an oracle.

The constrained Lagrange equations are

    M(q) ddq + C(q, dq) dq + J^T lam = E u + Ef dq + Qp

with E injecting the three motor torques, Ef the (negative semi-definite)
viscous friction map and Qp an optional external force acting on the pivot
point. Eliminating the multipliers with the admissible-motion basis Delta
gives the task-space model

    Mbar(q) ddp + Cbar(q, dq) dp = u + Delta^T Qp

with Mbar = Delta^T M Lam and Cbar = Delta^T (M dLam + (C - Ef) Lam); the
joint accelerations then follow from the kinematic loop,
ddphi = M_IIK ddp + dM_IIK dp. The production route evaluates these terms in
closed form: ``otbot._task_space`` is generated once with sympy by
``scripts/gen_task_space.py`` from the model matrices, works on plain floats
and solves the 3x3 system explicitly. The simulator, the computed-torque law
and the feasibility check all use it. The conventional route solves the full
9x9 KKT system from the 6x6 model matrices and also returns the multipliers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _task_space
from .model import (
    constraint_jacobian,
    coriolis_matrix,
    fik_matrix,
    iik_matrix,
    iik_matrix_rate,
    jacobian_time_derivative,
    lambda_delta,
    mass_matrix,
)
from .params import RobotParams

ADMISSIBILITY_TOL = 1e-6


class AdmissibilityWarning(UserWarning):
    """A supplied velocity (or acceleration) violates the rolling constraint."""


@dataclass
class RobotState:
    """Full state x = (q, dq). The chassis heading alpha - phi_p is derived."""

    q: np.ndarray
    dq: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.dq])

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "RobotState":
        x = np.asarray(x, dtype=float)
        return cls(q=x[:6].copy(), dq=x[6:].copy())

    @classmethod
    def rest(cls, q: np.ndarray | None = None) -> "RobotState":
        q = np.zeros(6) if q is None else np.asarray(q, dtype=float).copy()
        return cls(q=q, dq=np.zeros(6))


def input_matrix() -> np.ndarray:
    """6x3 torque injection map: rows of the three actuated joints."""
    e = np.zeros((6, 3))
    e[3, 0] = e[4, 1] = e[5, 2] = 1.0
    return e


def friction_coefficients(params: RobotParams) -> np.ndarray:
    """Diagonal of Ef: generalised friction force is Ef dq (note the signs)."""
    return np.array([0.0, 0.0, 0.0, -params.bw, -params.bw, -params.bp])


def pivot_force_vector(force_xy) -> np.ndarray:
    """Generalised force of a planar force applied at the pivot point.

    The pivot coincides with the (x, y) coordinates, so the force enters those
    two rows only.
    """
    qp = np.zeros(6)
    if force_xy is not None:
        qp[0] = force_xy[0]
        qp[1] = force_xy[1]
    return qp


def constraint_violation(params: RobotParams, q: np.ndarray, dq: np.ndarray) -> float:
    """Velocity-level constraint residual ||J dq||_inf."""
    return float(np.max(np.abs(constraint_jacobian(params, q) @ dq)))


def _warn_if_inadmissible(params: RobotParams, q: np.ndarray, dq: np.ndarray, where: str) -> None:
    viol = constraint_violation(params, q, dq)
    if viol > ADMISSIBILITY_TOL:
        warnings.warn(
            f"{where}: velocity violates rolling constraint, ||J dq||_inf = {viol:.3e}",
            AdmissibilityWarning,
            stacklevel=3,
        )


def _floats(v) -> list:
    return v.tolist() if isinstance(v, np.ndarray) else [float(e) for e in v]


def task_space_model(params: RobotParams, q: np.ndarray, dq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Mbar, Cbar) of the task-space model Mbar ddp + Cbar dp = u."""
    q = _floats(q)
    dq = _floats(dq)
    m, c = _task_space.task_space_model(params, q[2], q[2] - q[5], dq[2], dq[2] - dq[5])
    return np.array(m).reshape(3, 3), np.array(c).reshape(3, 3)


def _accelerations(params: RobotParams, q: list, dq: list, u, pivot_force) -> tuple:
    """Joint accelerations from float sequences q, dq, u and (fx, fy) or None."""
    fx, fy = (0.0, 0.0) if pivot_force is None else pivot_force
    u0, u1, u2 = u
    return _task_space.accelerations(
        params, q[2], q[2] - q[5], dq[0], dq[1], dq[2], dq[2] - dq[5], u0, u1, u2, fx, fy
    )


def inverse_dynamics(params: RobotParams, q: np.ndarray, dq: np.ndarray, ddq: np.ndarray) -> np.ndarray:
    """Motor torques for an admissible motion, multiplier-free route.

    u = Delta^T (M ddq + (C - Ef) dq). Non-admissible dq does not raise; it
    yields the torques of the projected problem plus an AdmissibilityWarning.
    """
    _warn_if_inadmissible(params, q, dq, "inverse_dynamics")
    _, delta = lambda_delta(params, q)
    m = mass_matrix(params, q)
    c = coriolis_matrix(params, q, dq)
    ef = friction_coefficients(params)
    return delta.T @ (m @ ddq + c @ dq - ef * dq)


def inverse_dynamics_conventional(
    params: RobotParams, q: np.ndarray, dq: np.ndarray, ddq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle route: solve [E  -J^T] [u; lam] = M ddq + (C - Ef) dq.

    Returns (u, lam); lam matches the multipliers of the conventional forward
    route at the same point.
    """
    _warn_if_inadmissible(params, q, dq, "inverse_dynamics_conventional")
    j = constraint_jacobian(params, q)
    m = mass_matrix(params, q)
    c = coriolis_matrix(params, q, dq)
    ef = friction_coefficients(params)
    tau = m @ ddq + c @ dq - ef * dq
    a = np.hstack([input_matrix(), -j.T])
    sol = np.linalg.solve(a, tau)
    return sol[:3], sol[3:]


def forward_dynamics(
    params: RobotParams,
    q: np.ndarray,
    dq: np.ndarray,
    u: np.ndarray,
    pivot_force=None,
) -> np.ndarray:
    """Accelerations under motor torques u, multiplier-free route.

    Requires an admissible dq (the simulator guarantees it); solves one 3x3
    system for the task accelerations, pivot force included through
    Delta^T Qp, and recovers the joint ones from the kinematic loop.
    """
    force = None if pivot_force is None else _floats(pivot_force)
    return np.array(_accelerations(params, _floats(q), _floats(dq), _floats(u), force))


def forward_dynamics_conventional(
    params: RobotParams,
    q: np.ndarray,
    dq: np.ndarray,
    u: np.ndarray,
    pivot_force=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle route: full KKT solve, returns (ddq, lam)."""
    j = constraint_jacobian(params, q)
    dj = jacobian_time_derivative(params, q, dq)
    m = mass_matrix(params, q)
    c = coriolis_matrix(params, q, dq)
    ef = friction_coefficients(params)
    k = np.zeros((9, 9))
    k[:6, :6] = m
    k[:6, 6:] = j.T
    k[6:, :6] = j
    rhs = np.empty(9)
    rhs[:6] = input_matrix() @ u + ef * dq - c @ dq + pivot_force_vector(pivot_force)
    rhs[6:] = -dj @ dq
    sol = np.linalg.solve(k, rhs)
    return sol[:6], sol[6:]


def state_derivative(
    params: RobotParams,
    x: list,
    u,
    pivot_force=None,
) -> list:
    """dx/dt = (dq, ddq) for the simulator (multiplier-free route).

    This is the integrator's rhs: ``x`` is a list of 12 floats (an ndarray
    is converted once), ``u`` three torques and ``pivot_force`` None or
    (fx, fy), all as floats; callers convert them once per hold segment.
    Returns a list of 12 floats.
    """
    if isinstance(x, np.ndarray):
        x = x.tolist()
    dq = x[6:]
    return [*dq, *_accelerations(params, x, dq, u, pivot_force)]


def admissible_state(
    params: RobotParams,
    q: np.ndarray,
    dp: np.ndarray | None = None,
    dphi: np.ndarray | None = None,
) -> RobotState:
    """Build a state whose velocity satisfies the rolling constraint.

    Exactly one of dp (task velocity) or dphi (joint velocity) may be given;
    omitting both gives a state at rest.
    """
    if dp is not None and dphi is not None:
        raise ValueError("give either dp or dphi, not both")
    q = np.asarray(q, dtype=float)
    if dphi is not None:
        dp = fik_matrix(params, q) @ np.asarray(dphi, dtype=float)
    if dp is None:
        dq = np.zeros(6)
    else:
        dp = np.asarray(dp, dtype=float)
        dq = np.concatenate([dp, iik_matrix(params, q) @ dp])
    return RobotState(q=q.copy(), dq=dq)


def admissible_acceleration(
    params: RobotParams, q: np.ndarray, dq: np.ndarray, ddp: np.ndarray
) -> np.ndarray:
    """Lift a task acceleration to a constraint-consistent ddq."""
    ddphi = iik_matrix(params, q) @ ddp + iik_matrix_rate(params, q, dq) @ dq[:3]
    return np.concatenate([np.asarray(ddp, dtype=float), ddphi])
