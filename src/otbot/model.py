"""Kinematic maps and Lagrangian model matrices.

Configuration vector (all angles in radians, positions in metres):

    q = (x, y, alpha, phi_r, phi_l, phi_p)

``(x, y)`` is the pivot point in the world frame, ``alpha`` the platform
angle, ``phi_r``/``phi_l`` the wheel angles and ``phi_p`` the pivot joint
angle. The chassis heading is the derived quantity

    theta = alpha - phi_p

and is never stored. Task coordinates are p = (x, y, alpha), joint
coordinates phi = (phi_r, phi_l, phi_p).

Rolling without slipping removes three velocity freedoms; the constraint
rows returned by :func:`constraint_jacobian` satisfy J(q) dq = 0 for every
admissible velocity. Because the last row integrates, the system also obeys
one holonomic constraint, see :func:`holonomic_residual`.
"""

from __future__ import annotations

import math

import numpy as np

from .params import RobotParams


def constraint_jacobian(params: RobotParams, q: np.ndarray) -> np.ndarray:
    """3x6 rolling-constraint Jacobian J(q), rows satisfy J dq = 0."""
    l1, l2, r = params.l1, params.l2, params.r
    th = q[2] - q[5]
    c, s = math.cos(th), math.sin(th)
    k = r / (2.0 * l2)
    return np.array(
        [
            [1.0, 0.0, l1 * s, -0.5 * r * c, -0.5 * r * c, -l1 * s],
            [0.0, 1.0, -l1 * c, -0.5 * r * s, -0.5 * r * s, l1 * c],
            [0.0, 0.0, 1.0, -k, k, -1.0],
        ]
    )


def jacobian_time_derivative(params: RobotParams, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """dJ/dt along a motion. Only rows 1-2 move; row 3 is constant."""
    l1, r = params.l1, params.r
    th = q[2] - q[5]
    dth = dq[2] - dq[5]
    c, s = math.cos(th) * dth, math.sin(th) * dth
    return np.array(
        [
            [0.0, 0.0, l1 * c, 0.5 * r * s, 0.5 * r * s, -l1 * c],
            [0.0, 0.0, l1 * s, -0.5 * r * c, -0.5 * r * c, -l1 * s],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )


def fik_matrix(params: RobotParams, q: np.ndarray) -> np.ndarray:
    """Forward instantaneous kinematics: dp = M_FIK(q) dphi.

    Invertible everywhere (det = -l1 r^2 / (2 l2) != 0), which is what makes
    the platform omnidirectional.
    """
    l1, l2, r = params.l1, params.l2, params.r
    th = q[2] - q[5]
    c, s = math.cos(th), math.sin(th)
    k = r / (2.0 * l2)
    return k * np.array(
        [
            [l2 * c - l1 * s, l2 * c + l1 * s, 0.0],
            [l1 * c + l2 * s, -l1 * c + l2 * s, 0.0],
            [1.0, -1.0, 2.0 * l2 / r],
        ]
    )


def iik_matrix(params: RobotParams, q: np.ndarray) -> np.ndarray:
    """Inverse instantaneous kinematics: dphi = M_IIK(q) dp. Inverse of fik_matrix."""
    l1, l2, r = params.l1, params.l2, params.r
    th = q[2] - q[5]
    c, s = math.cos(th), math.sin(th)
    k = 1.0 / (r * l1)
    return k * np.array(
        [
            [l1 * c - l2 * s, l2 * c + l1 * s, 0.0],
            [l1 * c + l2 * s, -l2 * c + l1 * s, 0.0],
            [r * s, -r * c, r * l1],
        ]
    )


def iik_matrix_rate(params: RobotParams, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Time derivative of iik_matrix along a motion (chain rule through theta)."""
    l1, l2, r = params.l1, params.l2, params.r
    th = q[2] - q[5]
    dth = dq[2] - dq[5]
    c, s = math.cos(th) * dth, math.sin(th) * dth
    k = 1.0 / (r * l1)
    return k * np.array(
        [
            [-l1 * s - l2 * c, -l2 * s + l1 * c, 0.0],
            [-l1 * s + l2 * c, l2 * s + l1 * c, 0.0],
            [r * c, r * s, 0.0],
        ]
    )


def lambda_delta(params: RobotParams, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Velocity parameterisations (Lam, Delta), both 6x3.

    Lam lifts task velocities, dq = Lam dp, with Lam = [I; M_IIK]. Delta lifts
    joint velocities, dq = Delta dphi, with Delta = [M_FIK; I]. The columns of
    Delta span the admissible motions, J Delta = 0, and Delta^T picks out the
    actuated rows: Delta^T E = I.
    """
    lam = np.empty((6, 3))
    lam[:3] = np.eye(3)
    lam[3:] = iik_matrix(params, q)
    delta = np.empty((6, 3))
    delta[:3] = fik_matrix(params, q)
    delta[3:] = np.eye(3)
    return lam, delta


def mass_matrix(params: RobotParams, q: np.ndarray) -> np.ndarray:
    """Configuration-dependent 6x6 mass matrix (symmetric positive definite).

    Closed form of the kinetic-energy Hessian: a translating chassis with
    offset centre of mass (xB, yB) at heading theta, a platform with offset
    (xF, yF) at angle alpha, plus the three rotor terms.
    """
    p = params
    alpha = q[2]
    th = q[2] - q[5]
    ca, sa = math.cos(alpha), math.sin(alpha)
    ct, st = math.cos(th), math.sin(th)

    jc = p.mc * (p.xB * p.xB + p.yB * p.yB) + p.Ic  # chassis inertia about the pivot
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = p.mc + p.mp
    m[0, 2] = -p.mp * p.yF * ca - p.mp * p.xF * sa - p.mc * p.yB * ct - p.mc * p.xB * st
    m[0, 5] = p.mc * p.yB * ct + p.mc * p.xB * st
    m[1, 2] = p.mp * p.xF * ca - p.mp * p.yF * sa + p.mc * p.xB * ct - p.mc * p.yB * st
    m[1, 5] = p.mc * p.yB * st - p.mc * p.xB * ct
    m[2, 2] = jc + p.mp * (p.xF * p.xF + p.yF * p.yF) + p.Ip
    m[2, 5] = -jc
    m[3, 3] = m[4, 4] = p.Ia
    m[5, 5] = jc
    m[2, 0] = m[0, 2]
    m[5, 0] = m[0, 5]
    m[2, 1] = m[1, 2]
    m[5, 1] = m[1, 5]
    m[5, 2] = m[2, 5]
    return m


def coriolis_matrix(params: RobotParams, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Coriolis/centrifugal matrix from the Christoffel symbols of mass_matrix.

    Only four entries are non-zero; rows 3-6 vanish identically. Satisfies the
    usual skew-symmetry of dM/dt - 2C on admissible motions (and in fact on
    all motions, since it is built from Christoffel symbols).
    """
    p = params
    alpha = q[2]
    th = q[2] - q[5]
    da = dq[2]
    dth = dq[2] - dq[5]
    ca, sa = math.cos(alpha), math.sin(alpha)
    ct, st = math.cos(th), math.sin(th)

    cwx = p.mc * (p.xB * ct - p.yB * st)  # d/dtheta of the chassis c.o.m. coupling
    cwy = p.mc * (p.yB * ct + p.xB * st)
    pwx = p.mp * (p.xF * ca - p.yF * sa)
    pwy = p.mp * (p.yF * ca + p.xF * sa)

    c = np.zeros((6, 6))
    c[0, 2] = -dth * cwx - da * pwx
    c[0, 5] = dth * cwx
    c[1, 2] = -dth * cwy - da * pwy
    c[1, 5] = dth * cwy
    return c


def holonomic_residual(params: RobotParams, q: np.ndarray, q0: np.ndarray) -> float:
    """Residual of the integrated wheel/pivot constraint.

    The third constraint row is exact, so along any admissible motion

        alpha - k phi_r + k phi_l - phi_p,   k = r / (2 l2)

    stays at its initial value. Returns the drift relative to the constant
    fixed by the initial configuration ``q0``.
    """
    k = params.r / (2.0 * params.l2)

    def combo(qq: np.ndarray) -> float:
        return qq[2] - k * qq[3] + k * qq[4] - qq[5]

    return combo(q) - combo(q0)
