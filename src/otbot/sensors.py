"""Sensor models: joint encoders and a platform-mounted inertial unit.

:func:`outputs` maps a trajectory to the noise-free outputs at its own
sample times, taken from its states and the forward-dynamics accelerations
recorded there, never from numerical differencing of samples. A record
(:func:`sample_sensors`) adds white Gaussian noise of a given standard
deviation to them, drawn from a seeded generator so records are
reproducible; a fit's prediction is the same map without noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import _ckernel
from .simulate import SimTrajectory

ENCODER_SIGMA = 0.01  # rad/s, rate-encoder noise used by the shaft experiments


@dataclass(frozen=True)
class SensorModel:
    """What is measured and how noisily.

    kind "encoder": the rate of one state coordinate (``axis`` indexes the
    state vector; e.g. 1 for the isolated-shaft model's dphi).
    kind "imu": pivot acceleration expressed in the platform basis plus the
    platform angular rate, (ddx'', ddy'', dalpha); requires a full robot
    trajectory with recorded accelerations.
    """

    kind: str
    sigma: float
    axis: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("encoder", "imu"):
            raise ValueError(f"unknown sensor kind {self.kind!r}")
        if self.kind == "encoder" and self.axis is None:
            raise ValueError("encoder model needs the state axis it measures")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")


@dataclass
class SensorRecord:
    """Noisy outputs: values[k], one column per channel, measured at times[k]."""

    times: np.ndarray
    values: np.ndarray
    kind: str


def imu_truth(traj: SimTrajectory) -> np.ndarray:
    """Noise-free IMU outputs along a robot trajectory, one row per sample."""
    alpha = traj.states[:, 2]
    dalpha = traj.states[:, 8]
    acc = traj.accelerations[:, 0:2]
    ca, sa = np.cos(alpha), np.sin(alpha)
    # world -> platform basis rotation of the pivot acceleration
    ax = ca * acc[:, 0] + sa * acc[:, 1]
    ay = -sa * acc[:, 0] + ca * acc[:, 1]
    return np.column_stack([ax, ay, dalpha])


def imu_sensitivity(traj: SimTrajectory, lanes: int, out: np.ndarray) -> np.ndarray:
    """Derivatives of the outputs ``out`` = :func:`imu_truth` along a
    trajectory of the robot's state and its sensitivities in ``lanes``
    lanes (the states of ``simulate.robot_model`` with seeds), one
    (3, lanes) block per sample: the chain rule through the platform angle,
    whose sensitivity turns the rotation, and the sensitivities of the
    recorded accelerations."""

    def sensitivity(table, i):  # the lanes of state i
        return table[:, 12 + lanes * i : 12 + lanes * (i + 1)]

    alpha = traj.states[:, 2:3]
    ca, sa = np.cos(alpha), np.sin(alpha)
    d_alpha, d_ax, d_ay = sensitivity(traj.states, 2), sensitivity(traj.derivs, 6), sensitivity(traj.derivs, 7)
    d_x = out[:, 1:2] * d_alpha + ca * d_ax + sa * d_ay
    d_y = -out[:, 0:1] * d_alpha - sa * d_ax + ca * d_ay
    return np.stack([d_x, d_y, sensitivity(traj.states, 8)], axis=1)


def outputs(traj: SimTrajectory, model: SensorModel, lanes: int = 0):
    """Noise-free outputs of ``model`` along ``traj``, one row per sample.

    With ``lanes``, ``traj`` carries the sensitivities of its states in
    that many lanes (``simulate.integrate``), and this returns ``(outputs,
    derivatives)``, one (channels, lanes) block of derivatives per sample.
    """
    if model.kind == "imu":
        out = imu_truth(traj)
        return (out, imu_sensitivity(traj, lanes, out)) if lanes else out
    axis, n = model.axis, traj.states.shape[1] // (1 + lanes)
    out = traj.states[:, axis : axis + 1]
    return (out, traj.states[:, None, n + lanes * axis : n + lanes * (axis + 1)]) if lanes else out


def sample_sensors(traj: SimTrajectory, model: SensorModel, seed: int | None = None) -> SensorRecord:
    """A record of ``model`` at the trajectory's own times: :func:`outputs`
    plus noise of ``model.sigma`` from generator seed ``seed``."""
    values = outputs(traj, model).astype(float, copy=True)
    if model.sigma > 0.0:
        values += model.sigma * standard_normal(seed, values.shape)
    return SensorRecord(times=traj.times.copy(), values=values, kind=model.kind)


def standard_normal(seed: int | None, shape: tuple[int, ...]) -> np.ndarray:
    """``np.random.default_rng(seed).standard_normal(shape)``, from the noise library where it loads."""
    # numpy.random would load secrets and OpenSSL; the library draws the same
    # bits. A seed of None takes 128 bits of fresh entropy, as numpy does.
    seed = int.from_bytes(os.urandom(16), "little") if seed is None else seed
    fill = _ckernel.load_noise()
    if fill is None or not isinstance(seed, int) or seed < 0:  # numpy raises on a bad seed
        return np.random.default_rng(seed).standard_normal(shape)
    # the seed's little-endian 32-bit words, as numpy's _int_to_uint32_array
    words = np.array([seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)], np.uint32)
    out = np.empty(shape)
    fill(words.ctypes.data, len(words), out.size, out.ctypes.data)
    return out
