"""Sensor models: joint encoders and a platform-mounted inertial unit.

Ground truth is taken from the simulated trajectory (states plus the
forward-dynamics accelerations recorded at the sample instants), never from
numerical differencing of samples. Noise is additive white Gaussian with a
configurable standard deviation, drawn from a seeded generator so records
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import SimTrajectory

ENCODER_SIGMA = 0.01  # rad/s, rate-encoder noise used by the shaft experiments


@dataclass(frozen=True)
class SensorModel:
    """What is measured, how often, and how noisily.

    kind "encoder": the rate of one state coordinate (``axis`` indexes the
    state vector; e.g. 1 for the isolated-shaft model's dphi).
    kind "imu": pivot acceleration expressed in the platform basis plus the
    platform angular rate, (ddx'', ddy'', dalpha); requires a full robot
    trajectory with recorded accelerations.
    """

    kind: str
    sigma: float
    rate: float = 100.0
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
    """Noisy samples on a uniform grid: values[k] measured at times[k]."""

    times: np.ndarray
    values: np.ndarray
    sigma: float
    seed: int | None
    kind: str


def _grid_indices(traj: SimTrajectory, rate: float) -> np.ndarray:
    t0, t_end = traj.times[0], traj.times[-1]
    n = int(round((t_end - t0) * rate))
    wanted = t0 + np.arange(n + 1) / rate
    idx = np.searchsorted(traj.times, wanted)
    idx = np.clip(idx, 0, len(traj.times) - 1)
    if not np.allclose(traj.times[idx], wanted, rtol=0.0, atol=1e-9):
        raise ValueError(
            "trajectory samples are not aligned with the requested sensor grid; "
            "simulate with output_times on that grid first"
        )
    return idx


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


def sample_sensors(traj: SimTrajectory, model: SensorModel, seed: int | None = None) -> SensorRecord:
    """Sample a sensor along a trajectory; duration*rate + 1 samples."""
    idx = _grid_indices(traj, model.rate)
    if model.kind == "encoder":
        truth = traj.states[idx, model.axis]
    else:
        truth = imu_truth(traj)[idx]
    values = truth.astype(float, copy=True)
    if model.sigma > 0.0:
        rng = np.random.default_rng(seed)
        values += model.sigma * rng.standard_normal(values.shape)
    return SensorRecord(
        times=traj.times[idx].copy(),
        values=values,
        sigma=model.sigma,
        seed=seed,
        kind=model.kind,
    )
