"""Reference trajectories p_d(t), dp_d(t), ddp_d(t) for the tracking layer.

A reference supplies task-space position, velocity and acceleration over a
finite horizon via ``sample(t)``. Analytic references are exact; the
plan-backed reference reconstructs its derivatives from position samples
by finite differences (see PlanReference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .simulate import SimTrajectory


class ReferenceTrajectory:
    """Base: subclasses define ``horizon`` and ``_sample``."""

    horizon: float

    def sample(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p_d, dp_d, ddp_d) at a time as 3-vectors, or at a 1-D array of
        times as (n, 3) arrays whose row k is, bit for bit, that at ``t[k]``."""
        times = np.asarray(t, dtype=float)
        p, v, a = self._sample(np.atleast_1d(times))
        return (p, v, a) if times.ndim else (p[0], v[0], a[0])


def _planar(xy: np.ndarray) -> np.ndarray:
    """(n, 3) rows (x, y, 0) from (n, 2) rows (x, y)."""
    return np.column_stack([xy, np.zeros(len(xy))])


@dataclass
class CorridorReference(ReferenceTrajectory):
    """Five straight legs through a narrow corridor at constant speed.

    Legs of ``leg_length`` run +x, +y, +x, -y, +x; the platform angle is
    held at zero. The commanded velocity switches direction instantly at
    the corners (no smoothing), and the goal pose is held once reached.
    """

    speed: float = 0.6
    leg_length: float = 3.0
    hold: float = 5.0

    _dirs: np.ndarray = field(init=False, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        starts = np.vstack([[0.0, 0.0], np.cumsum(dirs[:-1] * self.leg_length, axis=0)])
        self._dirs = dirs
        self._starts = starts
        self.leg_time = self.leg_length / self.speed
        self.horizon = 5 * self.leg_time + self.hold

    @property
    def goal_time(self) -> float:
        return 5 * self.leg_time

    def _sample(self, t):
        k = np.minimum((t / self.leg_time).astype(int), 4)
        xy = self._starts[k] + self._dirs[k] * self.speed * (t - k * self.leg_time)[:, None]
        v = self._dirs[k] * self.speed
        # the goal pose is held once reached
        done = t >= self.goal_time
        xy[done] = self._starts[-1] + self._dirs[-1] * self.leg_length
        v[done] = 0.0
        return _planar(xy), _planar(v), np.zeros((len(t), 3))


@dataclass
class Figure8Reference(ReferenceTrajectory):
    """Figure of eight: two circles joined by straight sections through the origin.

    Circles of radius R centred at (+-R*sqrt(2), 0); the straights lie on
    the diagonals y = +-x, tangent to both circles. One lap is 8 + 6*pi
    metres (for R = 2): a 2 m lead-in, a 270 degree clockwise arc, a 4 m
    diagonal through the origin, a 270 degree counter-clockwise arc, and a
    2 m return. Speed is constant; the platform angle is held at zero.
    """

    radius: float = 2.0
    lap_time: float = 18.0

    def __post_init__(self) -> None:
        r = self.radius
        h = r / math.sqrt(2.0)  # tangent points sit at (+-h, +-h)
        self.path_length = 4.0 * r + 2.0 * (1.5 * math.pi * r)
        self.speed = self.path_length / self.lap_time
        self.horizon = self.lap_time

        diag = 1.0 / math.sqrt(2.0)
        arc = 1.5 * math.pi * r
        # (kind, length, data); straight: (start, direction); arc: (centre, psi0, turn sign)
        self._segments = [
            ("line", r, (np.array([0.0, 0.0]), np.array([diag, diag]))),
            ("arc", arc, (np.array([2 * h, 0.0]), 0.75 * math.pi, -1.0)),
            ("line", 2 * r, (np.array([h, -h]), np.array([-diag, diag]))),
            ("arc", arc, (np.array([-2 * h, 0.0]), 0.25 * math.pi, +1.0)),
            ("line", r, (np.array([-h, -h]), np.array([diag, diag]))),
        ]
        self._cum = np.cumsum([seg[1] for seg in self._segments])

    def _sample(self, t):
        s = np.remainder(self.speed * t, self.path_length)
        k = np.minimum(np.searchsorted(self._cum, s, side="right"), len(self._segments) - 1)
        ds = s - np.where(k == 0, 0.0, self._cum[k - 1])
        v = self.speed
        xy, vel, acc = (np.zeros((len(t), 2)) for _ in range(3))
        for i, (kind, _, data) in enumerate(self._segments):
            on = np.flatnonzero(k == i)
            if kind == "line":
                start, u = data
                xy[on] = start + u * ds[on, None]
                vel[on] = (v * u[0], v * u[1])
                continue
            centre, psi0, turn = data
            r = self.radius
            psi = psi0 + turn * ds[on] / r
            # libm's bits, element by element, as for a single time
            angles = psi.tolist()
            c, sn = (np.fromiter(map(fn, angles), float, len(angles)) for fn in (math.cos, math.sin))
            xy[on] = centre + r * np.column_stack([c, sn])
            vel[on] = v * turn * np.column_stack([-sn, c])
            acc[on] = -(v * v / r) * np.column_stack([c, sn])
        return _planar(xy), _planar(vel), _planar(acc)


@dataclass
class HarmonicReference(ReferenceTrajectory):
    """Smooth sinusoidal sweep of all three task coordinates."""

    amplitude: tuple[float, float, float] = (1.0, 0.6, 0.4)
    frequency: tuple[float, float, float] = (0.2, 0.3, 0.25)  # Hz
    horizon: float = 10.0

    def _sample(self, t):
        a = np.asarray(self.amplitude)
        w = 2.0 * math.pi * np.asarray(self.frequency)
        t = t[:, None]
        # sin ramps from zero position and zero acceleration at t = 0
        return (
            a * np.sin(w * t),
            a * w * np.cos(w * t),
            -a * w * w * np.sin(w * t),
        )


def plan_step(times, source: str = "plan") -> float:
    """The step of a plan's uniform, increasing grid of three or more times; errors name ``source``."""
    if len(times) < 3:
        raise ValueError(f"{source} needs at least three samples")
    dt = float(times[1] - times[0])
    if not (dt > 0.0 and np.allclose(np.diff(times), dt, rtol=0.0, atol=1e-9)):
        raise ValueError(f"{source} grid must be uniform and increasing")
    return dt


class PlanReference(ReferenceTrajectory):
    """Reference rebuilt from a planned state sequence on a uniform grid.

    Velocity references come from central differences of the position
    samples (one-sided at the ends) and accelerations from second central
    differences, zero-order held per grid interval. Between grid points the
    position and velocity references integrate that held acceleration, so
    the three signals stay mutually consistent.
    """

    def __init__(self, plan: SimTrajectory):
        times = plan.times
        dt = plan_step(times)

        p = plan.states[:, 0:3]
        v = np.empty_like(p)
        v[1:-1] = (p[2:] - p[:-2]) / (2.0 * dt)
        v[0] = (p[1] - p[0]) / dt
        v[-1] = (p[-1] - p[-2]) / dt
        a = np.empty_like(p)
        a[1:-1] = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (dt * dt)
        a[0] = a[1]
        a[-1] = a[-2]

        self._t0 = float(times[0])
        self._dt = dt
        self._p = p
        self._v = v
        self._a = a
        self.horizon = float(times[-1] - times[0])

    def _sample(self, t):
        k = np.clip(np.floor((t - self._t0) / self._dt).astype(int), 0, len(self._p) - 2)
        tau = ((t - self._t0) - k * self._dt)[:, None]
        a = self._a[k]
        v = self._v[k] + a * tau
        p = self._p[k] + self._v[k] * tau + 0.5 * a * tau * tau
        return p, v, a
