"""Open-loop simulation driver and trajectory containers.

Torques are zero-order held on a uniform grid. The integrator is never
allowed to step across a hold boundary, an output sample time or any extra
breakpoint the caller supplies (disturbance on/off edges), so every recorded
sample is an exact step endpoint and no dense-output interpolation is needed.

Recorded derivatives follow the right-continuous convention: the derivative
stored at a grid time is evaluated with the control sample that starts there
(the final sample uses the last control, held).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import RobotState, state_derivative
from .integrator import IntegratorOptions, IntegratorStats, advance_segment
from .params import RobotParams

TRAJECTORY_COLUMNS = (
    "t",
    "x",
    "y",
    "alpha",
    "phi_r",
    "phi_l",
    "phi_p",
    "dx",
    "dy",
    "dalpha",
    "dphi_r",
    "dphi_l",
    "dphi_p",
    "tau_r",
    "tau_l",
    "tau_p",
)


@dataclass(frozen=True)
class ControlSequence:
    """Piecewise-constant control: samples[k] is held on [t0+k*dt, t0+(k+1)*dt)."""

    t0: float
    dt: float
    samples: np.ndarray
    boundaries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "samples", samples)
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "boundaries", self.t0 + self.dt * np.arange(len(samples)))

    @classmethod
    def constant(cls, u, duration: float, rate: float, t0: float = 0.0) -> "ControlSequence":
        n = int(round(duration * rate))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(t0=t0, dt=1.0 / rate, samples=np.tile(u, (n, 1)))

    @property
    def end_time(self) -> float:
        return self.t0 + self.dt * len(self.samples)

    def value_at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.boundaries, t, side="right")) - 1
        return self.samples[min(max(idx, 0), len(self.samples) - 1)]


@dataclass
class SimTrajectory:
    """States sampled on a grid, with derivatives and active controls.

    ``derivs[k] = f(times[k], states[k], controls[k])``; for the robot model
    its second half holds the generalised accelerations, which is what the
    inertial sensor model consumes.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    derivs: np.ndarray | None = None
    stats: dict = field(default_factory=dict)

    @property
    def q(self) -> np.ndarray:
        return self.states[:, :6]

    @property
    def dq(self) -> np.ndarray:
        return self.states[:, 6:12]

    @property
    def accelerations(self) -> np.ndarray:
        if self.derivs is None:
            raise ValueError("trajectory was loaded without derivative data")
        return self.derivs[:, 6:12]

    def final_state(self) -> RobotState:
        return RobotState.from_vector(self.states[-1])


# Times closer than this are one instant spelled two ways (a control grid
# built as t0 + k*dt versus an output grid built as k/rate can disagree by
# an ulp); integrating the gap between them underflows the step size.
_EVENT_MERGE_TOL = 1e-9


def _event_times(t0: float, t_end: float, controls: ControlSequence, output_times, breakpoints, out_set):
    lo, hi = t0 - _EVENT_MERGE_TOL, t_end + _EVENT_MERGE_TOL
    events = {float(t0), float(t_end)}
    for group in (controls.boundaries, output_times, breakpoints):
        events.update(float(t) for t in group if lo < t < hi)
    raw = sorted(events)
    merged = [raw[0]]
    for t in raw[1:]:
        if t - merged[-1] <= _EVENT_MERGE_TOL:
            # keep the output-grid spelling so requested samples match exactly
            if t in out_set and merged[-1] not in out_set:
                merged[-1] = t
        else:
            merged.append(t)
    return np.array(merged)


def integrate(
    model_fn,
    x0,
    t_span,
    controls: ControlSequence,
    options: IntegratorOptions | None = None,
    output_times=None,
    breakpoints=(),
) -> SimTrajectory:
    """Adaptively integrate dx/dt = model_fn(t, x, u(t)) over t_span.

    ``model_fn`` follows the integrator's rhs contract: ``t`` a float, ``x``
    and ``u`` lists of floats, a sequence of floats returned.

    output_times defaults to the control grid covered by t_span (plus the
    endpoints). All output times and breakpoints become hard step boundaries.
    """
    opts = options or IntegratorOptions()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t0:
        raise ValueError(f"empty time span {t_span}")
    if output_times is None:
        mask = (controls.boundaries > t0) & (controls.boundaries < t_end)
        output_times = np.concatenate([[t0], controls.boundaries[mask], [t_end]])
    else:
        output_times = np.asarray(sorted(set(float(t) for t in output_times)))
        if output_times[0] < t0 - _EVENT_MERGE_TOL or output_times[-1] > t_end + _EVENT_MERGE_TOL:
            raise ValueError("output times fall outside the integration span")

    out_set = set(output_times.tolist())
    events = _event_times(t0, t_end, controls, output_times, breakpoints, out_set)

    x = np.asarray(x0, dtype=float).copy()
    stats = IntegratorStats()
    h = opts.first_step
    times, states, derivs, us = [], [], [], []

    for seg in range(len(events) - 1):
        ta, tb = float(events[seg]), float(events[seg + 1])
        # sample at the midpoint: boundaries merged onto a nearby output
        # time could otherwise pick the neighbouring interval's value
        u = controls.value_at(0.5 * (ta + tb))
        u_floats = u.tolist()

        def f(t, y, _u=u_floats):
            return model_fn(t, y, _u)

        k1 = f(ta, x.tolist())
        stats.fevals += 1
        if ta in out_set:
            times.append(ta)
            states.append(x)
            derivs.append(np.array(k1))
            us.append(u)
        x, _, h = advance_segment(f, ta, tb, x, opts, stats, h_start=h, k1=k1)

    t_end = float(events[-1])
    u_end = controls.value_at(t_end)
    k_end = model_fn(t_end, x.tolist(), u_end.tolist())
    stats.fevals += 1
    times.append(t_end)
    states.append(x)
    derivs.append(np.array(k_end))
    us.append(u_end)

    keep = np.isin(np.array(times), output_times)
    times_arr = np.array(times)[keep]
    return SimTrajectory(
        times=times_arr,
        states=np.array(states)[keep],
        controls=np.array(us)[keep],
        derivs=np.array(derivs)[keep],
        stats=stats.as_dict(),
    )


def simulate_robot(
    params: RobotParams,
    state0: RobotState,
    controls: ControlSequence,
    t_end: float | None = None,
    pivot_force_fn=None,
    breakpoints=(),
    options: IntegratorOptions | None = None,
    output_times=None,
) -> SimTrajectory:
    """Open-loop robot rollout under a held torque sequence.

    ``pivot_force_fn(t) -> (fx, fy) | None`` models an external force on the
    pivot; its on/off instants must be listed in ``breakpoints``.
    """
    t_end = controls.end_time if t_end is None else t_end

    if pivot_force_fn is None:
        def model_fn(t, x, u):
            return state_derivative(params, x, u)
    else:
        def model_fn(t, x, u):
            return state_derivative(params, x, u, pivot_force=pivot_force_fn(t))

    return integrate(
        model_fn,
        state0.as_vector(),
        (controls.t0, t_end),
        controls,
        options=options,
        output_times=output_times,
        breakpoints=breakpoints,
    )


def shaft_derivative(inertia: float, damping: float, x: list, u: float) -> list:
    """Single actuated shaft: inertia * ddphi = u - damping * dphi."""
    return [x[1], (u - damping * x[1]) / inertia]


def simulate_shaft(
    inertia: float,
    damping: float,
    controls: ControlSequence,
    t_end: float | None = None,
    options: IntegratorOptions | None = None,
    output_times=None,
) -> SimTrajectory:
    """Rollout of the isolated-shaft model used by the basic identification step."""
    # the fitter hands in numpy scalars; float arithmetic keeps the stages floats
    inertia, damping = float(inertia), float(damping)

    def model_fn(t, x, u):
        return shaft_derivative(inertia, damping, x, u[0])

    return integrate(
        model_fn,
        np.zeros(2),
        (controls.t0, t_end if t_end is not None else controls.end_time),
        controls,
        options=options,
        output_times=output_times,
    )


def format_float(v: float) -> str:
    """Shortest decimal spelling that reads back as the same double."""
    return repr(float(v))


def trajectory_to_csv(traj: SimTrajectory, path: str | Path) -> None:
    """Write a robot trajectory in the interchange schema (exact doubles)."""
    if traj.states.shape[1] != 12 or traj.controls.shape[1] != 3:
        raise ValueError("CSV schema is defined for the full robot model only")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for k in range(len(traj.times)):
            row = [traj.times[k], *traj.states[k], *traj.controls[k]]
            writer.writerow([format_float(v) for v in row])


def trajectory_from_csv(path: str | Path) -> SimTrajectory:
    """Read a trajectory written by :func:`trajectory_to_csv` (or a plan file)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(h.strip() for h in header) != TRAJECTORY_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header!r}")
        rows = np.array([[float(v) for v in row] for row in reader])
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    return SimTrajectory(times=rows[:, 0], states=rows[:, 1:13], controls=rows[:, 13:16])
