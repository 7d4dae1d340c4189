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
    """Sorted, merged step boundaries and, per boundary, whether a breakpoint lies on it."""
    lo, hi = t0 - _EVENT_MERGE_TOL, t_end + _EVENT_MERGE_TOL
    breaks = {float(t) for t in breakpoints if lo < t < hi}
    events = {float(t0), float(t_end)} | breaks
    for group in (controls.boundaries, output_times):
        events.update(t for t in group.tolist() if lo < t < hi)
    raw = sorted(events)
    merged, on_break = [raw[0]], [raw[0] in breaks]
    for t in raw[1:]:
        if t - merged[-1] <= _EVENT_MERGE_TOL:
            # keep the output-grid spelling so requested samples match exactly
            if t in out_set and merged[-1] not in out_set:
                merged[-1] = t
            on_break[-1] = on_break[-1] or t in breaks
        else:
            merged.append(t)
            on_break.append(t in breaks)
    return merged, on_break


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
    and ``u`` lists of floats, a sequence of floats returned. It must be
    autonomous between breakpoints: for a fixed ``u`` it may depend on ``t``
    only through changes at the listed ``breakpoints``.

    output_times defaults to the control grid covered by t_span (plus the
    endpoints). All output times and breakpoints become hard step boundaries.

    Each segment's first stage is the derivative at its start. When a
    segment holds the same control floats as the one before it and no
    breakpoint lies at its start, that derivative is the previous segment's
    end derivative (same state, same rhs), so it is reused instead of being
    evaluated again; the results are the same bits either way.
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
    events, on_break = _event_times(t0, t_end, controls, output_times, breakpoints, out_set)

    # sample at the segment midpoints: boundaries merged onto a nearby output
    # time could otherwise pick the neighbouring interval's value
    bounds = np.array(events)
    idx = np.searchsorted(controls.boundaries, 0.5 * (bounds[:-1] + bounds[1:]), side="right") - 1
    held = controls.samples[np.clip(idx, 0, len(controls.samples) - 1)]
    # compared bit for bit, so that 0.0 and -0.0 count as different holds
    bits = held.view(np.int64)
    new_k1 = [True] + [
        changed or brk
        for changed, brk in zip((bits[1:] != bits[:-1]).any(axis=1).tolist(), on_break[1:])
    ]

    x = np.asarray(x0, dtype=float).copy()
    stats = IntegratorStats()
    h = opts.first_step
    times, states, derivs, us = [], [], [], []

    for seg, (ta, tb) in enumerate(zip(events, events[1:])):
        u = held[seg]
        if new_k1[seg]:
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
        x, k1, h = advance_segment(f, ta, tb, x, opts, stats, h_start=h, k1=k1)

    t_end = events[-1]
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
    pivot; it must be constant between the instants listed in
    ``breakpoints`` (the contract of :func:`integrate`).
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


def write_csv(path: str | Path, header, columns, line_end: str = "\n") -> None:
    """Write equal-length columns (1-D or 2-D arrays) under a header row.

    Each double is written in its shortest exact spelling (see
    :func:`format_float`); rows are converted one at a time, so no list copy
    of the whole table is made. ``line_end`` ends every line as given.
    """
    table = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + line_end)
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + line_end)


def trajectory_to_csv(traj: SimTrajectory, path: str | Path) -> None:
    """Write a robot trajectory in the interchange schema (exact doubles)."""
    if traj.states.shape[1] != 12 or traj.controls.shape[1] != 3:
        raise ValueError("CSV schema is defined for the full robot model only")
    # CRLF, the line end of the csv module's default dialect these files have used
    write_csv(path, TRAJECTORY_COLUMNS, [traj.times, traj.states, traj.controls], line_end="\r\n")


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
