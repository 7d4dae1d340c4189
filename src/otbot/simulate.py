"""The rollout engine: the robot (or a shaft) integrated under held inputs.

Inputs are zero-order held. They come either from a torque sequence (open
loop) or from a feedback law evaluated at each control instant (closed
loop: ``otbot.control.FeedbackLaw``, the computed-torque law as data). The
integrator is never allowed to step across a hold boundary, an output
sample time or a disturbance on/off edge, so every recorded sample is
an exact step endpoint and no dense-output interpolation is needed.

Recorded derivatives follow the right-continuous convention: the derivative
stored at a grid time is evaluated with the input and the pivot force that
start there (the final sample uses the input held at the end).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import RobotState, state_derivative
from .integrator import IntegratorOptions, IntegratorStats, advance_segment, initial_step
from .params import PARAM_FIELDS, RobotParams

if TYPE_CHECKING:  # control imports this module
    from .control import FeedbackLaw

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


def whole_periods(duration: float, rate: float) -> int | None:
    """The periods of ``rate`` in ``duration``, or None where not a positive whole number."""
    n = round(duration * rate)
    return n if n >= 1 and math.isclose(n * (1.0 / rate), duration, rel_tol=0.0, abs_tol=1e-9) else None


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
    def constant(cls, u, duration: float, rate: float) -> "ControlSequence":
        n = whole_periods(duration, rate)
        if n is None:
            raise ValueError(f"{duration!r} s is not a whole number of periods of {rate!r} Hz")
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(t0=0.0, dt=1.0 / rate, samples=np.tile(u, (n, 1)))

    @property
    def end_time(self) -> float:
        return self.t0 + self.dt * len(self.samples)


@dataclass(frozen=True)
class ForcePulse:
    """Planar force on the pivot over the half-open window [t_on, t_off)."""

    t_on: float
    t_off: float
    fx: float = 0.0
    fy: float = 0.0

    def __post_init__(self) -> None:
        if not self.t_off > self.t_on:
            raise ValueError("pulse must have positive duration")


@dataclass(frozen=True)
class DisturbanceSchedule:
    """External pivot forces: the sum of the pulses active at a time."""

    pulses: tuple[ForcePulse, ...] = ()

    def force_at(self, t) -> np.ndarray:
        """The force (fx, fy) at a time, or one row per time of an array."""
        t = np.asarray(t, dtype=float)
        f = np.zeros((*t.shape, 2))
        for pulse in self.pulses:
            f[(pulse.t_on <= t) & (t < pulse.t_off)] += (pulse.fx, pulse.fy)
        return f

    def edges(self) -> list[float]:
        times = {p.t_on for p in self.pulses} | {p.t_off for p in self.pulses}
        return sorted(times)


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
    def accelerations(self) -> np.ndarray:
        if self.derivs is None:
            raise ValueError("trajectory was loaded without derivative data")
        return self.derivs[:, 6:12]


# Times closer than this are one instant spelled two ways (a control grid
# built as t0 + k*dt versus an output grid built as k/rate can disagree by
# an ulp); integrating the gap between them underflows the step size.
_EVENT_MERGE_TOL = 1e-9


def _event_times(t0: float, t_end: float, output_times, instants, edges):
    """Sorted, merged step boundaries as an array and, per boundary, whether
    an output time, a control instant and a disturbance edge lie on it."""
    lo, hi = t0 - _EVENT_MERGE_TOL, t_end + _EVENT_MERGE_TOL
    groups = [g[(g > lo) & (g < hi)] for g in (output_times, instants, np.array(edges, float))]
    raw = np.unique(np.concatenate([[t0, t_end], *groups]))
    marks = []
    for g in groups:
        marks.append(np.zeros(len(raw), dtype=bool))
        marks[-1][np.searchsorted(raw, g)] = True
    # a boundary starts wherever the gap to the previous time exceeds the tolerance
    starts = np.flatnonzero(np.diff(raw, prepend=-np.inf) > _EVENT_MERGE_TOL)
    events = raw[starts]
    # keep the output-grid spelling so requested samples match exactly
    outs = np.flatnonzero(marks[0])
    merged, first = np.unique(np.searchsorted(starts, outs, side="right") - 1, return_index=True)
    events[merged] = raw[outs[first]]
    flags = (np.logical_or.reduceat(m, starts) for m in marks)
    return events, *flags


def integrate(
    model,
    x0,
    t_span,
    controls: ControlSequence | FeedbackLaw,
    options: IntegratorOptions | None = None,
    output_times=None,
    disturbances: DisturbanceSchedule | None = None,
) -> SimTrajectory:
    """Adaptively integrate dx/dt = f(t, x) under held inputs over t_span.

    ``model(u, force)`` returns the rhs ``f(t, y)`` for a held input ``u``
    and pivot force ``force``, both lists of floats; ``f`` follows the
    integrator's contract (``t`` a float, ``y`` a list of floats, a sequence
    of floats returned) and may not depend on ``t``. The input is a
    ``ControlSequence`` row (open loop) or the value of a ``FeedbackLaw`` at
    its latest instant (closed loop): ``law.command(params, k, x)`` at the
    k-th instant, on the robot model's own ``params``. The pivot force comes from
    ``disturbances``, read once per segment, so it is constant over each
    step; the model of a shaft ignores it.

    output_times defaults to the control grid covered by t_span (plus the
    endpoints). Output times, control instants and disturbance edges all
    become hard step boundaries.

    Each segment's first stage is the derivative at its start. When a
    segment holds the same input bits as the one before it and no
    disturbance edge lies at its start, that derivative is the previous
    segment's end derivative (same state, same rhs), so it is reused instead
    of being evaluated again; the results are the same bits either way. The
    derivative recorded at the end follows the same rule.

    A robot model (one with ``params``) runs this loop, the law included, in C
    to the same bits (:func:`_compiled_rollout`); where the C stops, it runs here.
    """
    opts = options or IntegratorOptions()
    schedule = disturbances or DisturbanceSchedule()
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

    events, on_out, on_start, on_break = _event_times(
        t0, t_end, output_times, controls.boundaries, schedule.edges()
    )
    # inputs and forces are read inside each segment (and at the end):
    # boundaries merged onto a nearby output time could otherwise pick the
    # neighbouring interval's value
    inside = np.append(0.5 * (events[:-1] + events[1:]), events[-1])
    if isinstance(controls, ControlSequence):
        idx = np.searchsorted(controls.boundaries, inside, side="right") - 1
        held, law = controls.samples[np.clip(idx, 0, len(controls.samples) - 1)], None
    else:
        held, law = None, controls
        if not on_start[0]:  # the law's k-th instant reads its k-th row
            raise ValueError("a feedback law needs a control instant at the start of the span")

    x = np.asarray(x0, dtype=float).copy()
    params = getattr(model, "params", None)
    if params is not None and (held is None or held.shape[1] == 3):
        kernel = _robot_kernel()
        robot_rollouts["python" if kernel is None else "c"] += 1
        if kernel is not None:
            traj = _compiled_rollout(kernel, model, x, opts, events, on_out, on_start, on_break,
                                     held, schedule.force_at(inside), law)
            if traj is not None:
                return traj
    times = events[on_out]
    states = np.empty((len(times), len(x)))
    derivs = np.empty_like(states)
    inputs = np.empty((len(times), 3 if held is None else held.shape[1]))
    stats = IntegratorStats()
    h = opts.first_step
    last_bits = None
    row = instant = 0
    # the flags are iterated as arrays and the times converted one at a
    # time, so no per-event Python objects outlive their event
    for i, (t, out, start, brk) in enumerate(zip(map(float, events), on_out, on_start, on_break)):
        if i:
            x, k1, h = advance_segment(f, t_prev, t, x, opts, stats, h_start=h, k1=k1)
        if held is not None:
            u = held[i]
        elif start:
            u = law.command(params, instant, x)
            instant += 1
        # compared bit for bit, so that 0.0 and -0.0 count as different holds
        bits = u.tobytes()
        if bits != last_bits or brk:
            f = model(u.tolist(), schedule.force_at(inside[i]).tolist())
            k1 = f(t, x.tolist())
            stats.fevals += 1
            last_bits = bits
        if out:
            states[row] = x
            derivs[row] = k1
            inputs[row] = u
            row += 1
        t_prev = t

    return SimTrajectory(
        times=times, states=states, controls=inputs, derivs=derivs, stats=asdict(stats)
    )


# Robot rollouts run by each engine in this process ("c" or "python"); a
# run's manifest names the one that ran its robot rollouts.
robot_rollouts = {"c": 0, "python": 0}

# the IntegratorStats counts, fields of _ckernel.Rollout by the same names
_STATS = [f.name for f in fields(IntegratorStats)]


@functools.cache
def _robot_kernel():
    """The compiled rollout loop (``otbot._ckernel.load``), or None."""
    from . import _ckernel

    return _ckernel.load()


def _compiled_rollout(kernel, model, x, opts, events, on_out, on_start, on_break, held, forces, law):
    """:func:`integrate`'s loop for the robot on ``robot_rollout`` (``_dp5_robot.c``),
    the feedback ``law`` included, or None where the C stops, which is where
    Python raises.

    The C runs event 0, Python guesses the first step from its hold, and the
    C runs the other events. The struct belongs to this rollout: rollouts may
    run on threads, and the foreign call releases the GIL."""
    from ._ckernel import FEEDBACK, FEEDFORWARD, Rollout

    run, ddot, dgemv = kernel
    states = np.empty((int(on_out.sum()), 12))
    derivs, inputs = np.empty_like(states), np.empty((len(states), 3))
    rows = (None,) * 3 if law is None else (law.reference, law.u_traj, law.u_corr)
    held = np.empty((len(events), 3)) if law is not None else held
    tables = (events, on_out, on_start, on_break, held, forces, states, derivs, inputs, *rows)
    c = Rollout(*(None if a is None else a.ctypes.data for a in tables), ddot, dgemv,
                opts.rtol, opts.atol, opts.max_step, opts.first_step or 0.0, math.inf, 0.0)
    c.blk[:14] = [getattr(model.params, name) for name in PARAM_FIELDS]
    if law is not None:
        c.law = FEEDFORWARD if law.gains is None else FEEDBACK
        if law.gains is not None:
            c.kp[:], c.kv[:] = law.gains.kp.tolist(), law.gains.kv.tolist()
    np.ctypeslib.as_array(c.x)[:] = x
    if run(c, 0, 1):
        return None
    if opts.first_step is None and len(events) > 1:  # from the hold of event 0
        c.h = initial_step(model(c.blk[14:17], c.blk[17:]), float(events[0]), x, c.k1[:],
                           opts.rtol, opts.atol)
        c.fevals += 1
    if run(c, 1, len(events)):
        return None
    stats = {name: getattr(c, name) for name in _STATS}
    return SimTrajectory(times=events[on_out], states=states, controls=inputs, derivs=derivs, stats=stats)


def simulate_robot(
    params: RobotParams,
    state0: RobotState,
    controls: ControlSequence | FeedbackLaw,
    t_end: float | None = None,
    disturbances: DisturbanceSchedule | None = None,
    options: IntegratorOptions | None = None,
    output_times=None,
) -> SimTrajectory:
    """Robot rollout under held torques, from a sequence or a feedback law.

    ``disturbances`` is a schedule of planar force pulses on the pivot; each
    pulse edge is a step boundary, and the force is read once per segment
    (see :func:`integrate`).
    """

    return integrate(
        _robot_model(params),
        state0.as_vector(),
        (controls.t0, controls.end_time if t_end is None else t_end),
        controls,
        options=options,
        output_times=output_times,
        disturbances=disturbances,
    )


def _robot_model(params: RobotParams):
    """``model(u, force)`` of :func:`integrate` for the robot, with the parameters
    as ``model.params`` for a feedback law and the compiled loop."""

    def model(u, force):
        def f(t, y):
            return state_derivative(params, y, u, force)

        return f

    model.params = params
    return model


def shaft_derivative(inertia: float, damping: float, x: list, u: float) -> list:
    """Single actuated shaft: inertia * ddphi = u - damping * dphi."""
    return [x[1], (u - damping * x[1]) / inertia]


def simulate_shaft(
    inertia: float,
    damping: float,
    controls: ControlSequence,
    options: IntegratorOptions | None = None,
    output_times=None,
) -> SimTrajectory:
    """Rollout of the isolated-shaft model used by the basic identification step."""
    # the fitter hands in numpy scalars; float arithmetic keeps the stages floats
    inertia, damping = float(inertia), float(damping)

    def model(u, force):
        torque = u[0]

        def f(t, y):
            return shaft_derivative(inertia, damping, y, torque)

        return f

    return integrate(
        model,
        np.zeros(2),
        (controls.t0, controls.end_time),
        controls,
        options=options,
        output_times=output_times,
    )


def format_float(v: float) -> str:
    """Shortest decimal spelling that reads back as the same double."""
    return repr(float(v))


# Tables written by each CSV formatter in this process ("c" or "python"); a
# run's manifest names the one that wrote its tables.
csv_tables = {"c": 0, "python": 0}

# Rows spelled per call of the compiled formatter
_BLOCK_ROWS = 1024


@functools.cache
def _csv_formatter():
    """The compiled CSV formatter (``otbot._ckernel.load_formatter``), or None."""
    from . import _ckernel

    return _ckernel.load_formatter()


def write_csv(path: str | Path, header, columns, line_end: str = "\n") -> None:
    """Write equal-length columns (1-D or 2-D arrays) under a header row.

    The columns are cast to float64 (no caller passes a non-float table), and
    each double is written in its shortest exact spelling, the one ``repr``
    gives (see :func:`format_float`). The compiled formatter spells blocks of
    rows into one reusable buffer, so no text of the whole table is built.
    Where it cannot be built, each row is joined from ``repr`` in Python, with
    the same bytes. ``line_end`` ends every line as given.
    """
    table = np.ascontiguousarray(np.column_stack(columns), dtype=np.float64)
    eol = line_end.encode()
    format_rows = _csv_formatter()
    csv_tables["python" if format_rows is None else "c"] += 1
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + eol)
        if format_rows is None:
            for row in table:
                fh.write(",".join(map(repr, row.tolist())).encode() + eol)
            return
        from ._ckernel import CELL_BYTES

        cols = table.shape[1]
        out = np.empty(_BLOCK_ROWS * (CELL_BYTES * cols + len(eol)), dtype=np.uint8)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            n = format_rows(block.ctypes.data, len(block), cols, eol, len(eol),
                            out.ctypes.data, out.size)
            if n < 0:
                raise RuntimeError(f"CSV formatter: {out.size} bytes cannot hold {len(block)} rows")
            fh.write(out[:n])


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
