"""The rollout engine: the robot (or a shaft) integrated under held inputs.

Inputs are zero-order held. They come either from a torque sequence (open
loop) or from a feedback law evaluated at each control instant (closed
loop: ``otbot.control.FeedbackLaw``, the computed-torque law as data). The
integrator is never allowed to step across a hold boundary, an output
sample time or a disturbance on/off edge, so every recorded sample is
an exact step endpoint and no dense-output interpolation is needed. Those
boundaries and what is held from each make a read-only :class:`EventPlan`,
built once for every rollout of one record (``otbot.identify``) or on the
spot for a single rollout (:func:`simulate_robot`, :func:`simulate_shaft`).
Robot and shaft rollouts run in the generated C loop of ``_dp5_robot.c``
(see ``otbot._ckernel``) to the same bits as the Python engine here, which
is their oracle and the fallback where no compiler is found.

Recorded derivatives follow the right-continuous convention: the derivative
stored at a grid time is evaluated with the input and the pivot force that
start there (the final sample uses the input held at the end).
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _ckernel
from .dynamics import RobotState, state_derivative
from .integrator import IntegratorOptions, IntegratorStats, advance_segment
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


# float64 counts whole numbers exactly up to 2**53, and a run no more periods
MAX_PERIODS = 2**53


def whole_periods(duration: float, rate: float) -> int | None:
    """The periods of ``rate`` in ``duration``, or None where not a whole number from 1 to MAX_PERIODS."""
    n = round(duration * rate) if duration * rate <= MAX_PERIODS else 0
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
    inertial sensor model consumes. None under a feedback law or read from a file.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    derivs: np.ndarray | None = None
    stats: dict = field(default_factory=dict)

    @property
    def accelerations(self) -> np.ndarray:
        if self.derivs is None:
            raise ValueError("the trajectory recorded no derivatives (a feedback law's, or a file's)")
        return self.derivs[:, 6:12]


# Times closer than this are one instant spelled two ways (a control grid
# built as t0 + k*dt versus an output grid built as k/rate can disagree by
# an ulp); integrating the gap between them underflows the step size.
_EVENT_MERGE_TOL = 1e-9


class EventPlan:
    """The step boundaries of rollouts over ``t_span`` under ``controls``,
    sampled at ``output_times`` (default: the control grid in t_span and
    its ends), with the pivot forces of ``disturbances``.

    Output times, control instants and disturbance edges are all hard step
    boundaries, ``events``; times within ``_EVENT_MERGE_TOL`` of each other
    are one boundary, spelled as the output time among them. Per boundary,
    ``out``, ``start`` and ``brk`` flag an output time, a control instant and
    a disturbance edge, ``held`` is the input row held from it (None under
    a feedback ``law``) and ``forces`` the pivot force (fx, fy); ``times``
    are the output times. The tables are read-only: one plan serves any
    number of rollouts, each writing only its own buffers, and ``template``,
    the ``_ckernel.Rollout`` of an open-loop plan's tables, built by its
    first compiled rollout and copied by each one, points into them.
    """

    def __init__(self, t_span, controls: ControlSequence | FeedbackLaw, output_times=None,
                 disturbances: DisturbanceSchedule | None = None):
        schedule = disturbances or DisturbanceSchedule()
        t0, t_end = float(t_span[0]), float(t_span[1])
        if not t_end > t0:
            raise ValueError(f"empty time span {t_span}")
        if output_times is None:
            mask = (controls.boundaries > t0) & (controls.boundaries < t_end)
            output_times = np.concatenate([[t0], controls.boundaries[mask], [t_end]])
        else:
            output_times = np.sort(np.asarray(output_times, dtype=float))
        lo, hi = t0 - _EVENT_MERGE_TOL, t_end + _EVENT_MERGE_TOL
        if output_times[0] < lo or output_times[-1] > hi:
            raise ValueError("output times fall outside the integration span")
        groups = [g[(g > lo) & (g < hi)]
                  for g in (output_times, controls.boundaries, np.array(schedule.edges(), float))]
        # the distinct times, sorted: np.unique would import numpy.ma on its first call
        raw = np.sort(np.concatenate([[t0, t_end], *groups]))
        raw = raw[np.diff(raw, prepend=np.nan) != 0.0]
        marks = []
        for g in groups:
            marks.append(np.zeros(len(raw), dtype=bool))
            marks[-1][np.searchsorted(raw, g)] = True
        # a boundary starts wherever the gap to the previous time exceeds the tolerance
        starts = np.flatnonzero(np.diff(raw, prepend=-np.inf) > _EVENT_MERGE_TOL)
        events = raw[starts]
        # keep the output-grid spelling so requested samples match exactly
        outs = np.flatnonzero(marks[0])
        # each output time's boundary, never decreasing: a boundary takes its first's spelling
        idx = np.searchsorted(starts, outs, side="right") - 1
        first = np.flatnonzero(np.diff(idx, prepend=-1))
        events[idx[first]] = raw[outs[first]]
        out, start, brk = (np.logical_or.reduceat(m, starts) for m in marks)

        # inputs and forces are read inside each segment (and at the end):
        # boundaries merged onto a nearby output time could otherwise pick the
        # neighbouring interval's value
        inside = np.append(0.5 * (events[:-1] + events[1:]), events[-1])
        if isinstance(controls, ControlSequence):
            idx = np.searchsorted(controls.boundaries, inside, side="right") - 1
            held, law = controls.samples[np.clip(idx, 0, len(controls.samples) - 1)], None
        else:
            held, law = None, controls
            if not start[0]:  # the law's k-th instant reads its k-th row
                raise ValueError("a feedback law needs a control instant at the start of the span")
        self.events, self.out, self.start, self.brk, self.held, self.law = (
            events, out, start, brk, held, law)
        self.forces, self.times = schedule.force_at(inside), events[out]
        self.template = None
        for table in (events, out, start, brk, self.forces, self.times, held):
            if table is not None:
                table.flags.writeable = False

    def block_ends(self, rows: int) -> list[int]:
        """The event after the last output of each block of ``rows`` outputs but the last, then the end;
        the first block holds two events or more, where the C guesses its first step."""
        cuts = np.flatnonzero(self.out)[rows - 1 : len(self.times) - 1 : rows] + 1 if rows < len(self.times) else []
        return [*(int(c) for c in cuts if c > 1), len(self.events)]


def integrate(model, x0, plan: EventPlan, options: IntegratorOptions | None = None) -> SimTrajectory:
    """The whole rollout of :func:`rollout` as one block."""
    (traj,) = rollout(model, x0, plan, options, rows=len(plan.times))
    return traj


def rollout(model, x0, plan: EventPlan, options: IntegratorOptions | None = None,
            rows: int | None = None) -> Iterator[SimTrajectory]:
    """Adaptively integrate dx/dt = f(t, x) from ``x0`` over the events of
    ``plan``, the hard step boundaries, so every output sample is an exact
    step endpoint: the trajectory of each block of at most ``rows`` output
    rows (default ``_BLOCK_ROWS``), in order, with the stats so far.

    ``model(u, force)`` returns the rhs ``f(t, y)`` for a held input ``u``
    and pivot force ``force``, both lists of floats; ``f`` follows the
    integrator's contract (``t`` a float, ``y`` a list of floats, a sequence
    of floats returned) and may not depend on ``t``. The input is the plan's
    held row (open loop) or the value of its ``FeedbackLaw`` at the latest
    instant (closed loop): ``law.command(params, k, x)`` at the k-th instant
    of the block the law holds (``law.block``), on the robot model's own
    ``params``. The pivot force is the plan's, so it is constant over each
    step; the model of a shaft ignores it.

    Each segment's first stage is the derivative at its start. Where a
    segment holds the same input bits as the one before it and no
    disturbance edge lies at its start, that is the previous segment's end
    derivative (same state, same rhs), reused to the same bits. The
    derivative recorded at the end follows the same rule.

    A rollout under a law records no derivatives (``derivs`` None).

    A model with sensitivity ``lanes`` (one given seeds) carries the
    sensitivities of its states after them in ``x0``: only the leading
    ``len(x0) // (1 + lanes)`` states weigh in the error norm and the
    first-step guess, so those take the plain model's steps to the bit.

    A model of :func:`robot_model` or :func:`shaft_model` (one with a
    ``kind``) runs this loop, a law included, in C to the same bits
    (:func:`_compiled_blocks`) wherever ``_ckernel.load`` loads it; where
    the C stops, it runs here from the start, yielding from the block the
    C stopped in, which is where Python raises.
    """
    opts = options or IntegratorOptions()
    x = np.asarray(x0, dtype=float).copy()
    ends = plan.block_ends(rows or _BLOCK_ROWS)
    kernel = _ckernel.load() if hasattr(model, "kind") else None
    done = 0  # the blocks the C yielded
    if kernel is not None:
        for traj in _compiled_blocks(kernel, model, x, opts, plan, ends):
            if traj is None:
                break
            done += 1
            yield traj
        else:
            return
    law, held, params = plan.law, plan.held, getattr(model, "params", None)
    error_states = len(x) // (1 + getattr(model, "lanes", 0))
    stats = IntegratorStats()
    h = None
    last_bits = None
    # the flags are iterated as arrays and the times converted one at a
    # time, so no per-event Python objects outlive their event
    flags = zip(map(float, plan.events), plan.out, plan.start, plan.brk)
    for b, (lo, hi, times, states, derivs, inputs) in enumerate(_block_buffers(plan, len(x), ends)):
        row = instant = 0
        for i, (t, out, start, brk) in enumerate(itertools.islice(flags, hi - lo), lo):
            if i:
                x, k1, h = advance_segment(f, t_prev, t, x, opts, stats, h, k1, error_states)
            if held is not None:
                u = held[i]
            elif start:
                u = law.command(params, instant, x)
                instant += 1
            # compared bit for bit, so that 0.0 and -0.0 count as different holds
            bits = u.tobytes()
            if bits != last_bits or brk:
                f = model(u.tolist(), plan.forces[i].tolist())
                k1 = f(t, x.tolist())
                stats.fevals += 1
                last_bits = bits
            if out:
                states[row] = x
                if derivs is not None:
                    derivs[row] = k1
                inputs[row] = u
                row += 1
            t_prev = t
        if b >= done:
            yield SimTrajectory(times, states, inputs, derivs, asdict(stats))


def _block_buffers(plan: EventPlan, width: int, ends):
    """Per block of events ``[lo, hi)`` up to each of ``ends``: ``(lo, hi, times, states, derivs,
    inputs)``, its output times and fresh output rows, the plan's law moved to its instants."""
    law, lo, r0, k0 = plan.law, 0, 0, 0
    for hi in ends:
        rows = int(np.count_nonzero(plan.out[lo:hi]))
        states = np.empty((rows, width))
        if law is None:
            derivs, inputs = np.empty_like(states), np.empty((rows, plan.held.shape[1]))
        else:
            derivs, inputs, k1 = None, np.empty((rows, 3)), k0 + int(np.count_nonzero(plan.start[lo:hi]))
            law.block(k0, k1)
            k0 = k1
        yield lo, hi, plan.times[r0 : r0 + rows].copy(), states, derivs, inputs
        lo, r0 = hi, r0 + rows


# the IntegratorStats counts, fields of _ckernel.Rollout by the same names
_STATS = [f.name for f in fields(IntegratorStats)]


def _compiled_blocks(kernel, model, x, opts, plan, ends):
    """:func:`rollout`'s loop on ``rollout`` (``_dp5_robot.c``) for the
    model's ``kind`` of ``_ckernel.MODELS``, a feedback law included: each
    block, or None where the C stops, which is where Python raises, or
    first where the model and plan do not fit the C.

    One call runs each block's events (from event 0, with the first-step
    guess) on a copy of the plan's ``template``, or under a law on a struct
    with held rows of its own, its output rows pointed at the block's. The
    copy belongs to this rollout, since the C writes into it; the template
    points into the plan's tables and serves its next rollouts."""
    index = _ckernel.MODEL_INDEX[model.kind]
    m, law = _ckernel.MODELS[index], plan.law
    fits = (len(x), 3 if law is not None else plan.held.shape[1]) == (m.states, m.inputs)
    if not fits or (law is not None and m.name != "robot"):
        yield None
        return
    run, *blas = kernel
    c = plan.template
    if law is not None or c is None or [c.ddot, c.dgemv] != blas:
        held = plan.held if law is None else np.empty((len(plan.events), m.inputs))
        tables = (plan.events, plan.out, plan.start, plan.brk, held, plan.forces)
        c = _ckernel.Rollout(*(a.ctypes.data for a in tables), *(None,) * 8, *blas)
        plan.template = c if law is None else None
    c = _ckernel.Rollout.from_buffer_copy(c)
    if law is not None:
        c.law = _ckernel.FEEDFORWARD if law.gains is None else _ckernel.FEEDBACK
        if law.gains is not None:
            c.kp[:], c.kv[:] = law.gains.kp.tolist(), law.gains.kv.tolist()
    c.rtol, c.atol, c.model = opts.rtol, opts.atol, index
    c.blk[: m.params] = model.block
    c.x[: m.states] = x.tolist()
    for lo, hi, times, states, derivs, inputs in _block_buffers(plan, len(x), ends):
        law_rows = (law.reference, law.u_traj, law.u_corr, law.mbar, law.cbar) if law is not None else (None,) * 5
        c.states, c.derivs, c.controls, c.reference, c.u_traj, c.u_corr, c.mbar, c.cbar = (
            None if a is None else a.ctypes.data for a in (states, derivs, inputs, *law_rows))
        c.row = c.instant = 0
        if run(c, lo, hi):
            yield None
            return
        yield SimTrajectory(times, states, inputs, derivs, {name: getattr(c, name) for name in _STATS})


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
    (see :class:`EventPlan`).
    """

    t_span = (controls.t0, controls.end_time if t_end is None else t_end)
    plan = EventPlan(t_span, controls, output_times, disturbances)
    return integrate(robot_model(params), state0.as_vector(), plan, options)


def robot_model(params: RobotParams, seeds=None):
    """``model(u, force)`` of :func:`integrate` for the robot: its parameters as
    ``model.params`` for a feedback law, and as the ``block`` of the
    compiled loop's ``kind`` "robot".

    With ``seeds``, the ``dp`` of ``_task_sensitivity.robot_sensitivity``, the
    model of the 12 states and their sensitivities (``kind``
    "robot_sensitivity")."""

    def model(u, force):
        if seeds is None:
            def f(t, y):
                return state_derivative(params, y, u, force)
        else:
            # only the Python engine runs this: a compiled run never loads the module
            from . import _task_sensitivity

            (u0, u1, u2), (fx, fy) = u, force

            def f(t, y):
                return _task_sensitivity.robot_sensitivity(params, seeds, y, u0, u1, u2, fx, fy)

        return f

    model.params = params
    return _kind(model, "robot", [getattr(params, name) for name in PARAM_FIELDS], seeds)


def shaft_derivative(inertia: float, damping: float, x: list, u: float) -> list:
    """Single actuated shaft: inertia * ddphi = u - damping * dphi."""
    return [x[1], (u - damping * x[1]) / inertia]


def shaft_model(inertia: float, damping: float, seeds=None):
    """``model(u, force)`` of :func:`integrate` for an isolated shaft, which
    ignores the force; (inertia, damping) is the ``block`` of the compiled
    loop's ``kind`` "shaft".

    With ``seeds``, the ``dp`` of ``_task_sensitivity.shaft_sensitivity``, the
    model of the 2 states and their sensitivities (``kind``
    "shaft_sensitivity")."""
    # the fitter hands in numpy scalars; float arithmetic keeps the stages floats
    inertia, damping = float(inertia), float(damping)

    def model(u, force):
        torque = u[0]
        if seeds is None:
            def f(t, y):
                return shaft_derivative(inertia, damping, y, torque)
        else:
            from . import _task_sensitivity

            def f(t, y):
                return _task_sensitivity.shaft_sensitivity(inertia, damping, seeds, y, torque)

        return f

    return _kind(model, "shaft", [inertia, damping], seeds)


def _kind(model, kind: str, block: list, seeds):
    """``model`` as the compiled loop's ``kind``, or with ``seeds`` its
    "_sensitivity" model, with its ``block`` (the seeds after the
    parameters) and the ``lanes`` of _ckernel.MODELS, whose states
    :func:`integrate` leaves out of the error norm."""
    model.kind = kind if seeds is None else f"{kind}_sensitivity"
    model.block = block + list(seeds or [])
    model.lanes = _ckernel.MODELS[_ckernel.MODEL_INDEX[model.kind]].lanes
    return model


def simulate_shaft(
    inertia: float,
    damping: float,
    controls: ControlSequence,
    options: IntegratorOptions | None = None,
    output_times=None,
) -> SimTrajectory:
    """Rollout of the isolated-shaft model used by the basic identification step."""
    plan = EventPlan((controls.t0, controls.end_time), controls, output_times)
    return integrate(shaft_model(inertia, damping), np.zeros(2), plan, options)


def format_float(v: float) -> str:
    """Shortest decimal spelling that reads back as the same double."""
    return repr(float(v))


# Rows spelled per call of the compiled formatter, and of a rollout's blocks
_BLOCK_ROWS = 1024


def write_csv(path: str | Path, header, columns, line_end: str = "\n") -> None:
    """Write equal-length columns (1-D or 2-D arrays) under a header row: one block of :func:`write_tables`."""
    write_tables([(path, header, line_end)], [[columns]])


def write_tables(tables, blocks) -> None:
    """Write the tables ``(path, header, line_end)`` a block of rows at a time:
    each of ``blocks`` holds one list of equal-length columns (1-D or 2-D
    arrays) per table, cast to float64 (no caller passes a non-float table).

    Each double is written in its shortest exact spelling, the one ``repr``
    gives (see :func:`format_float`). Up to ``_BLOCK_ROWS`` rows at a time are
    copied from the columns into one table, which the compiled formatter
    spells into one buffer: no copy or text of a whole block is made. Where
    it cannot be built, Python joins the rows from ``repr``, with the same
    bytes. The OSError of a failed write names its table's path.
    """
    format_rows = _ckernel.load_formatter()
    files = []
    try:
        for path, header, line_end in tables:
            files.append(open(path, "wb"))
            files[-1].write(",".join(header).encode() + line_end.encode())
        for block in blocks:
            for (path, _, line_end), fh, columns in zip(tables, files, block):
                _write_rows(fh, columns, line_end.encode(), format_rows)
        for (path, _, _), fh in zip(tables, files):
            fh.close()
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        raise
    finally:
        for fh in files:
            fh.close()


def _write_rows(fh, columns, eol: bytes, format_rows) -> None:
    """The rows of ``columns`` into ``fh``, ``_BLOCK_ROWS`` at a time."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    rows = len(columns[0])
    assert all(len(c) == rows for c in columns), "the columns are not of equal length"
    table = np.empty((min(rows, _BLOCK_ROWS), sum(c.shape[1] for c in columns)))
    out = np.empty(len(table) * (_ckernel.CELL_BYTES * table.shape[1] + len(eol)) if format_rows else 0, np.uint8)
    for start in range(0, rows, _BLOCK_ROWS):
        block = table[: min(_BLOCK_ROWS, rows - start)]
        np.concatenate([c[start : start + len(block)] for c in columns], axis=1, out=block)
        if format_rows is None:
            fh.write(b"".join(",".join(map(repr, row)).encode() + eol for row in block.tolist()))
            continue
        n = format_rows(block.ctypes.data, len(block), block.shape[1], eol, len(eol),
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
        try:
            rows = [[float(v) for v in row] for row in reader]
        except ValueError as exc:  # a cell that is no number
            raise ValueError(f"{path}: {exc}") from None
    if len({len(row) for row in rows}) > 1:  # a short or long row, or a blank line
        k = next(k for k, row in enumerate(rows) if len(row) != len(header))
        raise ValueError(f"{path}: the row on line {k + 2} holds {len(rows[k])} cells under {len(header)} columns")
    rows = np.array(rows)
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    if rows.shape[1] != len(TRAJECTORY_COLUMNS):
        raise ValueError(f"{path}: rows of {rows.shape[1]} cells under {len(TRAJECTORY_COLUMNS)} columns")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: the row on line {bad[0] + 2} holds a value that is not finite")
    return SimTrajectory(times=rows[:, 0], states=rows[:, 1:13], controls=rows[:, 13:16])
