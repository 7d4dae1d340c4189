"""Computed-torque tracking in task space, plus a torque feasibility check.

The control law cancels the task-space model and places two real poles per
axis, so each tracking-error coordinate obeys an independent second-order
linear ODE. The torque splits into a trajectory part (what following the
reference costs) and a correction part (what the feedback adds); the split
is what the feasibility analysis bounds with interval arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import RobotState, admissible_state, task_space_model
from .interval import Interval, matvec
from .params import RobotParams
from .references import PlanReference, ReferenceTrajectory, plan_step
from .simulate import (  # the disturbance types are re-exported from here
    ControlSequence,
    DisturbanceSchedule,
    EventPlan,
    ForcePulse,
    MAX_PERIODS,
    SimTrajectory,
    robot_model,
    rollout,
    simulate_robot,
    whole_periods,
)

DEFAULT_TORQUE_LIMIT = 50.0
# grid rate [Hz] of the feasibility check's feedforward rollout
FEASIBILITY_RATE = 100.0


@dataclass(frozen=True)
class Gains:
    """Diagonal PD gains together with the pole pair they place per axis."""

    kp: np.ndarray
    kv: np.ndarray
    poles: np.ndarray

    def __post_init__(self) -> None:
        kp = np.atleast_1d(np.asarray(self.kp, dtype=float))
        kv = np.atleast_1d(np.asarray(self.kv, dtype=float))
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kv", kv)
        object.__setattr__(self, "poles", np.asarray(self.poles, dtype=float).reshape(3, 2))
        if kp.shape != (3,) or kv.shape != (3,):
            raise ValueError("need one kp and one kv per task coordinate")
        if np.any(kp <= 0.0) or np.any(kv <= 0.0):
            raise ValueError("gains must be positive")


def tune_gains(t_stab=3.0) -> Gains:
    """Place the error poles from a stabilisation time, one per axis or shared.

    The slow pole sits at -4/t_stab (the 2 percent settling rate of a
    first-order mode) and the fast pole ten times further left; kp is the
    product of the poles and kv their negated sum.
    """
    ts = np.broadcast_to(np.atleast_1d(np.asarray(t_stab, dtype=float)), (3,)).copy()
    if np.any(ts <= 0.0):
        raise ValueError("stabilisation times must be positive")
    s1 = -4.0 / ts
    s2 = 10.0 * s1
    return Gains(kp=s1 * s2, kv=-(s1 + s2), poles=np.stack([s1, s2], axis=1))


@dataclass(frozen=True)
class ControlInput:
    """Torque command split into trajectory and correction parts (u = sum),
    with the task-space model (Mbar, Cbar) it was computed from."""

    u: np.ndarray
    u_traj: np.ndarray
    u_corr: np.ndarray
    mbar: np.ndarray
    cbar: np.ndarray


def computed_torque(
    params: RobotParams,
    state: RobotState,
    ref_sample,
    gains: Gains | None,
) -> ControlInput:
    """Feedback-linearising torque for one control instant.

    ``ref_sample`` is the (p_d, dp_d, ddp_d) triple at the current time.
    ``gains=None`` drops the correction term (pure feedforward along the
    reference).
    """
    p_d, dp_d, ddp_d = ref_sample
    q = state.q
    dq = state.dq
    dp = dq[:3]
    mbar, cbar = task_space_model(params, q, dq)
    u_traj = mbar @ ddp_d + cbar @ dp
    if gains is None:
        u_corr = np.zeros(3)
    else:
        e_p = q[:3] - p_d
        e_v = dp - dp_d
        u_corr = mbar @ (-gains.kp * e_p - gains.kv * e_v)
    return ControlInput(u=u_traj + u_corr, u_traj=u_traj, u_corr=u_corr, mbar=mbar, cbar=cbar)


class FeedbackLaw:
    """The computed-torque law as data: ``reference`` gives (p_d, dp_d, ddp_d)
    at ``boundaries[k]``, as row k of a table or sampled from a
    :class:`ReferenceTrajectory`; ``gains=None`` is feedforward. A robot
    rollout moves it over its instants a block at a time (:meth:`block`) and
    evaluates it on its own parameters at the block's k-th instant, from row
    k of ``reference``, by :meth:`command` or in C to the same bits: it holds
    the torque and fills row k of ``u_traj`` and ``u_corr``, and with
    ``keep_model`` of ``mbar`` and ``cbar``, the (3, 3) task-space matrices
    the torque came from (None without)."""

    def __init__(self, boundaries: np.ndarray, reference, gains: Gains | None,
                 keep_model: bool = False):
        self.boundaries, self.gains, self.keep_model = boundaries, gains, keep_model
        self.t0, self.end_time = float(boundaries[0]), float(boundaries[-1])
        self.source = reference if isinstance(reference, ReferenceTrajectory) else np.asarray(reference, float)
        if isinstance(self.source, np.ndarray) and self.source.shape != (len(boundaries), 9):
            raise ValueError(f"need one reference row of 9 per instant, got {self.source.shape}")

    def block(self, k0: int, k1: int) -> None:
        """Hold the instants ``[k0, k1)``: their reference rows and fresh rows of the rest."""
        n = k1 - k0
        self.reference = np.ascontiguousarray(self.source[k0:k1] if isinstance(self.source, np.ndarray)
                                              else np.column_stack(self.source.sample(self.boundaries[k0:k1])))
        self.u_traj, self.u_corr = np.empty((n, 3)), np.empty((n, 3))
        self.mbar, self.cbar = (np.empty((n, 3, 3)), np.empty((n, 3, 3))) if self.keep_model else (None, None)

    def command(self, params: RobotParams, k: int, x: np.ndarray) -> np.ndarray:
        """The torque at the k-th instant from the state ``x``, by :func:`computed_torque`."""
        # the row's three 3-vectors are (p_d, dp_d, ddp_d); an overflow shows, as from
        # the C, in the rollout that holds the torque, not as a numpy warning
        with np.errstate(all="ignore"):
            command = computed_torque(params, RobotState(q=x[:6], dq=x[6:]), self.reference[k].reshape(3, 3),
                                      self.gains)
        self.u_traj[k], self.u_corr[k] = command.u_traj, command.u_corr
        if self.mbar is not None:
            self.mbar[k], self.cbar[k] = command.mbar, command.cbar
        return command.u


@dataclass
class TrackingResult:
    """Closed-loop (or feedforward) run sampled on the control grid: row k of
    every table is the k-th control instant, ``mbar`` and ``cbar`` (the law's,
    None unless it kept them) included."""

    trajectory: SimTrajectory
    p_ref: np.ndarray
    v_ref: np.ndarray
    a_ref: np.ndarray
    e_p: np.ndarray
    e_v: np.ndarray
    u_traj: np.ndarray
    u_corr: np.ndarray
    mbar: np.ndarray | None = None
    cbar: np.ndarray | None = None


def closed_loop_simulate(params: RobotParams, state0: RobotState | np.ndarray, ref: ReferenceTrajectory,
                         gains: Gains | None, **options) -> TrackingResult:
    """The whole run of :func:`closed_loop_blocks` as one block."""
    (result,) = closed_loop_blocks(params, state0, ref, gains, **options, rows=MAX_PERIODS)
    return result


def closed_loop_blocks(
    params: RobotParams,
    state0: RobotState | np.ndarray,
    ref: ReferenceTrajectory,
    gains: Gains | None,
    control_rate: float = 1000.0,
    disturbances: DisturbanceSchedule | None = None,
    t_end: float | None = None,
    keep_model: bool = False,
    rows: int | None = None,
) -> Iterator[TrackingResult]:
    """Track ``ref`` with the computed-torque law under zero-order hold: the
    result of each block of at most ``rows`` control instants (default
    ``simulate._BLOCK_ROWS``) in turn, its reference sampled for it.

    The torque updates at ``control_rate`` from the state at each update;
    ``gains=None`` applies the trajectory part alone (pure feedforward).
    Disturbance pulses act as planar forces on the pivot and their
    switching instants are integration breakpoints, never stepped across.
    With ``keep_model`` the result holds the task-space matrices the law
    computed at each instant.
    """
    t_end = ref.horizon if t_end is None else float(t_end)
    n = whole_periods(t_end, control_rate)
    if n is None:
        raise ValueError("t_end must be a whole number of control periods")
    grid = (1.0 / control_rate) * np.arange(n + 1)
    law = FeedbackLaw(grid, ref, gains, keep_model)
    if not isinstance(state0, RobotState):
        state0 = RobotState.from_vector(state0)
    plan = EventPlan((law.t0, law.end_time), law, disturbances=disturbances)
    # every output is a control instant and every instant an output, so the
    # law's row k belongs to the k-th output state
    assert np.array_equal(plan.out, plan.start)
    for traj in rollout(robot_model(params), state0.as_vector(), plan, rows=rows):
        p_ref, v_ref, a_ref = (law.reference[:, i : i + 3] for i in (0, 3, 6))
        e_p, e_v = traj.states[:, 0:3] - p_ref, traj.states[:, 6:9] - v_ref
        yield TrackingResult(traj, p_ref, v_ref, a_ref, e_p, e_v, law.u_traj, law.u_corr, law.mbar, law.cbar)


def reference_start_state(params: RobotParams, ref: ReferenceTrajectory) -> RobotState:
    """On-reference initial state with the chassis facing the initial motion."""
    p0, v0, _ = ref.sample(0.0)
    theta = math.atan2(v0[1], v0[0]) if math.hypot(v0[0], v0[1]) > 1e-12 else p0[2]
    q = np.array([p0[0], p0[1], p0[2], 0.0, 0.0, p0[2] - theta])
    return admissible_state(params, q, dp=v0)


def feedforward_rollout(
    params: RobotParams,
    ref: ReferenceTrajectory,
    rate: float = 100.0,
    t_end: float | None = None,
) -> TrackingResult:
    """Open-loop run applying only the trajectory part of the torque.

    Starts on the reference. The applied torque is the feedforward term
    evaluated along the simulated motion, which is the nominal run the
    feasibility check linearises about; the result keeps the task-space
    matrices of every instant for it.
    """
    state0 = reference_start_state(params, ref)
    return closed_loop_simulate(params, state0, ref, None, control_rate=rate, t_end=t_end, keep_model=True)


def track_planned_trajectory(
    params: RobotParams,
    plan: SimTrajectory,
    gains: Gains,
    control_rate: float = 1000.0,
) -> TrackingResult:
    """Follow a planned state sequence closed loop from its first state."""
    ref = PlanReference(plan)
    return closed_loop_simulate(
        params,
        RobotState.from_vector(plan.states[0]),
        ref,
        gains,
        control_rate=control_rate,
        t_end=ref.horizon,
    )


def open_loop_replay(params: RobotParams, plan: SimTrajectory) -> SimTrajectory:
    """Re-run the planned torque sequence blind from the plan's first state, at t = 0."""
    times = plan.times - plan.times[0]
    controls = ControlSequence(t0=0.0, dt=plan_step(times), samples=plan.controls[:-1])
    return simulate_robot(
        params,
        RobotState.from_vector(plan.states[0]),
        controls,
        t_end=float(times[-1]),
        output_times=times,
    )


@dataclass(frozen=True)
class TorqueBounds:
    """Actuator limits and the error box the feedback may have to act on."""

    limits: Interval
    position_box: Interval
    velocity_box: Interval

    def __post_init__(self) -> None:
        zero = np.zeros(3)
        if not (self.position_box.contains(zero) and self.velocity_box.contains(zero)):
            raise ValueError("error boxes must contain zero")

    @classmethod
    def symmetric(cls, torque: float = DEFAULT_TORQUE_LIMIT) -> "TorqueBounds":
        """Limits of +-``torque``, error boxes of +-0.05 (position) and +-0.25 (velocity)."""
        return cls(
            limits=Interval.symmetric(np.full(3, torque)),
            position_box=Interval.symmetric(np.full(3, 0.05)),
            velocity_box=Interval.symmetric(np.full(3, 0.25)),
        )


@dataclass
class FeasibilityReport:
    """Per-time torque intervals from the feasibility analysis."""

    times: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    nominal: np.ndarray
    mbar: np.ndarray
    cbar: np.ndarray
    v_ref: np.ndarray
    a_ref: np.ndarray
    bounds: TorqueBounds
    ok: bool
    worst_margin: float
    note: str


def torque_feasibility(
    params: RobotParams,
    ref: ReferenceTrajectory,
    gains: Gains,
    bounds: TorqueBounds | None = None,
    rate: float = FEASIBILITY_RATE,
    t_end: float | None = None,
) -> FeasibilityReport:
    """Interval certificate that tracking torques stay inside actuator limits.

    Rolls the model open loop along the reference, then at every grid time
    bounds u = u_traj + u_corr over all position and velocity errors inside
    the given boxes. The task-space matrices are frozen at the rollout
    state, so the certificate is first order in the error box; the report
    notes this approximation.
    """
    bounds = bounds or TorqueBounds.symmetric()
    roll = feedforward_rollout(params, ref, rate=rate, t_end=t_end)
    # the matrices the law computed at each output state
    mbars, cbars = roll.mbar, roll.cbar
    feedback = bounds.position_box.scale(-gains.kp) + bounds.velocity_box.scale(-gains.kv)
    # stacked matmul gives each sample's ``mbar @ a_ref[k]`` bit for bit
    mbar_a = (mbars @ roll.a_ref[:, :, None])[:, :, 0]
    total = matvec(mbars, feedback) + (matvec(cbars, bounds.velocity_box + roll.v_ref) + mbar_a)
    lo, hi = total.lo, total.hi
    nominal = mbar_a + (cbars @ roll.v_ref[:, :, None])[:, :, 0]

    margin = float(np.minimum(bounds.limits.hi - hi, lo - bounds.limits.lo).min())
    return FeasibilityReport(
        times=roll.trajectory.times,
        lo=lo,
        hi=hi,
        nominal=nominal,
        mbar=mbars,
        cbar=cbars,
        v_ref=roll.v_ref,
        a_ref=roll.a_ref,
        bounds=bounds,
        ok=bool(margin >= 0.0),
        worst_margin=margin,
        note=(
            "interval hull holds the task-space matrices at the nominal "
            "feedforward rollout; it is first order in the error box"
        ),
    )


@dataclass(frozen=True)
class TransientMetrics:
    peak: float
    t_peak: float
    recovery: float | None


def transient_metrics(
    times: np.ndarray,
    signal: np.ndarray,
    onset: float,
    window_end: float | None = None,
    fraction: float = 0.02,
    sustained: bool = False,
) -> TransientMetrics:
    """Peak of |signal| after ``onset`` and the time it settles below 2 percent.

    Recovery is measured from the onset to the first sample at or below
    ``fraction`` times the peak after the peak, or None if that never
    happens inside the window. With ``sustained`` the signal must also stay
    below the threshold for the rest of the window, which matters for
    oscillatory errors that dip through zero on the way up.
    """
    times = np.asarray(times, dtype=float)
    s = np.abs(np.asarray(signal, dtype=float))
    end = float(times[-1]) if window_end is None else float(window_end)
    mask = (times >= onset) & (times <= end)
    tw = times[mask]
    sw = s[mask]
    i = int(np.argmax(sw))
    peak = float(sw[i])
    tail = sw[i:] <= fraction * peak
    if sustained:
        # last crossing into the band, provided the band holds afterwards
        above = np.nonzero(~tail)[0]
        first = above[-1] + 1 if len(above) else 0
        below = np.array([first]) if first < len(tail) else np.array([], dtype=int)
    else:
        below = np.nonzero(tail)[0]
    recovery = float(tw[i + below[0]] - onset) if len(below) else None
    return TransientMetrics(peak=peak, t_peak=float(tw[i]), recovery=recovery)
