import csv
import io
import math
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import otbot
from conftest import spy_runs
from otbot import _ckernel, _task_space
from otbot.dynamics import RobotState, constraint_violation, state_derivative
from otbot.identify import FITS, experiment
from otbot.integrator import IntegratorOptions, IntegratorStats, advance_segment
from otbot.model import holonomic_residual
from otbot.params import nominal_params
from otbot.simulate import (
    TRAJECTORY_COLUMNS,
    ControlSequence,
    DisturbanceSchedule,
    EventPlan,
    ForcePulse,
    integrate,
    robot_model,
    shaft_model,
    simulate_robot,
    simulate_shaft,
    trajectory_from_csv,
    trajectory_to_csv,
    write_csv,
)


def chassis_controls(duration=1.0, rate=100.0):
    return ControlSequence.constant([6.0, -10.0, 6.0], duration=duration, rate=rate)


def test_control_sequence_lookup():
    seq = ControlSequence(t0=0.25, dt=0.25, samples=[[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(seq.boundaries, [0.25, 0.5, 0.75])
    assert seq.end_time == pytest.approx(1.0)


def test_control_sequence_constant():
    seq = ControlSequence.constant([1.5, -2.5, 0.5], duration=0.5, rate=100.0)
    assert seq.samples.shape == (50, 3)
    assert seq.dt == pytest.approx(0.01)
    np.testing.assert_array_equal(seq.samples[17], [1.5, -2.5, 0.5])


@pytest.mark.parametrize("duration", [0.015, 0.004, 0.0, 1.0 + 2e-9])
def test_control_sequence_constant_refuses_part_periods(duration):
    # a record is never rounded to a neighbouring whole number of periods
    with pytest.raises(ValueError, match="not a whole number of periods"):
        ControlSequence.constant([1.0], duration=duration, rate=100.0)
    assert len(ControlSequence.constant([1.0], duration=1.0 + 5e-10, rate=100.0).samples) == 100


def test_control_sequence_rejects_bad_dt():
    with pytest.raises(ValueError, match="dt"):
        ControlSequence(t0=0.0, dt=0.0, samples=[[1.0]])


def test_rest_with_zero_torque_stays_at_rest():
    p = nominal_params()
    controls = ControlSequence.constant([0.0, 0.0, 0.0], duration=0.2, rate=100.0)
    traj = simulate_robot(p, RobotState.rest(), controls)
    assert np.max(np.abs(traj.states)) == 0.0


def test_recorded_derivatives_and_controls():
    p = nominal_params()
    traj = simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.3))
    # First half of the derivative is the velocity, stored bitwise identical.
    np.testing.assert_array_equal(traj.derivs[:, :6], traj.states[:, 6:])
    np.testing.assert_array_equal(traj.controls, np.tile([6.0, -10.0, 6.0], (len(traj.times), 1)))
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(0.3)


def test_simulation_is_deterministic():
    p = nominal_params()
    a = simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.4))
    b = simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.4))
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.times, b.times)


def test_a_nan_step_raises_an_integration_error_on_both_engines():
    """atol = 0 at rest gives 0/0 error scales, so the first step is guessed
    as NaN; it must underflow, not loop for ever. Run in a child process so
    that a loop for ever fails here at its timeout."""
    code = textwrap.dedent("""
        import math
        from otbot import _ckernel, _task_space
        from otbot.dynamics import RobotState
        from otbot.integrator import IntegrationError, IntegratorOptions
        from otbot.params import nominal_params
        from otbot.simulate import ControlSequence, simulate_robot

        controls = ControlSequence.constant([6, -10, 6], 0.1, 100)
        for engine in ("c", "python"):
            if engine == "python":
                _ckernel.load = lambda: None
            try:
                simulate_robot(nominal_params(), RobotState.rest(), controls,
                               options=IntegratorOptions(atol=0.0))
            except IntegrationError as exc:
                print(engine, exc.t, math.isnan(exc.h))
    """)
    src = str(Path(otbot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["c 0.0 True", "python 0.0 True", ""]


def test_output_times_subset_is_honoured():
    p = nominal_params()
    wanted = [0.0, 0.1, 0.25, 0.4]
    traj = simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.4), output_times=wanted)
    np.testing.assert_array_equal(traj.times, wanted)
    assert traj.states.shape == (4, 12)


def test_output_times_outside_span_rejected():
    p = nominal_params()
    with pytest.raises(ValueError, match="outside"):
        simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.4), output_times=[0.0, 0.7])


def test_output_grid_one_ulp_off_the_hold_grid():
    # arange(k)/rate and t0 + k*dt spell some instants differently by one ulp
    # (0.35 here); the two spellings must merge instead of leaving a
    # degenerate segment behind.
    grid = np.arange(51) / 100.0
    controls = ControlSequence.constant([6.0], duration=0.5, rate=100.0)
    assert controls.boundaries[35] != grid[35]  # the collision this guards
    traj = simulate_shaft(1.04e-2, 0.18, controls, output_times=grid)
    np.testing.assert_array_equal(traj.times, grid)
    assert np.all(np.isfinite(traj.states))


def _use_engine(monkeypatch, engine):
    """Run rollouts on the compiled loop ("c", skipped where it cannot be
    loaded) or on the Python engine ("python"); the events of each call of
    the loop's ``run`` from now on (see ``spy_runs``)."""
    if engine == "python":
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        return []
    runs = spy_runs(monkeypatch)
    if runs is None:
        pytest.skip("the compiled rollout loop cannot be loaded")
    return runs


def _plan_cases():
    """(model of a scale k, start, plan) of a robot under a pulse and of a
    shaft whose torques switch between 0.0 and -0.0, 0.2 s each."""
    p = nominal_params()
    pulses = DisturbanceSchedule((ForcePulse(0.055, 0.12, fx=30.0),))
    robot = ControlSequence.constant([6.0, -10.0, 6.0], 0.2, 100.0)
    shaft = ControlSequence(t0=0.0, dt=0.01, samples=[[6.0], [0.0], [-0.0], [-3.0]] * 5)
    grid = np.arange(41) / 200.0
    return [
        (lambda k: robot_model(p.replace(mc=p.mc * k, xB=0.01 * k)), RobotState.rest().as_vector(),
         lambda: EventPlan((0.0, 0.2), robot, grid, pulses)),
        (lambda k: shaft_model(0.0104 * k, 0.18 * k), np.zeros(2),
         lambda: EventPlan((0.0, 0.2), shaft, grid)),
    ]


def _assert_same_rollout(a, b):
    for name in ("times", "states", "derivs", "controls"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.stats == b.stats


@pytest.mark.parametrize("engine", ["c", "python"])
def test_the_tenth_rollout_of_a_plan_equals_a_fresh_rollout(monkeypatch, engine):
    """Rollouts of other parameters on one plan leave it as it was: the tenth
    rollout equals a rollout on a plan of its own, bit for bit."""
    runs = _use_engine(monkeypatch, engine)
    for model, x0, make_plan in _plan_cases():
        plan = make_plan()
        names = ("events", "out", "start", "brk", "held", "forces", "times")
        tables = {name: getattr(plan, name).copy() for name in names}
        for k in (1.5, 0.7, 2.0, 1.1, 0.9, 1.3, 0.8, 1.7, 0.6):
            integrate(model(k), x0, plan)
        _assert_same_rollout(integrate(model(1.0), x0, plan), integrate(model(1.0), x0, make_plan()))
        for name, table in tables.items():
            assert not getattr(plan, name).flags.writeable
            assert getattr(plan, name).tobytes() == table.tobytes(), name
    # one call of the loop per rollout on the C
    assert len(runs) == (2 * 11 if engine == "c" else 0)
    # the plans of the fits' records equal those of their grids as sorted sets of floats
    for row in FITS.values():
        exp = experiment(row, nominal_params())
        grid = np.asarray(sorted(set(exp.record.times.tolist())))
        spelled = EventPlan((exp.controls.t0, exp.controls.end_time), exp.controls, grid)
        for name in names:
            assert getattr(exp.plan, name).tobytes() == getattr(spelled, name).tobytes(), name


@pytest.mark.parametrize("engine", ["c", "python"])
def test_threads_rolling_out_on_one_plan_get_the_serial_rollouts(monkeypatch, engine):
    """More threads than cores, switching often, each rollout on the one
    shared plan: every result equals the serial rollout of its parameters."""
    _use_engine(monkeypatch, engine)
    scales = (0.6, 0.8, 1.0, 1.3, 1.7, 2.0)
    for model, x0, make_plan in _plan_cases():
        plan = make_plan()
        serial = [integrate(model(k), x0, plan) for k in scales]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(integrate, model(k), x0, plan) for k in scales * 4]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, traj in enumerate(results):
            _assert_same_rollout(traj, serial[i % len(scales)])


@pytest.mark.parametrize("engine", ["c", "python"])
def test_the_states_of_an_augmented_rollout_are_the_plain_rollouts(monkeypatch, engine):
    """A model with sensitivity lanes steps its leading states with the
    plain model's steps: they, their derivatives and the counts equal the
    plain rollout's bit for bit, whatever the seeds."""
    _use_engine(monkeypatch, engine)
    rng = np.random.default_rng(7)
    p = nominal_params()
    for (model, x0, make_plan), rows in zip(_plan_cases(), (len(_task_space.SEEDED), 2)):
        lanes = 4 if len(x0) == 12 else 2
        seeds = rng.uniform(-2.0, 2.0, rows * lanes).tolist()
        plain = model(1.0)
        augmented = (robot_model(p.replace(mc=p.mc, xB=0.01), seeds) if len(x0) == 12
                     else shaft_model(0.0104, 0.18, seeds))
        a = integrate(plain, x0, make_plan())
        b = integrate(augmented, np.zeros(len(x0) * (1 + lanes)), make_plan())
        n = len(x0)
        assert b.states.shape[1] == n * (1 + lanes)
        for name in ("states", "derivs"):
            assert getattr(b, name)[:, :n].tobytes() == getattr(a, name).tobytes(), name
        assert b.controls.tobytes() == a.controls.tobytes()
        assert b.stats == a.stats


def test_shaft_matches_closed_form():
    inertia, damping, tau = 1.04e-2, 0.18, 6.0
    controls = ControlSequence.constant([tau], duration=1.5, rate=100.0)
    traj = simulate_shaft(inertia, damping, controls, options=IntegratorOptions(rtol=1e-10))
    t = traj.times
    rate = tau / damping * (1.0 - np.exp(-damping * t / inertia))
    angle = tau / damping * (t + inertia / damping * (np.exp(-damping * t / inertia) - 1.0))
    np.testing.assert_allclose(traj.states[:, 1], rate, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(traj.states[:, 0], angle, rtol=1e-8, atol=1e-12)


def test_shaft_without_damping_matches_closed_form():
    inertia, tau = 2.22, -3.0
    controls = ControlSequence.constant([tau], duration=1.0, rate=50.0)
    traj = simulate_shaft(inertia, 0.0, controls)
    np.testing.assert_allclose(traj.states[:, 1], tau * traj.times / inertia, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        traj.states[:, 0], 0.5 * tau * traj.times**2 / inertia, rtol=1e-9, atol=1e-12
    )


def test_rollout_preserves_constraints():
    p = nominal_params()
    traj = simulate_robot(p, RobotState.rest(), chassis_controls(duration=1.0))
    q, dq = traj.states[:, :6], traj.states[:, 6:]
    q0 = q[0]
    for k in range(len(traj.times)):
        assert constraint_violation(p, q[k], dq[k]) < 1e-9
        assert abs(holonomic_residual(p, q[k], q0)) < 1e-9


def test_pivot_force_changes_the_motion():
    p = nominal_params()
    controls = ControlSequence.constant([0.0, 0.0, 0.0], duration=0.5, rate=100.0)
    push = DisturbanceSchedule((ForcePulse(0.0, 0.25, fx=40.0),))
    pushed = simulate_robot(p, RobotState.rest(), controls, disturbances=push)
    assert pushed.states[-1][0] > 0.01  # picked up forward speed, then coasts
    assert constraint_violation(p, pushed.states[-1, :6], pushed.states[-1, 6:]) < 1e-9


def _recomputing_rollout(p, controls, schedule=DisturbanceSchedule()):
    """integrate's loop without the first-stage reuse: f(ta, x) at every hold.

    Each hold reads its torques from its row and the pivot force at its start.
    """
    opts, stats = IntegratorOptions(), IntegratorStats()
    events = controls.boundaries.tolist() + [controls.end_time]
    x, h = RobotState.rest().as_vector(), None
    states, derivs = [], []

    def rhs(k, t):
        u = controls.samples[k].tolist()
        force = schedule.force_at(t).tolist()
        return lambda t, y: state_derivative(p, y, u, pivot_force=force)

    for k, (ta, tb) in enumerate(zip(events, events[1:])):
        f = rhs(k, ta)
        k1 = f(ta, x.tolist())
        stats.fevals += 1
        states.append(x)
        derivs.append(k1)
        x, _, h = advance_segment(f, ta, tb, x, opts, stats, h_start=h, k1=k1)
    states.append(x)
    derivs.append(rhs(-1, events[-1])(events[-1], x.tolist()))
    stats.fevals += 1
    return np.array(states), np.array(derivs), stats


def _attempts(traj):
    return traj.stats["accepted"] + traj.stats["rejected"]


def test_unchanged_holds_reuse_the_end_derivative_bit_for_bit():
    # Under a constant torque only the first segment evaluates its first
    # stage: 6 fevals per attempt, plus the first stage and the step-size
    # guess; the derivative recorded at the end is the last segment's.
    p = nominal_params()
    controls = chassis_controls(duration=0.3)
    traj = simulate_robot(p, RobotState.rest(), controls)
    states, derivs, ref = _recomputing_rollout(p, controls)
    assert (traj.states == states).all()
    assert (traj.derivs == derivs).all()
    assert traj.stats["fevals"] == 6 * _attempts(traj) + 2
    assert traj.stats["fevals"] == ref.fevals - len(controls.samples)


def test_control_switch_and_force_breakpoint_take_a_fresh_first_stage():
    p = nominal_params()
    samples = np.tile([6.0, -10.0, 6.0], (30, 1))
    samples[15:] = [-4.0, 8.0, 2.0]
    switched = ControlSequence(t0=0.0, dt=0.01, samples=samples)
    traj = simulate_robot(p, RobotState.rest(), switched)
    states, derivs, _ = _recomputing_rollout(p, switched)
    assert (traj.states == states).all() and (traj.derivs == derivs).all()
    assert traj.stats["fevals"] == 6 * _attempts(traj) + 3

    # a pulse switched on and off on the hold grid, torques unchanged there
    controls = chassis_controls(duration=0.3)
    on, off = controls.boundaries[10], controls.boundaries[20]
    push = DisturbanceSchedule((ForcePulse(on, off, fx=30.0, fy=-20.0),))
    traj = simulate_robot(p, RobotState.rest(), controls, disturbances=push)
    states, derivs, _ = _recomputing_rollout(p, controls, push)
    assert (traj.states == states).all() and (traj.derivs == derivs).all()
    assert traj.stats["fevals"] == 6 * _attempts(traj) + 4


def test_holds_compare_bit_for_bit():
    # at rest, a -0.0 torque gives a -0.0 acceleration: equal to 0.0 as a
    # number, but a different hold, so its first stage is evaluated afresh
    controls = ControlSequence(t0=0.0, dt=0.01, samples=[[0.0]] * 5 + [[-0.0]] * 5)
    traj = simulate_shaft(1.0, 0.5, controls)
    assert math.copysign(1.0, traj.derivs[4, 1]) == 1.0
    assert math.copysign(1.0, traj.derivs[5, 1]) == -1.0


def test_csv_round_trip(tmp_path):
    p = nominal_params()
    traj = simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.3))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    back = trajectory_from_csv(path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.states, traj.states)
    np.testing.assert_array_equal(back.controls, traj.controls)
    with pytest.raises(ValueError, match="derivative"):
        back.accelerations


def test_csv_bytes(tmp_path):
    # trajectory files keep the csv module's CRLF line ends, other tables
    # end lines as asked; every double is spelled by repr
    p = nominal_params()
    traj = simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.05))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    ref = io.StringIO()
    writer = csv.writer(ref)
    writer.writerow(TRAJECTORY_COLUMNS)
    for k in range(len(traj.times)):
        writer.writerow([repr(float(v)) for v in (traj.times[k], *traj.states[k], *traj.controls[k])])
    assert path.read_bytes() == ref.getvalue().encode()

    write_csv(path, ["a", "b"], [np.array([0.1, -0.0]), np.array([[1e300], [np.inf]])])
    assert path.read_bytes() == b"a,b\n0.1,1e+300\n-0.0,inf\n"


def test_csv_rejects_foreign_schema(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("time,speed\n0.0,1.0\n")
    with pytest.raises(ValueError, match="other.csv"):
        trajectory_from_csv(path)


def test_csv_rejects_empty_file(tmp_path):
    p = nominal_params()
    traj = simulate_robot(p, RobotState.rest(), chassis_controls(duration=0.2))
    path = tmp_path / "empty.csv"
    trajectory_to_csv(traj, path)
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(ValueError, match="no data"):
        trajectory_from_csv(path)
