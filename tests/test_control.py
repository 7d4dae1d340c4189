"""Tests for gain tuning, the computed-torque law and the tracking loop."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import otbot._task_space
from conftest import random_admissible
from otbot import _ckernel
from otbot.cli import main
from otbot.control import (
    DisturbanceSchedule,
    FeedbackLaw,
    ForcePulse,
    Gains,
    TorqueBounds,
    closed_loop_simulate,
    computed_torque,
    feedforward_rollout,
    open_loop_replay,
    reference_start_state,
    torque_feasibility,
    track_planned_trajectory,
    transient_metrics,
    tune_gains,
)
from otbot.dynamics import (
    RobotState,
    admissible_state,
    constraint_violation,
    forward_dynamics,
    state_derivative,
    task_space_model,
)
from otbot.interval import Interval
from otbot.references import CorridorReference, Figure8Reference, HarmonicReference
from otbot.scenarios import build_plan
from otbot.simulate import ControlSequence, EventPlan, simulate_robot


class TestGainTuning:
    def test_default_gains_are_exact_rationals(self):
        g = tune_gains(3.0)
        assert_allclose(g.kp, 160.0 / 9.0, rtol=1e-15)
        assert_allclose(g.kv, 44.0 / 3.0, rtol=1e-15)
        assert f"{g.kp[0]:.3f}" == "17.778"
        assert f"{g.kv[0]:.3f}" == "14.667"

    def test_default_poles(self):
        g = tune_gains(3.0)
        assert_allclose(g.poles[:, 0], -4.0 / 3.0, rtol=1e-15)
        assert_allclose(g.poles[:, 1], -40.0 / 3.0, rtol=1e-15)

    def test_poles_are_roots_of_the_error_polynomial(self):
        # s^2 + kv s + kp must factor exactly over the placed pair, and the
        # companion matrix of each axis must have the pair as eigenvalues.
        g = tune_gains([2.0, 3.0, 5.0])
        for i in range(3):
            s1, s2 = g.poles[i]
            assert_allclose(g.kp[i], s1 * s2, rtol=1e-13)
            assert_allclose(g.kv[i], -(s1 + s2), rtol=1e-13)
            companion = np.array([[0.0, 1.0], [-g.kp[i], -g.kv[i]]])
            eig = np.sort(np.linalg.eigvals(companion).real)
            assert_allclose(eig, np.sort(g.poles[i]), rtol=1e-10)

    def test_per_axis_stabilisation_times(self):
        g = tune_gains([1.0, 2.0, 4.0])
        assert_allclose(g.poles[:, 0], [-4.0, -2.0, -1.0])
        assert_allclose(g.kp, 160.0 / np.array([1.0, 2.0, 4.0]) ** 2)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError, match="positive"):
            tune_gains(0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="per task coordinate"):
            Gains(kp=np.ones(2), kv=np.ones(2), poles=np.zeros((3, 2)))

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError, match="gains must be positive"):
            Gains(kp=[1.0, -1.0, 1.0], kv=np.ones(3), poles=np.zeros((3, 2)))


class TestComputedTorque:
    def _sample(self, rng):
        return (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-3, 3, 3))

    def test_command_splits_into_trajectory_and_correction(self, params):
        rng = np.random.default_rng(3)
        g = tune_gains(3.0)
        for _ in range(5):
            state = random_admissible(params, rng)
            cmd = computed_torque(params, state, self._sample(rng), g)
            assert_array_equal(cmd.u, cmd.u_traj + cmd.u_corr)

    def test_zero_error_means_zero_correction(self, params):
        rng = np.random.default_rng(4)
        state = random_admissible(params, rng)
        sample = (state.q[:3].copy(), state.dq[:3].copy(), rng.uniform(-3, 3, 3))
        cmd = computed_torque(params, state, sample, tune_gains(3.0))
        assert_array_equal(cmd.u_corr, np.zeros(3))

    def test_no_gains_means_pure_feedforward(self, params):
        rng = np.random.default_rng(5)
        state = random_admissible(params, rng)
        cmd = computed_torque(params, state, self._sample(rng), None)
        assert_array_equal(cmd.u_corr, np.zeros(3))
        assert_array_equal(cmd.u, cmd.u_traj)

    @pytest.mark.parametrize("fixture", ["params", "params_nf"])
    def test_law_imposes_the_linear_error_dynamics(self, fixture, request):
        # Feeding the command back through the full dynamics must leave
        # exactly the decoupled second-order error law in the task block,
        # friction included. This is the defining property of the controller.
        p = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        g = tune_gains(3.0)
        for _ in range(8):
            state = random_admissible(p, rng)
            p_d, v_d, a_d = self._sample(rng)
            cmd = computed_torque(p, state, (p_d, v_d, a_d), g)
            ddq = forward_dynamics(p, state.q, state.dq, cmd.u)
            e_p = state.q[:3] - p_d
            e_v = state.dq[:3] - v_d
            want = a_d - g.kp * e_p - g.kv * e_v
            assert_allclose(ddq[:3], want, rtol=1e-8, atol=1e-8)


class TestDisturbances:
    def test_pulse_rejects_bad_window(self):
        with pytest.raises(ValueError, match="positive duration"):
            ForcePulse(t_on=1.0, t_off=1.0, fx=10.0)

    def test_window_is_half_open(self):
        sched = DisturbanceSchedule(pulses=(ForcePulse(1.0, 2.0, fx=10.0, fy=-5.0),))
        assert_array_equal(sched.force_at(0.5), [0.0, 0.0])
        assert_array_equal(sched.force_at(1.0), [10.0, -5.0])
        assert_array_equal(sched.force_at(2.0 - 1e-12), [10.0, -5.0])
        assert_array_equal(sched.force_at(2.0), [0.0, 0.0])

    def test_overlapping_pulses_add(self):
        sched = DisturbanceSchedule(
            pulses=(ForcePulse(0.0, 2.0, fx=10.0), ForcePulse(1.0, 3.0, fy=4.0))
        )
        assert_array_equal(sched.force_at(1.5), [10.0, 4.0])

    def test_edges_are_sorted_and_unique(self):
        sched = DisturbanceSchedule(
            pulses=(ForcePulse(2.0, 3.0, fx=1.0), ForcePulse(1.0, 2.0, fy=1.0))
        )
        assert list(sched.edges()) == [1.0, 2.0, 3.0]


class TestStartState:
    def test_matches_reference_and_rolls_without_slip(self, params):
        ref = HarmonicReference()
        state = reference_start_state(params, ref)
        p0, v0, _ = ref.sample(0.0)
        assert_allclose(state.q[:3], p0, atol=1e-15)
        assert_allclose(state.dq[:3], v0, atol=1e-15)
        assert constraint_violation(params, state.q, state.dq) < 1e-12

    def test_chassis_faces_the_initial_velocity(self, params):
        ref = HarmonicReference()
        state = reference_start_state(params, ref)
        _, v0, _ = ref.sample(0.0)
        theta = state.q[2] - state.q[5]
        assert_allclose(theta, np.arctan2(v0[1], v0[0]), atol=1e-14)


class TestTransientMetrics:
    def test_peak_and_recovery_of_a_decaying_pulse(self):
        times = np.linspace(0.0, 10.0, 2001)
        signal = np.where(times < 1.0, 5.0, np.exp(-2.0 * (times - 1.0)))
        m = transient_metrics(times, signal, onset=1.0)
        # the pre-onset plateau is outside the window and must not be the peak
        assert m.peak == 1.0
        assert m.t_peak == 1.0
        # exp(-2 d) <= 0.02 first holds at d = 1.960 on this 5 ms grid
        assert m.recovery == pytest.approx(1.96, abs=1e-9)

    def test_sustained_mode_ignores_transient_dips(self):
        times = np.arange(8.0)
        signal = [1.0, 0.5, 0.01, 0.6, 0.015, 0.005, 0.001, 0.0]
        plain = transient_metrics(times, signal, onset=0.0)
        held = transient_metrics(times, signal, onset=0.0, sustained=True)
        assert plain.recovery == 2.0
        assert held.recovery == 4.0

    def test_recovery_is_none_when_the_window_ends_first(self):
        times = np.arange(8.0)
        signal = [1.0, 0.5, 0.01, 0.6, 0.015, 0.005, 0.001, 0.0]
        held = transient_metrics(times, signal, onset=0.0, window_end=3.0, sustained=True)
        assert held.recovery is None
        never = transient_metrics(np.arange(4.0), [1.0, 0.5, 0.4, 0.3], onset=0.0)
        assert never.recovery is None

    def test_recovery_is_counted_from_the_onset(self):
        times = np.arange(6.0)
        signal = [9.0, 1.0, 0.5, 0.01, 0.01, 0.01]
        m = transient_metrics(times, signal, onset=1.0)
        assert m.peak == 1.0
        assert m.recovery == 2.0


@pytest.fixture(scope="module")
def corridor_report(params_nf):
    return torque_feasibility(
        params_nf, CorridorReference(), tune_gains(3.0), rate=50.0, t_end=1.5
    )


@pytest.fixture(scope="module")
def corridor_1k(params_nf):
    rest = RobotState(q=np.zeros(6), dq=np.zeros(6))
    return closed_loop_simulate(
        params_nf, rest, CorridorReference(), tune_gains(3.0), control_rate=1000.0, t_end=1.5
    )


class TestTorqueFeasibility:
    def test_default_actuator_limit_is_too_small_here(self, corridor_report):
        assert not corridor_report.ok
        assert corridor_report.worst_margin == pytest.approx(-2.5720, rel=1e-3)

    def test_wider_limit_clears_with_consistent_margin(self, params_nf, corridor_report):
        rep = torque_feasibility(
            params_nf,
            CorridorReference(),
            tune_gains(3.0),
            bounds=TorqueBounds.symmetric(torque=120.0),
            rate=50.0,
            t_end=1.5,
        )
        assert rep.ok
        # both margins are distances from the same torque hull
        assert rep.worst_margin - corridor_report.worst_margin == pytest.approx(70.0, abs=1e-9)

    def test_hull_encloses_sampled_closed_loop_torques(self, corridor_report):
        # Brute-force draws from the error boxes, pushed through the exact
        # torque map, must land inside the reported interval at every grid
        # time. The hull is loose on faces where the velocity box enters the
        # map twice with opposing signs, but some face has to come close to
        # being attained.
        rep = corridor_report
        g = tune_gains(3.0)
        rng = np.random.default_rng(0)
        e_p = rng.uniform(-0.05, 0.05, size=(2000, 3))
        e_v = rng.uniform(-0.25, 0.25, size=(2000, 3))
        fb = -g.kp * e_p - g.kv * e_v
        outside = -np.inf
        gaps = []
        for k in range(len(rep.times)):
            u = fb @ rep.mbar[k].T + (e_v + rep.v_ref[k]) @ rep.cbar[k].T + rep.mbar[k] @ rep.a_ref[k]
            outside = max(outside, (rep.lo[k] - u).max(), (u - rep.hi[k]).max())
            gaps.append(np.concatenate([u.min(axis=0) - rep.lo[k], rep.hi[k] - u.max(axis=0)]))
        assert outside < 0.0
        assert np.min(gaps) < 1.0

    @pytest.mark.parametrize("engine", ["c", "python"])
    def test_the_matrices_are_the_task_space_model_at_each_rollout_state(self, params, engine, request):
        # the law's own Mbar and Cbar, from the C or from computed_torque, read back
        if engine == "python":
            request.getfixturevalue("python_kernel")
        rep = torque_feasibility(params, Figure8Reference(), tune_gains(3.0), t_end=2.0)
        roll = feedforward_rollout(params, Figure8Reference(), t_end=2.0)
        assert rep.mbar.shape == rep.cbar.shape == (len(rep.times), 3, 3) == (201, 3, 3)
        for k, x in enumerate(roll.trajectory.states):
            mbar, cbar = task_space_model(params, x[:6], x[6:])
            assert_array_equal(rep.mbar[k], mbar)
            assert_array_equal(rep.cbar[k], cbar)

    def test_a_compiled_figure8_run_evaluates_no_task_space_model_in_python(self, tmp_path, monkeypatch):
        if _ckernel.load() is None:
            pytest.skip("the compiled rollout loop cannot be loaded")
        calls = []
        evaluate = otbot._task_space.task_space_model
        monkeypatch.setattr(otbot._task_space, "task_space_model",
                            lambda *args: calls.append(args) or evaluate(*args))
        assert main(["control", "--scenario", "figure8", "--out", str(tmp_path / "out")]) == 0
        assert calls == []

    def test_only_the_feasibility_law_keeps_its_matrices(self, params, monkeypatch):
        # the 1 kHz tracking law hands the C no rows; the 100 Hz feasibility law 1801 of each
        kernel = _ckernel.load()
        if kernel is None:
            pytest.skip("the compiled rollout loop cannot be loaded")
        run, *blas = kernel
        rows = []

        def spy(c, i, j):
            rows.append((c.mbar, c.cbar))
            return run(c, i, j)

        monkeypatch.setattr(_ckernel, "load", lambda: (spy, *blas))
        ref, gains = Figure8Reference(), tune_gains(3.0)
        state0 = reference_start_state(params, ref)
        tracking = closed_loop_simulate(params, state0, ref, gains, control_rate=1000.0, t_end=18.0)
        assert tracking.mbar is None and tracking.cbar is None
        rep = torque_feasibility(params, ref, gains, t_end=18.0)
        assert rows[0] == (None, None)
        assert rows[1] == (rep.mbar.ctypes.data, rep.cbar.ctypes.data)
        assert rep.mbar.shape == rep.cbar.shape == (1801, 3, 3)

    def test_error_boxes_must_contain_zero(self):
        with pytest.raises(ValueError, match="must contain zero"):
            TorqueBounds(
                limits=Interval.symmetric(np.full(3, 50.0)),
                position_box=Interval(np.full(3, 0.01), np.full(3, 0.05)),
                velocity_box=Interval.symmetric(np.full(3, 0.25)),
            )


class TestTrackingLoop:
    def test_t_end_must_fit_the_control_grid(self, params_nf):
        rest = RobotState(q=np.zeros(6), dq=np.zeros(6))
        with pytest.raises(ValueError, match="whole number of control periods"):
            closed_loop_simulate(
                params_nf,
                rest,
                CorridorReference(),
                tune_gains(3.0),
                control_rate=1000.0,
                t_end=1.50049,
            )

    def test_a_feedback_law_needs_a_row_per_instant_and_an_instant_at_the_start(self):
        grid = 0.01 * np.arange(11)
        with pytest.raises(ValueError, match="one reference row of 9 per instant"):
            FeedbackLaw(grid, np.zeros((10, 9)), tune_gains(3.0))
        # an instant before the first one would read past the reference table
        law = FeedbackLaw(grid[1:], np.zeros((10, 9)), tune_gains(3.0))
        with pytest.raises(ValueError, match="control instant at the start"):
            EventPlan((0.0, 0.1), law)

    def test_recorded_torques_keep_the_split(self, corridor_1k):
        res = corridor_1k
        assert_array_equal(res.trajectory.controls, res.u_traj + res.u_corr)

    def test_initial_velocity_step_transient(self, corridor_1k):
        # the reference starts at 0.6 m/s while the robot is at rest, so the
        # position error peaks a third of the way into the first leg
        pos = np.linalg.norm(corridor_1k.e_p[:, :2], axis=1)
        assert pos.max() == pytest.approx(0.034629, rel=1e-3)
        # still inside the decay at 1.5 s, a fifth of the peak and falling
        assert pos[-1] == pytest.approx(0.0067121, rel=1e-3)

    def test_heading_error_stays_identically_zero(self, corridor_1k):
        # the corridor never commands a platform rotation and nothing in the
        # frictionless loop excites one, down to the last bit
        assert np.abs(corridor_1k.e_p[:, 2]).max() == 0.0

    def test_control_rate_barely_moves_the_trajectory(self, params_nf, corridor_1k):
        # Rerunning the same transient with ten times the control rate must
        # reproduce the sampled-data trajectory on the shared 1 ms grid to
        # within one percent of the transient scale in both position and
        # velocity. This bounds the zero-order-hold artefact at 1 kHz.
        rest = RobotState(q=np.zeros(6), dq=np.zeros(6))
        fine = closed_loop_simulate(
            params_nf, rest, CorridorReference(), tune_gains(3.0), control_rate=10000.0, t_end=1.5
        )
        coarse_states = corridor_1k.trajectory.states
        fine_states = fine.trajectory.states[::10]
        assert fine_states.shape == coarse_states.shape
        pos_diff = np.abs(coarse_states[:, :3] - fine_states[:, :3]).max()
        vel_diff = np.abs(coarse_states[:, 6:9] - fine_states[:, 6:9]).max()
        peak = np.linalg.norm(corridor_1k.e_p[:, :2], axis=1).max()
        assert 1e-6 < pos_diff <= 0.01 * peak
        assert vel_diff <= 0.01 * 0.6

    def test_seven_fevals_per_control_period(self, params_nf):
        # Per period: the sample-instant derivative, reused as the step's k1,
        # plus six stages. On top come the derivative at the last sample, the
        # first-step guess and the one extra step the first period takes
        # because the guess (0.1 ms from rest) is shorter than the period.
        rest = RobotState(q=np.zeros(6), dq=np.zeros(6))
        res = closed_loop_simulate(
            params_nf, rest, CorridorReference(), tune_gains(3.0), control_rate=1000.0, t_end=0.2
        )
        stats = res.trajectory.stats
        n = len(res.trajectory.times) - 1
        assert n == 200
        assert (stats["accepted"], stats["rejected"]) == (n + 1, 0)
        assert stats["fevals"] == 7 * n + 1 + 1 + 6 == 1408

    def test_pulse_edge_inside_a_period_opens_one_more_segment(self, params_nf):
        # Each pulse edge strictly inside a period splits it: the second
        # segment needs its own k1 (the force has changed) and one step.
        rest = RobotState(q=np.zeros(6), dq=np.zeros(6))
        pulse = DisturbanceSchedule((ForcePulse(0.0505, 0.1205, fx=20.0, fy=-10.0),))
        res = closed_loop_simulate(
            params_nf, rest, CorridorReference(), tune_gains(3.0),
            control_rate=1000.0, t_end=0.2, disturbances=pulse,
        )
        stats = res.trajectory.stats
        n = len(res.trajectory.times) - 1
        assert (stats["accepted"], stats["rejected"]) == (n + 1 + 2, 0)
        assert stats["fevals"] == 7 * n + 1 + 1 + 6 + 2 * 7 == 1422

    def test_open_loop_replay_of_the_recorded_torques_is_the_same_run(self, params):
        # One engine and one pivot-force convention: replaying the torques a
        # closed-loop run recorded, under the same pulse (switched on inside
        # a control period), reproduces its states bit for bit, and its
        # derivatives are the rhs at the run's states, torques and pulse
        # force. The run records no derivatives (it ran under a law). Only
        # the last derivative differs: the run evaluates the law once more
        # at the end, the replay holds the last recorded torque.
        pulse = DisturbanceSchedule((ForcePulse(0.0505, 0.1, fx=20.0, fy=-10.0),))
        res = closed_loop_simulate(
            params, RobotState.rest(), CorridorReference(), tune_gains(3.0),
            control_rate=1000.0, t_end=0.2, disturbances=pulse,
        )
        run = res.trajectory
        torques = ControlSequence(t0=0.0, dt=1.0 / 1000.0, samples=run.controls[:-1])
        replay = simulate_robot(params, RobotState.rest(), torques, disturbances=pulse)
        assert_array_equal(replay.times, run.times)
        assert (replay.states == run.states).all()
        assert run.derivs is None
        forces = pulse.force_at(run.times).tolist()
        rhs = np.array([state_derivative(params, x, u, f)
                        for x, u, f in zip(run.states.tolist(), run.controls.tolist(), forces)])
        assert (replay.derivs[:-1] == rhs[:-1]).all()
        assert (replay.derivs[-1] != rhs[-1]).any()

    @pytest.mark.parametrize("engine", ["c", "python"])
    def test_a_closed_loop_run_records_no_derivatives(self, params, engine, request):
        # no reader of a run under a law reads its derivatives; neither engine keeps them
        if engine == "python":
            request.getfixturevalue("python_kernel")
        elif _ckernel.load() is None:
            pytest.skip("the compiled rollout loop cannot be loaded")
        run = closed_loop_simulate(params, RobotState.rest(), CorridorReference(), tune_gains(3.0),
                                   control_rate=1000.0, t_end=0.1).trajectory
        assert run.derivs is None and run.states.shape == (101, 12)
        with pytest.raises(ValueError, match="recorded no derivatives"):
            run.accelerations

    def test_feedforward_alone_drifts_but_stays_close(self, params):
        res = feedforward_rollout(params, HarmonicReference(), rate=100.0, t_end=2.0)
        assert_array_equal(res.u_corr, np.zeros_like(res.u_corr))
        drift = np.abs(res.e_p).max()
        assert drift == pytest.approx(0.026257, rel=1e-3)

    def test_tracking_error_contracts_from_anywhere_in_the_ball(self, params_nf):
        # Twelve initial task-space errors, the worst directions of the
        # placed linear error system plus random draws, all have to shrink
        # to two percent of their starting size (plus a hold-induced floor)
        # by the design stabilisation time. The position reading is the
        # meaningful one: a unit position offset legitimately passes through
        # velocity on its way down, so the full error norm at t_stab sits
        # well above the two percent line and is pinned here as such.
        ref = HarmonicReference()
        g = tune_gains(3.0)
        draws = [
            (np.array([1.0, 0.0, 0.0]), np.zeros(3)),
            (np.zeros(3), np.array([1.0, 0.0, 0.0])),
            (np.array([0.0, 0.0, 1.0]), np.zeros(3)),
            (np.array([1.0, 0.0, 0.0]), np.array([0.075, 0.0, 0.0])),
        ]
        rng = np.random.default_rng(0)
        for _ in range(8):
            v = rng.standard_normal(6)
            v *= rng.uniform(0.2, 1.0) / np.linalg.norm(v)
            draws.append((v[:3].copy(), v[3:].copy()))

        base = reference_start_state(params_nf, ref)
        _, v0, _ = ref.sample(0.0)
        clearances = []
        full_norms = []
        for e_p0, e_v0 in draws:
            q = base.q.copy()
            q[:3] += e_p0
            state0 = admissible_state(params_nf, q, dp=v0 + e_v0)
            res = closed_loop_simulate(
                params_nf, state0, ref, g, control_rate=1000.0, t_end=3.0
            )
            size0 = float(np.hypot(np.linalg.norm(e_p0), np.linalg.norm(e_v0)))
            bound = 0.02 * size0 + 1e-3
            pos_end = float(np.linalg.norm(res.e_p[-1]))
            full_end = float(np.hypot(np.linalg.norm(res.e_p[-1]), np.linalg.norm(res.e_v[-1])))
            assert pos_end <= bound
            clearances.append(bound - pos_end)
            full_norms.append(full_end)
        # the bound is tight: the worst direction uses all but ~6e-4 of it
        assert 0.0 < min(clearances) < 2.5e-3
        # and the naive full-norm reading fails exactly there
        assert full_norms[0] > 0.03

    def test_planned_torques_replay_honestly_and_track_tightly(self, params):
        # The plan is built against a chassis five percent heavier than the
        # plant, so replaying its torques open loop drifts visibly while the
        # corrected loop holds the path to about a millimetre.
        plan = build_plan(params, horizon=2.0, rate=50.0, mass_error=0.05)
        replay = open_loop_replay(params, plan)
        drift = np.linalg.norm(replay.states[:, :2] - plan.states[:, :2], axis=1)
        assert drift[-1] == pytest.approx(0.045042, rel=1e-3)

        res = track_planned_trajectory(params, plan, tune_gains(3.0), control_rate=1000.0)
        pos = np.linalg.norm(res.e_p[:, :2], axis=1)
        assert pos.max() == pytest.approx(0.0011492, rel=1e-3)
        assert drift[-1] > 25.0 * pos.max()
