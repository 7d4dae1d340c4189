import math

import numpy as np
import pytest

from otbot.references import (
    CorridorReference,
    Figure8Reference,
    HarmonicReference,
    PlanReference,
)
from otbot.simulate import SimTrajectory


def fd_check(ref, times, h=1e-6, tol=1e-5):
    """Velocity and acceleration must be the derivatives of the position."""
    for t in times:
        p_m, v_m, _ = ref.sample(t - h)
        p_p, v_p, _ = ref.sample(t + h)
        _, v, a = ref.sample(t)
        np.testing.assert_allclose((p_p - p_m) / (2 * h), v, atol=tol)
        np.testing.assert_allclose((v_p - v_m) / (2 * h), a, atol=tol)


class TestCorridor:
    def test_timing(self):
        ref = CorridorReference()
        assert ref.leg_time == pytest.approx(5.0)
        # the corners, where the commanded velocity changes direction
        np.testing.assert_allclose(ref.leg_time * np.arange(1, 5), [5.0, 10.0, 15.0, 20.0])
        assert ref.goal_time == pytest.approx(25.0)
        assert ref.horizon == pytest.approx(30.0)

    def test_leg_waypoints(self):
        ref = CorridorReference()
        p0, v0, a0 = ref.sample(0.0)
        np.testing.assert_allclose(p0, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(v0, [0.6, 0.0, 0.0])
        np.testing.assert_allclose(a0, 0.0)
        p, v, _ = ref.sample(7.5)  # half way up the second leg
        np.testing.assert_allclose(p, [3.0, 1.5, 0.0])
        np.testing.assert_allclose(v, [0.0, 0.6, 0.0])
        p, v, _ = ref.sample(17.5)  # half way down the fourth leg
        np.testing.assert_allclose(p, [6.0, 1.5, 0.0])
        np.testing.assert_allclose(v, [0.0, -0.6, 0.0])

    def test_goal_held_after_arrival(self):
        ref = CorridorReference()
        for t in (25.0, 26.7, 30.0):
            p, v, a = ref.sample(t)
            np.testing.assert_allclose(p, [9.0, 0.0, 0.0])
            np.testing.assert_allclose(v, 0.0)
            np.testing.assert_allclose(a, 0.0)

    def test_position_continuous_velocity_jumps_at_corners(self):
        ref = CorridorReference()
        eps = 1e-9
        for t in ref.leg_time * np.arange(1, 5):  # the four corners
            p_m, v_m, _ = ref.sample(t - eps)
            p_p, v_p, _ = ref.sample(t + eps)
            np.testing.assert_allclose(p_m, p_p, atol=1e-8)
            assert np.linalg.norm(v_p - v_m) == pytest.approx(0.6 * math.sqrt(2.0), rel=1e-6)

    def test_platform_angle_never_commanded(self):
        ref = CorridorReference()
        for t in np.linspace(0.0, 30.0, 61):
            p, v, a = ref.sample(t)
            assert p[2] == v[2] == a[2] == 0.0


class TestFigure8:
    def test_constant_speed(self):
        ref = Figure8Reference()
        assert ref.path_length == pytest.approx(8.0 + 6.0 * math.pi)
        assert ref.speed == pytest.approx((8.0 + 6.0 * math.pi) / 18.0)
        for t in np.linspace(0.1, 17.9, 37):
            _, v, _ = ref.sample(float(t))
            assert np.linalg.norm(v) == pytest.approx(ref.speed, rel=1e-9)

    def test_lap_closes_with_matching_velocity(self):
        ref = Figure8Reference()
        p0, v0, _ = ref.sample(0.0)
        p1, v1, _ = ref.sample(18.0 - 1e-9)
        np.testing.assert_allclose(p0, [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(p1, p0, atol=1e-6)
        np.testing.assert_allclose(v1, v0, atol=1e-6)

    def test_velocity_continuous_at_segment_joins(self):
        ref = Figure8Reference()
        cum = np.cumsum([2.0, 3.0 * math.pi, 4.0, 3.0 * math.pi])
        eps = 1e-9
        for s in cum:
            t = s / ref.speed
            _, v_m, _ = ref.sample(t - eps)
            _, v_p, _ = ref.sample(t + eps)
            np.testing.assert_allclose(v_m, v_p, atol=1e-6)

    def test_arc_acceleration_magnitude(self):
        ref = Figure8Reference()
        t_arc = (2.0 + 1.5 * math.pi) / ref.speed  # middle of the first arc
        _, _, a = ref.sample(t_arc)
        assert np.linalg.norm(a) == pytest.approx(ref.speed**2 / 2.0, rel=1e-9)
        t_line = 1.0 / ref.speed  # middle of the lead-in straight
        _, _, a = ref.sample(t_line)
        np.testing.assert_allclose(a, 0.0)

    def test_derivatives_consistent(self):
        ref = Figure8Reference()
        # segment interiors only; the acceleration steps at the joins
        fd_check(ref, [0.5, 3.0, 8.5, 12.0, 17.7])

    def test_straights_lie_on_the_diagonals(self):
        ref = Figure8Reference()
        p, _, _ = ref.sample(0.5 / ref.speed)
        assert p[0] == pytest.approx(p[1])
        p, _, _ = ref.sample((2.0 + 3.0 * math.pi + 2.0) / ref.speed)  # origin crossing
        np.testing.assert_allclose(p[:2], 0.0, atol=1e-9)


class TestHarmonic:
    def test_starts_from_zero_position_and_acceleration(self):
        ref = HarmonicReference()
        p, v, a = ref.sample(0.0)
        np.testing.assert_allclose(p, 0.0)
        np.testing.assert_allclose(a, 0.0)
        w = 2.0 * math.pi * np.asarray(ref.frequency)
        np.testing.assert_allclose(v, np.asarray(ref.amplitude) * w)

    def test_derivatives_consistent(self):
        fd_check(HarmonicReference(), [0.3, 1.7, 4.2, 9.9], tol=1e-4)


def _plan_from(ref, horizon=2.0, rate=100.0):
    times = np.arange(int(horizon * rate) + 1) / rate
    p = np.array([ref.sample(float(t))[0] for t in times])
    states = np.zeros((len(times), 12))
    states[:, 0:3] = p
    return SimTrajectory(times=times, states=states, controls=np.zeros((len(times), 3)))


class TestPlanReference:
    def test_positions_reproduced_at_grid_points(self):
        analytic = HarmonicReference()
        plan = _plan_from(analytic)
        ref = PlanReference(plan)
        assert ref.horizon == pytest.approx(2.0)
        for k in (0, 57, 200):
            p, _, _ = ref.sample(float(plan.times[k]))
            np.testing.assert_allclose(p, plan.states[k, 0:3], rtol=1e-12, atol=1e-15)

    def test_derivatives_approach_the_analytic_ones(self):
        analytic = HarmonicReference()
        ref = PlanReference(_plan_from(analytic))
        for t in (0.2, 0.815, 1.5):
            p, v, a = ref.sample(t)
            p_true, v_true, a_true = analytic.sample(t)
            np.testing.assert_allclose(p, p_true, atol=1e-4)
            np.testing.assert_allclose(v, v_true, atol=1e-3)
            np.testing.assert_allclose(a, a_true, atol=0.05)

    def test_signals_mutually_consistent_between_grid_points(self):
        ref = PlanReference(_plan_from(HarmonicReference()))
        fd_check(ref, [0.2031, 0.5555], tol=1e-4)

    def test_rejects_bad_grids(self):
        good = _plan_from(HarmonicReference())
        with pytest.raises(ValueError, match="three"):
            PlanReference(SimTrajectory(times=good.times[:2], states=good.states[:2],
                                        controls=good.controls[:2]))
        times = good.times.copy()
        times[3] += 2e-3
        with pytest.raises(ValueError, match="uniform"):
            PlanReference(SimTrajectory(times=times, states=good.states, controls=good.controls))


def _around(times):
    """Each time and the doubles one ulp below and above it."""
    times = np.asarray(times, dtype=float)
    return np.concatenate([times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf)])


def _figure8_joins(ref):
    # the segment joins and the lap end, where the modulo wraps
    return np.append(ref._cum, ref.path_length) / ref.speed


def _sampling_cases():
    corridor = CorridorReference()
    figure8 = Figure8Reference()
    plan = PlanReference(_plan_from(HarmonicReference()))
    return [
        (corridor, corridor.leg_time * np.arange(1, 6)),  # the corners and the goal
        (figure8, _figure8_joins(figure8)),
        (HarmonicReference(), np.array([0.0, 2.5, 5.0])),
        (plan, np.arange(201) / 100.0),  # the plan's grid points
    ]


@pytest.mark.parametrize("ref, edges", _sampling_cases(), ids=["corridor", "figure8", "harmonic", "plan"])
def test_an_array_of_times_samples_each_time_bit_for_bit(ref, edges):
    # the 1 kHz control grid, then the edges and their neighbours
    grid = 1e-3 * np.arange(int(round(ref.horizon * 1000.0)) + 1)
    times = np.concatenate([grid, _around(edges)])
    table = ref.sample(times)
    assert [column.shape for column in table] == [(len(times), 3)] * 3
    for k, t in enumerate(times.tolist()):
        for column, value in zip(table, ref.sample(t)):
            assert value.shape == (3,)
            assert column[k].tobytes() == value.tobytes(), (k, t)
