import math

import numpy as np
import pytest

from conftest import random_admissible
from otbot.dynamics import RobotState, state_derivative
from otbot.integrator import (
    IntegrationError,
    IntegratorOptions,
    IntegratorStats,
    _error_norm,
    advance_segment,
    initial_step,
)
from otbot.params import nominal_params
from otbot.simulate import ControlSequence, simulate_robot

# y' = y cos t has the closed-form solution y = exp(sin t).
EXACT_AT_2 = math.exp(math.sin(2.0))


def _rhs(t, y):
    return [v * math.cos(t) for v in y]


def _solve(opts, t1=2.0):
    stats = IntegratorStats()
    y, _, _ = advance_segment(_rhs, 0.0, t1, np.array([1.0]), opts, stats)
    return float(y[0]), stats


def test_adaptive_error_tracks_tolerance():
    errors = []
    for rtol, bound in [(1e-5, 2e-5), (1e-7, 2e-7), (1e-9, 2e-9), (1e-11, 5e-11)]:
        y, _ = _solve(IntegratorOptions(rtol=rtol, atol=1e-14))
        err = abs(y - EXACT_AT_2)
        assert err < bound
        errors.append(err)
    assert errors == sorted(errors, reverse=True)


def test_fixed_step_order():
    # Pin the step with max_step = first_step and tolerances too loose to ever
    # reject; halving the step should then shrink the error by about 2^5.
    errors = []
    for h in (0.2, 0.1, 0.05, 0.025):
        opts = IntegratorOptions(rtol=1e6, atol=1e6, max_step=h, first_step=h)
        y, stats = _solve(opts)
        errors.append(abs(y - EXACT_AT_2))
        assert stats.rejected == 0
        assert stats.max_step == pytest.approx(h)
    for coarse, fine in zip(errors, errors[1:]):
        assert 16.0 < coarse / fine < 48.0


def test_segment_split_matches_single_segment():
    opts = IntegratorOptions(rtol=1e-9, atol=1e-14)
    single, _ = _solve(opts)
    stats = IntegratorStats()
    y_mid, k_end, h = advance_segment(_rhs, 0.0, 0.7, np.array([1.0]), opts, stats)
    y_split, _, _ = advance_segment(_rhs, 0.7, 2.0, y_mid, opts, stats, h_start=h, k1=k_end)
    assert abs(single - EXACT_AT_2) < 5e-9
    assert abs(float(y_split[0]) - EXACT_AT_2) < 5e-9


def test_nan_region_raises_with_location():
    def rhs(t, y):
        return y if t < 1.0 else [math.nan] * len(y)

    stats = IntegratorStats()
    with pytest.raises(IntegrationError) as excinfo:
        advance_segment(rhs, 0.0, 2.0, np.array([1.0]), IntegratorOptions(), stats)
    err = excinfo.value
    assert err.t == pytest.approx(1.0, abs=0.05)
    assert err.rejected > 5
    assert err.h < 1e-13


def test_step_landing_one_ulp_short_of_boundary_finishes():
    # An accepted step may stop one ulp before t1; the leftover sliver must be
    # absorbed, not integrated (it is narrower than the underflow threshold).
    stats = IntegratorStats()
    h = np.nextafter(1.0, 0.0)
    opts = IntegratorOptions(max_step=h)
    y, _, _ = advance_segment(
        lambda t, y: [0.0] * len(y), 0.0, 1.0, np.array([3.0]), opts, stats, h_start=h
    )
    assert y[0] == 3.0
    assert stats.accepted == 1
    assert stats.rejected == 0


def test_clipped_final_step_keeps_carried_suggestion():
    # Crossing a 1 microsecond segment must not collapse the step size handed
    # to the caller for the next segment.
    stats = IntegratorStats()
    _, _, h_next = advance_segment(
        lambda t, y: [0.0] * len(y), 0.0, 1e-6, np.array([1.0]), IntegratorOptions(), stats,
        h_start=0.5,
    )
    assert h_next >= 0.5


def test_initial_step_guess_is_usable():
    f0 = _rhs(0.0, np.array([1.0]))
    h0 = initial_step(_rhs, 0.0, np.array([1.0]), f0, 1e-9, 1e-12)
    assert 1e-6 < h0 < 1.0


def test_robot_error_ladder_follows_tolerance():
    # One uninterrupted hold interval, so the tolerance (not the control grid)
    # limits accuracy: tightening rtol tenfold should cut the error by roughly
    # one order of magnitude.
    p = nominal_params()
    controls = ControlSequence(t0=0.0, dt=3.0, samples=np.array([[6.0, -10.0, 6.0]]))

    def final_state(rtol):
        opts = IntegratorOptions(rtol=rtol, atol=1e-14)
        return simulate_robot(p, RobotState.rest(), controls, options=opts).states[-1]

    ref = final_state(1e-12)
    errors = [np.max(np.abs(final_state(10.0**-k) - ref)) for k in range(4, 10)]
    rungs = [a / b for a, b in zip(errors, errors[1:])]
    assert all(8.0 < r < 40.0 for r in rungs)
    geomean = math.exp(sum(math.log(r) for r in rungs) / len(rungs))
    assert 8.0 < geomean < 16.0


def test_hold_grid_caps_error_at_loose_tolerance():
    # With a 100 Hz hold grid every step is at most 10 ms, so even rtol 1e-5
    # lands within a nanounit of the tight solution.
    p = nominal_params()
    controls = ControlSequence.constant([6.0, -10.0, 6.0], duration=3.0, rate=100.0)

    def final_state(rtol):
        opts = IntegratorOptions(rtol=rtol, atol=1e-14)
        return simulate_robot(p, RobotState.rest(), controls, options=opts).states[-1]

    err = np.max(np.abs(final_state(1e-5) - final_state(1e-12)))
    assert err < 1e-9


# --- oracles for the float-list stepper --------------------------------------

# Dormand-Prince 5(4) tableau, written out independently of the module.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
# fifth-order weights by stage index (the second stage has weight zero)
_DP_B = ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784), (5, 11 / 84))


def _numpy_dp5(f, t, y, h, steps):
    """Fixed-step DP5 on ndarrays, each stage summed in tableau order."""
    k1 = f(t, y)
    for _ in range(steps):
        ks = [k1]
        for c, row in zip(_DP_C, _DP_A):
            acc = row[0] * ks[0]
            for a, k in zip(row[1:], ks[1:]):
                acc = acc + a * k
            ks.append(f(t + c * h, y + h * acc))
        j, b = _DP_B[0]
        acc = b * ks[j]
        for j, b in _DP_B[1:]:
            acc = acc + b * ks[j]
        y = y + h * acc
        t = t + h
        k1 = f(t, y)
    return y, k1


def _numpy_error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    ratio = err / scale
    return math.sqrt(float(ratio @ ratio) / ratio.size)


def test_float_list_steps_equal_the_numpy_stepper_bit_for_bit():
    # Pinned power-of-two steps and tolerances too loose to reject: the
    # stepper must reproduce the ndarray arithmetic exactly, robot rhs and all.
    p = nominal_params()
    rng = np.random.default_rng(21)
    h, steps = 2.0**-4, 8
    opts = IntegratorOptions(rtol=1e6, atol=1e6, max_step=h, first_step=h)
    for _ in range(3):
        x0 = random_admissible(p, rng).as_vector()
        u = rng.uniform(-20.0, 20.0, size=3).tolist()
        stats = IntegratorStats()
        y, k_end, _ = advance_segment(
            lambda t, x: state_derivative(p, x, u), 0.0, steps * h, x0, opts, stats, h_start=h
        )
        y_ref, k_ref = _numpy_dp5(
            lambda t, x: np.array(state_derivative(p, x, u)), 0.0, x0, h, steps
        )
        assert (stats.accepted, stats.rejected, stats.fevals) == (steps, 0, 6 * steps + 1)
        assert (y == y_ref).all()
        assert (np.array(k_end) == k_ref).all()


def test_error_norm_matches_the_numpy_formula():
    rng = np.random.default_rng(5)

    def draw():
        return rng.standard_normal(12) * 10.0 ** rng.uniform(-14.0, 3.0, 12)

    for _ in range(300):
        err, y0, y1 = draw(), draw(), draw()
        got = _error_norm(err.tolist(), y0.tolist(), y1.tolist(), 1e-9, 1e-12)
        assert got == _numpy_error_norm(err, y0, y1, 1e-9, 1e-12)

    for bad in (math.nan, math.inf, -math.inf):
        for which in range(3):
            vecs = [draw(), draw(), draw()]
            vecs[which][rng.integers(12)] = bad
            with np.errstate(invalid="ignore"):
                ref = _numpy_error_norm(*vecs, 1e-9, 1e-12)
            got = _error_norm(*(v.tolist() for v in vecs), 1e-9, 1e-12)
            if math.isnan(bad) or which == 0:
                assert not math.isfinite(ref)
            if math.isfinite(ref):
                assert got == ref
            else:
                assert not math.isfinite(got)

    # a zero scale (atol = 0 at a zero state) is non-finite, not an exception
    zeros = [0.0] * 12
    assert not math.isfinite(_error_norm([1.0] * 12, zeros, zeros, 1e-9, 0.0))


def test_rhs_gets_float_lists_and_float_time_from_numpy_segment_ends():
    seen = []

    def rhs(t, y):
        assert type(t) is float
        assert type(y) is list and all(type(v) is float for v in y)
        seen.append(t)
        return [-v for v in y]

    stats = IntegratorStats()
    y, k_end, _ = advance_segment(
        rhs, np.float64(0.0), np.float64(0.5), np.array([1.0, 2.0]), IntegratorOptions(), stats,
        k1=np.array([-1.0, -2.0]),
    )
    assert len(seen) == stats.fevals > 6
    assert type(y) is np.ndarray
    assert all(type(v) is float for v in k_end)
