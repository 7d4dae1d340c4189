"""The compiled parts of otbot against the Python code, their oracle.

``rollout`` (``src/otbot/_dp5_robot.c``) must roll the robot and a shaft
out to the same times, states, derivatives, controls and counters as the
Python engine of ``otbot.simulate.integrate``, the robot under held torques
and under the computed-torque law (with the same reference rows, ``u_traj``
and ``u_corr``), stop where Python raises, so that Python reruns the rollout
and raises there, and leave every rollout unchanged where it cannot be
loaded. Its ``dp5_robot_attempt`` and ``dp5_shaft_attempt`` must give the
same bits as the generated Python kernels, and ``struct rollout`` must have
the fields of ``_ckernel.Rollout``. ``format_rows``
(``src/otbot/_csv_format.c``) must spell every double as ``repr`` does, so
``write_csv`` writes the same bytes with it and without it. The noise
library (``src/otbot/_noise.c``) is built as the others are, keyed also on
the archive it links; its draws are checked in ``test_sensors.py``.
"""

from __future__ import annotations

import ctypes
import fnmatch
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import spy_runs
from otbot import _ckernel, integrator, simulate
from otbot.cli import main
from otbot.control import (
    closed_loop_simulate,
    feedforward_rollout,
    reference_start_state,
    track_planned_trajectory,
    tune_gains,
)
from otbot.dynamics import RobotState, admissible_state
from otbot.identify import FITS, FIT_TOLERANCE, experiment, prediction_error
from otbot.integrator import IntegrationError, IntegratorOptions, _error_norm, _step_kernel
from otbot.params import PARAM_FIELDS, nominal_params
from otbot.references import CorridorReference, Figure8Reference, HarmonicReference
from otbot.scenarios import build_plan
from otbot.simulate import (
    ControlSequence,
    DisturbanceSchedule,
    EventPlan,
    ForcePulse,
    integrate,
    robot_model,
    shaft_model,
    simulate_robot,
    simulate_shaft,
    write_csv,
)


def _attempt(name):
    """``dp5_<name>_attempt`` of the compiled library, bound here; the test is
    skipped where the rollout loop cannot be loaded."""
    if _ckernel.load() is None:
        pytest.skip("no working C compiler (cc) or no scipy-openblas ddot and dgemv in numpy: "
                    "the compiled rollout loop cannot be loaded")
    path = _ckernel.build(_ckernel.SOURCE, _ckernel.COMPILER, _ckernel.FLAGS)
    attempt = getattr(ctypes.CDLL(str(path)), f"dp5_{name}_attempt")
    attempt.argtypes = [ctypes.c_void_p] + [ctypes.c_double] * 3 + [ctypes.c_void_p] * 5
    attempt.restype = ctypes.c_int
    return attempt


@pytest.fixture
def compiled():
    """``dp5_robot_attempt``; the test is skipped where the loop cannot be loaded."""
    return _attempt("robot")


@pytest.fixture
def compiled_shaft():
    """``dp5_shaft_attempt``; the test is skipped where the loop cannot be loaded."""
    return _attempt("shaft")


def _noise_library():
    """``build``'s arguments for the noise library, as ``load_noise`` passes them."""
    archive = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"
    flags = (*_ckernel.FORMATTER_FLAGS, f"-I{np.get_include()}")
    return _ckernel.NOISE_SOURCE, _ckernel.COMPILER, flags, (archive,)


@pytest.fixture
def formatter():
    """The compiled CSV formatter; the test is skipped where it cannot be built."""
    run = _ckernel.load_formatter()
    if run is None:
        pytest.skip(
            "no working C compiler (cc with unsigned __int128): the CSV formatter cannot be built"
        )
    return run


def _params(rng):
    """A random parameter set around the catalogue robot, as a plain namespace."""
    p = nominal_params().as_dict()
    for name in PARAM_FIELDS:
        p[name] *= rng.uniform(0.5, 2.0)
    for name in ("xB", "yB", "xF", "yF"):
        p[name] = rng.uniform(-0.4, 0.4)
    return SimpleNamespace(**p)


def _state(rng):
    q = rng.uniform(-4.0, 4.0, 6)
    kind = rng.integers(4)
    if kind == 1:
        # headings theta = alpha - phi_p on or next to a multiple of pi/2,
        # where sin or cos is near zero
        q[5] = q[2] - rng.integers(-4, 5) * (math.pi / 2) - rng.choice([0.0, 1e-12, -1e-9])
    elif kind == 2:
        q[2] = rng.integers(-4, 5) * (math.pi / 2)  # alpha on the axes
    elif kind == 3:
        q[2:] = rng.uniform(-1e4, 1e4, 4)  # far out for the range reduction
    return q.tolist() + rng.uniform(-3.0, 3.0, 6).tolist()


def _c_attempt(attempt, p, u, force, y, k1, h, rtol, atol):
    """(status, y_new, k7, ratio) of one compiled attempt."""
    blk = np.array([getattr(p, name) for name in PARAM_FIELDS] + list(u) + list(force))
    rows = np.zeros((5, 12))
    rows[0], rows[1] = y, k1
    status = attempt(blk.ctypes.data, h, rtol, atol, *(row.ctypes.data for row in rows))
    return status, rows[2], rows[3], rows[4]


def _ddot():
    """numpy's own ddot, as the compiled loop calls it."""
    return ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                            ctypes.c_void_p, ctypes.c_int64)(_ckernel.load()[1])


def test_compiled_attempt_equals_the_python_kernel(compiled):
    step = _step_kernel(12)
    ddot = _ddot()
    rng = np.random.default_rng(7)
    for _ in range(3000):
        p = _params(rng)
        u = rng.uniform(-40.0, 40.0, 3).tolist()
        force = (rng.uniform(-80.0, 80.0, 2) * rng.integers(2)).tolist()
        f = robot_model(p)(u, force)
        y = _state(rng)
        k1 = f(0.0, y)
        h = float(10.0 ** rng.uniform(-6.0, -0.5))
        rtol, atol = float(10.0 ** rng.uniform(-11.0, -5.0)), float(10.0 ** rng.uniform(-14.0, -8.0))

        status, c_y, c_k7, ratio = _c_attempt(compiled, p, u, force, y, k1, h, rtol, atol)
        y_new, k7, err = step(f, 0.0, h, y, k1)
        assert status == 0
        assert c_y.tolist() == y_new and c_k7.tolist() == k7
        assert ratio.tolist() == [
            e / (atol + rtol * (a if a > b or a != a else b))
            for e, a, b in zip(err, map(abs, y), map(abs, y_new))
        ]
        # the loop's norm: numpy's own ddot, called from C
        norm = math.sqrt(ddot(12, ratio.ctypes.data, 1, ratio.ctypes.data, 1) / 12)
        assert norm == _error_norm(err, y, y_new, rtol, atol)


def _outcome(run):
    """``run()``, or the exception it raised."""
    try:
        return run()
    except Exception as exc:  # compared between the engines
        return exc


def _on_both(run, monkeypatch):
    """``run()`` on the compiled loop, then on the Python engine."""
    with monkeypatch.context() as m:
        runs = spy_runs(m)
        c = _outcome(run)
    assert runs
    with monkeypatch.context() as m:
        m.setattr(_ckernel, "load", lambda: None)
        py = _outcome(run)
    return c, py


def _first_step(monkeypatch, h):
    """Make ``h`` the first step of every rollout on both engines, in place
    of the guess of ``initial_step``, and return the statuses of the C calls
    that took it, from now on. The C guesses only in a call that starts at
    event 0 and runs past it, so each rollout runs event 0 in one call and,
    from ``h``, the rest in another."""
    monkeypatch.setattr(integrator, "initial_step", lambda *args: h)
    run, ddot, dgemv = _ckernel.load()
    statuses = []

    def preset(c, i, j):
        if i > 0 or j <= 1:
            return run(c, i, j)
        status = run(c, 0, 1)
        if status:
            return status
        c.h, c.fevals = h, c.fevals + 1
        statuses.append(run(c, 1, j))
        return statuses[-1]

    monkeypatch.setattr(_ckernel, "load", lambda: (preset, ddot, dgemv))
    return statuses


def _assert_same(c, py):
    """The same trajectory bit for bit (``derivs`` None on both, or both
    recorded and the same), or the same exception."""
    if isinstance(py, Exception):
        assert type(c) is type(py) and str(c) == str(py), (c, py)
        if isinstance(py, IntegrationError):
            assert (c.t, c.h, c.rejected) == (py.t, py.h, py.rejected)
        return
    assert not isinstance(c, Exception), c
    for name in ("times", "states", "derivs", "controls"):
        a, b = getattr(c, name), getattr(py, name)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert c.stats == py.stats


@pytest.mark.parametrize(
    "change, error",
    [
        ({"l1": 0.0}, ZeroDivisionError),
        ({"r": 0.0}, ZeroDivisionError),
        ({"l2": 0.0}, ZeroDivisionError),
        ({"alpha": math.inf}, ValueError),
        ({"alpha": -math.inf}, ValueError),
        ({"phi_p": math.inf}, ValueError),
        # theta = inf - inf is nan, which sin and cos take; alpha is the inf
        ({"alpha": math.inf, "phi_p": math.inf}, ValueError),
    ],
    ids=["l1-zero", "r-zero", "l2-zero", "alpha-inf", "alpha-minus-inf", "heading-inf",
         "alpha-inf-heading-nan"],
)
def test_where_python_raises_the_compiled_attempt_stops_and_python_raises(
    compiled, monkeypatch, change, error
):
    p = nominal_params().as_dict()
    p.update({k: v for k, v in change.items() if k in p})
    p = SimpleNamespace(**p)
    u, force = [5.0, -3.0, 2.0], [1.0, 0.0]
    y = [0.1, 0.2, change.get("alpha", 0.3), 0.0, 0.0, change.get("phi_p", 0.1)] + [0.5] * 6
    k1 = [0.0] * 12
    assert _c_attempt(compiled, p, u, force, y, k1, 1e-3, 1e-9, 1e-12)[0] != 0
    with pytest.raises(error):
        _step_kernel(12)(robot_model(p)(u, force), 0.0, 1e-3, y, k1)
    # the rollout stops in C at its first hold and raises in Python
    controls = ControlSequence(t0=0.0, dt=0.01, samples=[u])
    pulses = DisturbanceSchedule((ForcePulse(0.0, 1.0, fx=force[0]),))
    plan = EventPlan((0.0, 0.01), controls, disturbances=pulses)
    c, py = _on_both(lambda: integrate(robot_model(p), y, plan), monkeypatch)
    assert isinstance(py, error)
    _assert_same(c, py)


def test_a_stage_that_raises_hands_its_segment_to_python(compiled, monkeypatch):
    # the first hold is finite; a huge first step drives stage 2's angle to inf
    y = [0.0] * 8 + [1.7e308] + [0.0] * 3
    controls = ControlSequence(t0=0.0, dt=50.0, samples=[[1.0, 2.0, 3.0]] * 2)
    statuses = _first_step(monkeypatch, 10.0)
    plan = EventPlan((0.0, 100.0), controls)
    c, py = _on_both(lambda: integrate(robot_model(nominal_params()), y, plan), monkeypatch)
    assert isinstance(py, ValueError)
    _assert_same(c, py)
    assert statuses == [2]  # the C took the step and stopped at the infinite angle


def test_a_step_underflow_raises_the_same_integration_error(compiled, monkeypatch):
    # a NaN torque from the sixth hold on: every attempt there is rejected
    samples = np.tile([6.0, -10.0, 6.0], (10, 1))
    samples[5:, 1] = math.nan
    controls = ControlSequence(t0=0.0, dt=0.01, samples=samples)
    c, py = _on_both(lambda: simulate_robot(nominal_params(), RobotState.rest(), controls), monkeypatch)
    assert isinstance(py, IntegrationError) and py.t == pytest.approx(0.05)
    _assert_same(c, py)


def test_a_zero_error_scale_is_an_infinite_norm_on_both_kernels(compiled, monkeypatch):
    # at rest, unforced, with atol = 0: every scale is zero
    p = nominal_params()
    f = robot_model(p)([0.0, 0.0, 0.0], [0.0, 0.0])
    y = [0.0] * 12
    k1 = f(0.0, y)
    status, _, _, ratio = _c_attempt(compiled, p, [0.0] * 3, [0.0] * 2, y, k1, 1e-3, 1e-9, 0.0)
    assert status == 0 and not np.isfinite(ratio).any()
    y_new, _, err = _step_kernel(12)(f, 0.0, 1e-3, y, k1)
    assert _error_norm(err, y, y_new, 1e-9, 0.0) == math.inf
    # both loops reject every attempt until the step underflows
    controls = ControlSequence.constant([0.0, 0.0, 0.0], 0.05, 100.0)
    options = IntegratorOptions(atol=0.0)
    statuses = _first_step(monkeypatch, 1e-3)
    c, py = _on_both(lambda: simulate_robot(p, RobotState.rest(), controls, options=options),
                     monkeypatch)
    assert isinstance(py, IntegrationError) and py.rejected > 0
    _assert_same(c, py)
    assert statuses == [3]  # the C took the step and stopped at the underflow


@pytest.mark.parametrize("stop", [0, 1, 17])
def test_a_rollout_the_c_stops_is_rerun_in_python(compiled, monkeypatch, stop):
    """A loop that stops at event ``stop``, as it does where Python raises,
    gives the oracle's rollouts, open loop and under a feedback law."""
    run, ddot, dgemv = _ckernel.load()
    stops = []

    def stopping(c, i, j):
        if not i <= stop < j:
            return run(c, i, j)
        stops.append(stop)
        return run(c, i, stop) or 1

    rng = np.random.default_rng(13)
    controls = ControlSequence(t0=0.0, dt=0.01, samples=_holds(rng, 30))
    pulses = DisturbanceSchedule((ForcePulse(0.05, 0.17, fx=20.0),))
    state = _start(rng)

    def rollouts():
        p = nominal_params()
        return (simulate_robot(p, state, controls, disturbances=pulses),
                closed_loop_simulate(p, state, HarmonicReference(horizon=0.2), tune_gains(1.0)))

    monkeypatch.setattr(_ckernel, "load", lambda: (stopping, ddot, dgemv))
    rerun = rollouts()
    assert stops == [stop, stop]
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    oracle = rollouts()
    _assert_same(rerun[0], oracle[0])
    _assert_same_tracking(rerun[1], oracle[1])


def _holds(rng, n):
    """n torque rows: repeats, 0.0 against -0.0, and random values."""
    pool = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [6.0, -10.0, 6.0]])
    rows = np.where(rng.random((n, 1)) < 0.5, pool[rng.integers(4, size=n)],
                    rng.uniform(-10.0, 10.0, (n, 3)))
    repeat = rng.random(n) < 0.3
    for k in np.flatnonzero(repeat[1:]) + 1:
        rows[k] = rows[k - 1]
    return rows


def _start(rng):
    p = nominal_params()
    return admissible_state(p, rng.uniform(-1.0, 1.0, 6), dp=rng.uniform(-0.5, 0.5, 3))


def test_random_holds_roll_out_the_same_on_both_engines(compiled, monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(4):
        controls = ControlSequence(t0=0.0, dt=0.01, samples=_holds(rng, 40))
        state = _start(rng)
        _assert_same(*_on_both(lambda: simulate_robot(nominal_params(), state, controls),
                               monkeypatch))


def test_pulses_on_and_next_to_segment_edges_roll_out_the_same(compiled, monkeypatch):
    rng = np.random.default_rng(8)
    controls = ControlSequence(t0=0.0, dt=0.01, samples=_holds(rng, 30))
    edge = controls.boundaries
    pulses = DisturbanceSchedule((
        ForcePulse(edge[3], edge[9], fx=40.0),
        ForcePulse(np.nextafter(edge[9], math.inf), np.nextafter(edge[15], -math.inf), fy=-25.0),
        ForcePulse(np.nextafter(edge[5], -math.inf), edge[20] + 0.004, fx=-10.0, fy=12.0),
    ))
    state = _start(rng)
    _assert_same(*_on_both(
        lambda: simulate_robot(nominal_params(), state, controls, disturbances=pulses), monkeypatch))


def test_output_grids_with_ulp_near_merges_roll_out_the_same(compiled, monkeypatch):
    rng = np.random.default_rng(9)
    controls = ControlSequence(t0=0.0, dt=0.01, samples=_holds(rng, 30))
    grid = np.arange(61) / 200.0
    grid[::3] = np.nextafter(grid[::3], math.inf)
    grid[1::4] = np.nextafter(grid[1::4], -math.inf)
    grid = np.clip(np.append(grid, [0.0137, 0.2001]), 0.0, 0.3)
    state = _start(rng)
    _assert_same(*_on_both(
        lambda: simulate_robot(nominal_params(), state, controls, output_times=grid), monkeypatch))


def _assert_same_tracking(c, py):
    """The same tracking run bit for bit, law rows included, or the same exception."""
    if isinstance(py, Exception):
        _assert_same(c, py)
        return
    assert not isinstance(c, Exception), c
    _assert_same(c.trajectory, py.trajectory)
    for name in ("p_ref", "v_ref", "a_ref", "e_p", "e_v", "u_traj", "u_corr"):
        a, b = getattr(c, name), getattr(py, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _figure8_with_pulses():
    p = nominal_params()
    ref = Figure8Reference()
    instant = 1e-3 * np.arange(2001)  # the control grid of closed_loop_simulate
    pulses = DisturbanceSchedule((
        ForcePulse(instant[250], instant[400], fy=-150.0),  # on control instants
        ForcePulse(np.nextafter(instant[500], math.inf), np.nextafter(instant[650], -math.inf), fx=200.0),
        ForcePulse(np.nextafter(instant[1600], -math.inf), instant[1800] + 4e-4, fx=-350.0),
    ))
    # the lead-in straight, then the first arc from t = 1.34 s
    return closed_loop_simulate(p, reference_start_state(p, ref), ref, tune_gains(3.0),
                                disturbances=pulses, t_end=2.0)


def _corridor():
    # legs of 0.5 s, so the run turns two corners, from rest
    ref = CorridorReference(leg_length=0.3)
    return closed_loop_simulate(nominal_params().replace(bw=0.0, bp=0.0), RobotState.rest(), ref,
                                tune_gains(3.0), t_end=1.2)


def _plan():
    p = nominal_params()
    plan = build_plan(p, horizon=1.0, rate=50.0, reference=HarmonicReference(horizon=1.0))
    return track_planned_trajectory(p, plan, tune_gains(1.0))


def _feedforward():
    return feedforward_rollout(nominal_params(), Figure8Reference(), rate=100.0, t_end=2.0)


@pytest.mark.parametrize("run", [_figure8_with_pulses, _corridor, _plan, _feedforward],
                         ids=["figure8-pulses", "corridor", "plan", "feedforward"])
def test_a_feedback_law_rolls_out_the_same_on_both_engines(compiled, monkeypatch, run):
    _assert_same_tracking(*_on_both(run, monkeypatch))


# dgemv with 64-bit integers, as the compiled loop calls it
_DGEMV = ctypes.CFUNCTYPE(None, ctypes.c_int, ctypes.c_int, ctypes.c_int64, ctypes.c_int64,
                          ctypes.c_double, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                          ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_int64)


def test_feedforward_holds_a_negative_zero_u_traj_as_zero(compiled, monkeypatch):
    """Without feedback u is ``u_traj + np.zeros(3)``, so a -0.0 in u_traj
    is held as 0.0. numpy's dgemv gives 0.0 at rest; one that turns its
    zeros into -0.0 makes the case."""
    run, ddot, dgemv = _ckernel.load()
    numpy_dgemv = _DGEMV(dgemv)

    @_DGEMV
    def negative_zeros(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy):
        numpy_dgemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
        out = (ctypes.c_double * m).from_address(y)
        for i in range(m):
            out[i] = -0.0 if out[i] == 0.0 else out[i]

    # at rest on a reference at rest: every product is zero
    ref = HarmonicReference(amplitude=(0.0, 0.0, 0.0), horizon=0.05)

    def rollout():
        return closed_loop_simulate(nominal_params(), RobotState.rest(), ref, None, control_rate=100.0)

    py = rollout()
    monkeypatch.setattr(_ckernel, "load",
                        lambda: (run, ddot, ctypes.cast(negative_zeros, ctypes.c_void_p).value))
    c = rollout()
    assert (c.u_traj == 0.0).all() and np.signbit(c.u_traj).all()
    assert not np.signbit(py.u_traj).any()
    assert c.trajectory.controls.tobytes() == py.trajectory.controls.tobytes()
    assert not np.signbit(c.trajectory.controls).any()


@pytest.mark.parametrize(
    "change, error",
    [
        ({"l1": 0.0}, ZeroDivisionError),
        ({"r": 0.0}, ZeroDivisionError),
        ({"l2": 0.0}, ZeroDivisionError),
        ({"alpha": math.inf}, ValueError),
    ],
    ids=["l1-zero", "r-zero", "l2-zero", "alpha-inf"],
)
def test_a_law_that_stops_in_c_raises_the_python_exception(compiled, monkeypatch, change, error):
    p = nominal_params().as_dict()
    p.update({k: v for k, v in change.items() if k in p})
    q = np.array([0.1, 0.2, change.get("alpha", 0.3), 0.0, 0.0, 0.1])
    x0 = RobotState(q=q, dq=np.zeros(6))
    c, py = _on_both(lambda: closed_loop_simulate(SimpleNamespace(**p), x0, HarmonicReference(horizon=0.01),
                                                  tune_gains(1.0)), monkeypatch)
    assert isinstance(py, error)
    _assert_same_tracking(c, py)


# ---------------------------------------------------------------- the shaft


def _c_shaft_attempt(attempt, inertia, damping, u, y, k1, h, rtol, atol):
    """(status, y_new, k7, ratio) of one compiled shaft attempt."""
    blk = np.array([inertia, damping, u])
    rows = np.zeros((5, 2))
    rows[0], rows[1] = y, k1
    status = attempt(blk.ctypes.data, h, rtol, atol, *(row.ctypes.data for row in rows))
    return status, rows[2], rows[3], rows[4]


def test_compiled_shaft_attempt_equals_the_python_kernel(compiled_shaft):
    step = _step_kernel(2)
    ddot = _ddot()
    rng = np.random.default_rng(17)
    for _ in range(20000):
        # inertias across the fit bounds; torques of 0.0 and -0.0 among them
        inertia = float(10.0 ** rng.uniform(-6.0, 4.0))
        damping = float(rng.choice([0.0, rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(-6.0, 3.0)]))
        u = float(rng.choice([0.0, -0.0, rng.uniform(-50.0, 50.0)]))
        f = shaft_model(inertia, damping)([u], [])
        y = (rng.uniform(-1e3, 1e3, 2) * rng.integers(2, size=2)).tolist()
        k1 = f(0.0, y)
        h = float(10.0 ** rng.uniform(-9.0, 0.0))
        rtol, atol = float(10.0 ** rng.uniform(-11.0, -5.0)), float(10.0 ** rng.uniform(-14.0, -8.0))

        status, c_y, c_k7, ratio = _c_shaft_attempt(compiled_shaft, inertia, damping, u, y, k1, h,
                                                    rtol, atol)
        y_new, k7, err = step(f, 0.0, h, y, k1)
        assert status == 0
        assert c_y.tolist() == y_new and c_k7.tolist() == k7
        # the loop's norm over 2-vectors: numpy's own ddot, called from C
        norm = math.sqrt(ddot(2, ratio.ctypes.data, 1, ratio.ctypes.data, 1) / 2)
        assert norm == _error_norm(err, y, y_new, rtol, atol)


def _shaft_holds(rng, n):
    """n one-torque rows: repeats, 0.0 against -0.0, and random values."""
    rows = np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0, 6.0], n), rng.uniform(-10.0, 10.0, n))
    for k in np.flatnonzero(rng.random(n - 1) < 0.3) + 1:
        rows[k] = rows[k - 1]
    return rows[:, None]


def test_random_shafts_roll_out_the_same_on_both_engines(compiled_shaft, monkeypatch):
    rng = np.random.default_rng(21)
    for _ in range(12):
        inertia, damping = float(10.0 ** rng.uniform(-3.0, 2.0)), float(rng.uniform(0.0, 1.0))
        controls = ControlSequence(t0=0.0, dt=0.01, samples=_shaft_holds(rng, 30))
        _assert_same(*_on_both(lambda: simulate_shaft(inertia, damping, controls, FIT_TOLERANCE),
                               monkeypatch))


@pytest.mark.parametrize("inertia", [1e-6, 1e4], ids=["lower-bound", "upper-bound"])
def test_shafts_at_the_fit_bounds_roll_out_the_same(compiled_shaft, monkeypatch, inertia):
    controls = ControlSequence(t0=0.0, dt=0.01, samples=_shaft_holds(np.random.default_rng(4), 10))
    _assert_same(*_on_both(lambda: simulate_shaft(inertia, 0.12, controls, FIT_TOLERANCE), monkeypatch))


@pytest.mark.parametrize("record", ["step1_wheel", "step1_platform"])
def test_step1_records_roll_out_the_same_on_both_engines(compiled_shaft, monkeypatch, record):
    """The record, a fit rollout on the record's plan, its loss and its Jacobian."""
    row, p = FITS[record], nominal_params()
    exp = experiment(row, p, seed=0)
    inertia, damping = (1.3 * getattr(p, f) for f in row.shaft)
    guess = dict(zip(row.names, (inertia, damping)))

    def run():
        truth = simulate_shaft(*(getattr(p, f) for f in row.shaft), exp.controls)
        fit = integrate(shaft_model(inertia, damping), np.zeros(2), exp.plan, FIT_TOLERANCE)
        return truth, fit, prediction_error(guess, p, exp, FIT_TOLERANCE)

    c, py = _on_both(run, monkeypatch)
    _assert_same(c[0], py[0])
    _assert_same(c[1], py[1])
    assert c[2][0] == py[2][0] and c[2][1].tobytes() == py[2][1].tobytes()
    assert c[2][2].tobytes() == py[2][2].tobytes()


@pytest.mark.parametrize("inertia", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_a_zero_inertia_stops_the_c_and_raises_in_python(compiled_shaft, monkeypatch, inertia):
    assert _c_shaft_attempt(compiled_shaft, inertia, 0.1, 6.0, [0.0, 0.0], [0.0, 1.0], 1e-3,
                            1e-9, 1e-12)[0] == 1
    controls = ControlSequence.constant([6.0], 0.5, 100.0)
    c, py = _on_both(lambda: simulate_shaft(inertia, 0.1, controls), monkeypatch)
    assert isinstance(py, ZeroDivisionError)
    _assert_same(c, py)
    # a fit scores such a candidate inf, with the C loaded
    exp = experiment(FITS["step1_wheel"], nominal_params(), seed=0)
    runs = spy_runs(monkeypatch)
    loss, res, _ = prediction_error({"Ia": inertia, "bw": 0.1}, nominal_params(), exp, FIT_TOLERANCE)
    assert loss == math.inf and np.isinf(res).all() and len(res) == len(exp.record.times)
    assert runs == [(0, len(exp.plan.events))]  # one C call, which stops at its first derivative


# ---------------------------------------------------------------- the first-step guess


@pytest.fixture
def c_guess(compiled):
    """``first_step`` of the compiled library: ``guess(kind, blk, x, k1, rtol,
    atol)`` is its (status, h, fevals) on a fresh struct of the model
    ``kind`` holding the block, the state and its first stage."""
    path = _ckernel.build(_ckernel.SOURCE, _ckernel.COMPILER, _ckernel.FLAGS)
    first_step = ctypes.CDLL(str(path)).first_step
    first_step.argtypes = [ctypes.POINTER(_ckernel.Rollout)]
    first_step.restype = ctypes.c_int

    def guess(kind, blk, x, k1, rtol, atol):
        c = _ckernel.Rollout(rtol=rtol, atol=atol, model=_ckernel.MODEL_INDEX[kind])
        c.blk[: len(blk)], c.x[: len(x)], c.k1[: len(k1)] = blk, x, k1
        return first_step(c), c.h, c.fevals

    return guess


# the status of first_step where initial_step raises
_GUESS_STATUS = {ZeroDivisionError: 1, ValueError: 2, IntegrationError: 3}


def _assert_same_guess(c_guess, kind, blk, f, x, rtol, atol, k1=None):
    """``first_step`` gives ``initial_step``'s guess from ``x`` and ``k1``
    (default ``f(0, x)``) bit for bit, or stops where it raises; returns
    the guess's h0, the time of its second rhs call, and the outcome."""
    k1 = f(0.0, x) if k1 is None else k1
    calls = []

    def rhs(t, y):
        calls.append(t)
        return f(t, y)

    with np.errstate(all="ignore"):
        py = _outcome(lambda: integrator.initial_step(rhs, 0.0, x, k1, rtol, atol))
    status, h, fevals = c_guess(kind, blk, x, k1, rtol, atol)
    if isinstance(py, Exception):
        assert status == _GUESS_STATUS[type(py)], (py, x, blk)
    else:
        assert (status, fevals) == (0, 1)
        assert h == py or (math.isnan(h) and math.isnan(py)), (h, py, x, blk)
    return (calls[0] if calls else None), py


def _summed_in_order(v, scale) -> bool:
    """Whether the mean of (v / scale) ** 2 summed from the left differs from numpy's."""
    sq = ((np.asarray(v) / scale) ** 2).tolist()
    total = 0.0
    for q in sq:
        total += q
    return total / len(sq) != float(np.mean(np.asarray(sq)))


def test_the_guess_of_the_c_equals_initial_step_on_robot_states(c_guess):
    rng = np.random.default_rng(23)
    h0s, reordered = set(), 0
    for trial in range(3000):
        p = _params(rng)
        # every fifth at rest, every tenth without torques or force too
        u = [0.0] * 3 if trial % 10 == 0 else rng.uniform(-40.0, 40.0, 3).tolist()
        force = [0.0] * 2 if trial % 10 == 0 else (rng.uniform(-80.0, 80.0, 2) * rng.integers(2)).tolist()
        x = [0.0] * 12 if trial % 5 == 0 else _state(rng)
        rtol, atol = float(10.0 ** rng.uniform(-11.0, -5.0)), float(10.0 ** rng.uniform(-14.0, -8.0))
        blk = [getattr(p, name) for name in PARAM_FIELDS] + u + force
        f = robot_model(p)(u, force)
        h0s.add(_assert_same_guess(c_guess, "robot", blk, f, x, rtol, atol)[0] == 1e-6)
        scale = atol + rtol * np.abs(x)
        reordered += _summed_in_order(x, scale) or _summed_in_order(f(0.0, x), scale)
    assert h0s == {True, False}  # both branches of h0
    assert reordered > 100  # states where a sum from the left has other bits


def test_the_guess_of_the_c_equals_initial_step_on_shafts(c_guess):
    rng = np.random.default_rng(29)
    h0s = set()
    for _ in range(20000):
        inertia = float(10.0 ** rng.uniform(-6.0, 4.0))
        damping = float(rng.choice([0.0, rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(-6.0, 3.0)]))
        u = float(rng.choice([0.0, -0.0, rng.uniform(-50.0, 50.0)]))
        x = (rng.uniform(-1e3, 1e3, 2) * rng.integers(2, size=2)).tolist()
        rtol, atol = float(10.0 ** rng.uniform(-11.0, -5.0)), float(10.0 ** rng.uniform(-14.0, -8.0))
        f = shaft_model(inertia, damping)([u], [])
        h0s.add(_assert_same_guess(c_guess, "shaft", [inertia, damping, u], f, x, rtol, atol)[0] == 1e-6)
    assert h0s == {True, False}


@pytest.mark.parametrize(
    "shaft, x, atol, expected",
    [
        # at rest with zero torque: d1 = d2 = 0, so h1 = max(1e-6, h0 * 1e-3)
        ((0.0104, 0.18, 0.0), [0.0, 0.0], 1e-12, 1e-6),
        # an infinite first stage and a NaN second (0 * inf): h1 = (0.01 / inf) ** 0.2
        ((1e-300, 0.0, 1e300), [0.0, 0.0], 1e-12, 0.0),
        # every scale infinite: d1 = 0 and a NaN d2, so 0.01 / max(d1, d2) divides by 0
        ((1e-300, 1.0, 1e-10), [0.0, 0.0], math.inf, ZeroDivisionError),
        # an infinite first stage away from rest: h0 = 0, a step size underflow
        ((1e-300, 0.0, 1e300), [1.0, 0.0], 1e-12, IntegrationError),
    ],
    ids=["rest", "nan-second-stage", "zero-max-of-d1-d2", "zero-h0"],
)
def test_the_guess_of_the_c_takes_initial_steps_branches(c_guess, shaft, x, atol, expected):
    inertia, damping, u = shaft
    f = shaft_model(inertia, damping)([u], [])
    outcome = _assert_same_guess(c_guess, "shaft", list(shaft), f, x, 1e-9, atol)[1]
    assert outcome == expected if isinstance(expected, float) else isinstance(outcome, expected)


@pytest.mark.parametrize(
    "x, error",
    [
        # at rest, so h0 = 1e-6: the second stage's angle is 1e-6 * inf
        ([0.0] * 12, ValueError),
        # away from rest, so h0 = 0.01 * d0 / inf = 0: a step size underflow
        ([0.1] * 12, IntegrationError),
    ],
    ids=["infinite-angle", "zero-h0"],
)
def test_the_guess_of_the_c_stops_where_initial_step_raises(c_guess, x, error):
    # a first stage with an infinite heading rate, as a caller may pass it
    p, u, force = nominal_params(), [1.0, 2.0, 3.0], [0.0, 0.0]
    blk = [getattr(p, name) for name in PARAM_FIELDS] + u + force
    k1 = [0.0, 0.0, math.inf] + [0.0] * 9
    f = robot_model(p)(u, force)
    assert isinstance(_assert_same_guess(c_guess, "robot", blk, f, x, 1e-9, 1e-12, k1)[1], error)


def _c_then_forced_fallback(rollout, monkeypatch, request):
    """``rollout()``, one rollout, on the compiled loop, then under the
    ``python_kernel`` fixture, where the loop does not load."""
    with monkeypatch.context() as m:
        runs = spy_runs(m)
        c = rollout()
    assert runs is not None and len(runs) == 1
    request.getfixturevalue("python_kernel")
    assert _ckernel.load() is None
    return c, rollout()


def test_the_forced_fallback_runs_the_shaft_in_python(compiled_shaft, monkeypatch, request):
    controls = ControlSequence.constant([6.0], 0.5, 100.0)
    _assert_same(*_c_then_forced_fallback(lambda: simulate_shaft(0.0104, 0.18, controls),
                                          monkeypatch, request))


def test_forced_fallback_gives_the_same_rollout(compiled, monkeypatch, request):
    p = nominal_params()
    state = admissible_state(p, np.array([0.1, -0.2, 0.3, 0.0, 0.0, 0.2]), dp=np.array([0.2, -0.1, 0.3]))
    controls = ControlSequence(t0=0.0, dt=0.01, samples=np.random.default_rng(3).uniform(-10.0, 10.0, (60, 3)))
    pulses = DisturbanceSchedule((ForcePulse(0.123, 0.3, fx=40.0, fy=-25.0),))
    _assert_same(*_c_then_forced_fallback(
        lambda: simulate_robot(p, state, controls, disturbances=pulses), monkeypatch, request))


@pytest.mark.parametrize("missing", ["ddot", "dgemv", "compiler"])
def test_a_missing_ddot_or_compiler_runs_python_with_the_same_bytes(compiled, tmp_path, monkeypatch,
                                                                    missing):
    # a 1 s figure-8 lap with one pulse: the closed loop and the feasibility pass
    bundled = Path(_ckernel.__file__).with_name("scenarios")
    text = (bundled / "figure8.cfg").read_text().replace("horizon = 18", "horizon = 1")
    text = text.replace("file = nominal.cfg", f"file = {bundled / 'nominal.cfg'}")
    text = text.split("pulse1")[0] + "pulse1 = 0.2, 0.4, 0, -150\n"
    (tmp_path / "short.cfg").write_text(text)
    runs = {
        "simulate": ["simulate", "--torques", "6,-10,6", "--duration", "0.3", "--rate", "50"],
        "control": ["control", "--scenario", str(tmp_path / "short.cfg")],
    }

    def run_all(engine):
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / engine / name)]) == 0

    run_all("c")
    if missing == "compiler":
        monkeypatch.setattr(_ckernel, "COMPILER", str(tmp_path / "no-such-cc"))
    else:
        monkeypatch.setattr(_ckernel, missing.upper(), "no_such_blas_symbol")
        assert _ckernel.numpy_blas() is None
    _ckernel.load.cache_clear()
    try:
        run_all("python")
    finally:
        monkeypatch.undo()
        _ckernel.load.cache_clear()
    for name in runs:
        c, py = (tmp_path / engine / name for engine in ("c", "python"))
        kernels = [json.loads((d / "manifest.json").read_text())["integrator"]["kernel"] for d in (c, py)]
        assert kernels == ["c", "python"]
        files = sorted(f.name for f in c.glob("*.csv"))
        assert files == sorted(f.name for f in py.glob("*.csv")) and files
        for f in files:
            assert (c / f).read_bytes() == (py / f).read_bytes(), (name, f)


def _check_build_fallbacks(library, loader, compiler, tmp_path, monkeypatch):
    """``build(*library)`` and ``loader`` around caches and a failing ``compiler``."""
    load = loader.__wrapped__  # past the loader's cache of this process
    # a cache path below a regular file cannot be created
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "file" / "otbot")
    built = _ckernel.build(*library)
    assert built is not None and built.is_file()
    assert tmp_path not in built.parents
    assert load() is not None

    # a writable cache is filled once and then reused
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "cache")
    first = _ckernel.build(*library)
    assert first.parent == tmp_path / "cache"
    assert [p.name for p in first.parent.iterdir()] == [first.name]
    assert _ckernel.build(*library) == first

    # a compiler that fails selects the Python code
    failing = tmp_path / "cc"
    failing.write_text("#!/bin/sh\nexit 1\n")
    failing.chmod(0o755)
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "other")
    monkeypatch.setattr(_ckernel, compiler, str(failing))
    assert load() is None
    assert list((tmp_path / "other").iterdir()) == []


def test_build_falls_back_to_a_process_directory_and_to_python(compiled, tmp_path, monkeypatch):
    library = (_ckernel.SOURCE, _ckernel.COMPILER, _ckernel.FLAGS)
    _check_build_fallbacks(library, _ckernel.load, "COMPILER", tmp_path, monkeypatch)


def test_formatter_build_falls_back_to_a_process_directory_and_to_python(
    formatter, tmp_path, monkeypatch
):
    library = (_ckernel.FORMATTER_SOURCE, _ckernel.COMPILER, _ckernel.FORMATTER_FLAGS)
    _check_build_fallbacks(library, _ckernel.load_formatter, "COMPILER", tmp_path, monkeypatch)


def test_noise_build_falls_back_to_a_process_directory_and_to_numpy(tmp_path, monkeypatch):
    if _ckernel.load_noise() is None:
        pytest.skip("no working C compiler (cc) or no libnpyrandom.a: the noise library cannot be built")
    _check_build_fallbacks(_noise_library(), _ckernel.load_noise, "COMPILER", tmp_path, monkeypatch)


def test_a_changed_archive_gets_a_new_cached_name(tmp_path, monkeypatch):
    # a stand-in compiler that only creates its output: build names what it would link
    fake = tmp_path / "cc"
    fake.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n: > "$2"\n')
    fake.chmod(0o755)
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "cache")
    source, _, flags, (archive,) = _noise_library()
    if not archive.is_file():
        pytest.skip("numpy ships no libnpyrandom.a")
    names = []
    for extra in (b"", b"", b"\n"):
        copy = tmp_path / f"{len(names)}" / archive.name
        copy.parent.mkdir()
        copy.write_bytes(archive.read_bytes() + extra)
        names.append(_ckernel.build(source, str(fake), flags, (copy,)).name)
    key = hashlib.sha256(source.read_bytes() + "\0".join(flags).encode() + archive.read_bytes()).hexdigest()
    assert names[0] == names[1] == f"noise-{key[:24]}.so" != names[2]


def test_a_build_removes_the_older_builds_of_its_library(tmp_path, monkeypatch):
    # a stand-in compiler that only creates its output; an older build that
    # cannot be removed (a directory here) is left, and the build goes on
    fake = tmp_path / "cc"
    fake.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n: > "$2"\n')
    fake.chmod(0o755)
    cache = tmp_path / "cache"
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: cache)
    cache.mkdir()
    old, other = (cache / f"{stem}-{24 * '0'}.so" for stem in ("csv_format", "noise"))
    old.touch()
    other.touch()
    (cache / "csv_format-stuck.so").mkdir()
    built = _ckernel.build(_ckernel.FORMATTER_SOURCE, str(fake), _ckernel.FORMATTER_FLAGS)
    assert built.parent == cache and built.name.startswith("csv_format-")
    assert sorted(p.name for p in cache.iterdir()) == sorted([built.name, "csv_format-stuck.so", other.name])
    again = _ckernel.build(_ckernel.FORMATTER_SOURCE, str(fake), (*_ckernel.FORMATTER_FLAGS, "-g"))
    assert sorted(p.name for p in cache.iterdir()) == sorted([again.name, "csv_format-stuck.so", other.name])


def test_a_missing_archive_leaves_the_noise_to_numpy(tmp_path, monkeypatch):
    source, compiler, flags, _ = _noise_library()
    assert _ckernel.build(source, compiler, flags, (tmp_path / "libnpyrandom.a",)) is None
    # a numpy installed without the archive
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert _ckernel.load_noise.__wrapped__() is None


@given(st.binary(max_size=300))
def test_the_builtin_sha256_is_hashlibs(data):
    assert _ckernel.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_the_builtin_sha256_hashes_the_sources_and_scenarios_as_hashlib_does():
    # the manifests' config_sha256 values of the bundled scenarios stay put
    files = [_ckernel.SOURCE, _ckernel.FORMATTER_SOURCE, _ckernel.NOISE_SOURCE,
             *sorted((Path(_ckernel.__file__).parent / "scenarios").glob("*.cfg"))]
    assert len(files) > 3
    for path in files:
        assert _ckernel.sha256(path.read_bytes()).hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("library", ["SOURCE", "FORMATTER_SOURCE"])
def test_a_library_keeps_its_cached_name(library, tmp_path, monkeypatch):
    # the name is keyed as hashlib keyed it, so a warm cache stays warm
    source = getattr(_ckernel, library)
    flags = _ckernel.FLAGS if library == "SOURCE" else _ckernel.FORMATTER_FLAGS
    key = hashlib.sha256(source.read_bytes() + "\0".join(flags).encode()).hexdigest()
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path)
    (tmp_path / f"{source.stem.lstrip('_')}-{key[:24]}.so").write_bytes(b"")
    built = _ckernel.build(source, _ckernel.COMPILER, flags)
    if built is None:
        pytest.skip("no C compiler: build looks up no cached library")
    assert built == tmp_path / f"{source.stem.lstrip('_')}-{key[:24]}.so"
    assert [p.name for p in tmp_path.iterdir()] == [built.name]


def test_the_c_struct_has_the_fields_of_the_rollout_structure():
    # struct rollout of the generated C and _ckernel.Rollout, field by field
    text = _ckernel.SOURCE.read_text()
    body = text[text.index("struct rollout {") :]
    body = body[len("struct rollout {") : body.index("};")]
    c_types = {ctypes.c_void_p: "void *", ctypes.c_double: "double ", ctypes.c_long: "long "}
    expected = [f"{c_types[t]}{name};" if t in c_types else f"double {name}[{t._length_}];"
                for name, t in _ckernel.Rollout._fields_]
    assert [line.strip() for line in body.strip().splitlines()] == expected


def test_importing_the_cli_compiles_nothing(tmp_path):
    # the libraries are built on a first rollout or table, never at import
    src = str(Path(_ckernel.__file__).resolve().parents[1])
    cache = tmp_path / "cache"
    cache.mkdir()
    env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(cache)}
    proc = subprocess.run([sys.executable, "-c", "import otbot.cli"], env=env, cwd=tmp_path)
    assert proc.returncode == 0
    assert list(cache.iterdir()) == []


def test_sources_sit_next_to_the_module_and_ship_as_package_data():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        shipped = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["otbot"]
    for source in (_ckernel.SOURCE, _ckernel.FORMATTER_SOURCE, _ckernel.NOISE_SOURCE):
        assert source.parent == Path(_ckernel.__file__).parent and source.is_file()
        assert any(fnmatch.fnmatch(source.name, pattern) for pattern in shipped), source.name


def _spelled(format_rows, table: np.ndarray, eol: bytes) -> bytes:
    """``format_rows`` of a whole float64 table in one call."""
    rows, cols = table.shape
    out = np.empty(rows * (_ckernel.CELL_BYTES * cols + len(eol)), dtype=np.uint8)
    n = format_rows(table.ctypes.data, rows, cols, eol, len(eol), out.ctypes.data, out.size)
    assert n >= 0
    return out[:n].tobytes()


def _repr_rows(table: np.ndarray, eol: str) -> bytes:
    """The oracle: every row joined from ``repr`` in Python."""
    return "".join(",".join(map(repr, row)) + eol for row in table.tolist()).encode()


def test_formatter_spells_random_bit_patterns_as_repr(formatter):
    bits = np.random.default_rng(11).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    table = bits.view(np.float64).reshape(-1, 8)
    assert _spelled(formatter, table, b"\n") == _repr_rows(table, "\n")


def _bits_around(value: float, n: int) -> np.ndarray:
    """The n doubles below ``value``, ``value`` and the n above it."""
    bits = np.array([value]).view(np.int64)[0] + np.arange(-n, n + 1, dtype=np.int64)
    return bits.view(np.float64)


def test_formatter_spells_the_edge_cases_as_repr(formatter):
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    rng = np.random.default_rng(3)
    subnormals = rng.integers(1, 2**52, size=100_000, dtype=np.int64).view(np.float64)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        twos, np.nextafter(twos, np.inf), np.nextafter(twos, 0.0),
        subnormals, _bits_around(np.finfo(float).tiny, 1000),
        # around 1e16 fixed notation gives way to exponents; 2**53 ends the integers
        np.arange(10**16 - 3000, 10**16 + 3000, dtype=np.int64).astype(np.float64),
        _bits_around(1e16, 1000), _bits_around(2.0**53, 1000),
        # around 1e-4 exponents take over from fixed notation
        _bits_around(1e-4, 1000), _bits_around(1e-5, 1000),
        np.array([0.0, np.inf, 1.0, 0.1, np.finfo(float).max]), nans,
    ])
    table = np.concatenate([values, -values]).reshape(-1, 1)
    assert np.isnan(table).sum() == 8 and np.signbit(table[np.isnan(table)]).sum() == 4
    spelled = _spelled(formatter, table, b"\n")
    assert spelled == _repr_rows(table, "\n")
    assert b"-0.0\n" in spelled and b"-nan" not in spelled


def test_formatter_spells_powers_of_ten_and_their_neighbours_as_repr(formatter):
    # the decimal exponent steps at each power of ten; Schubfach's scaling too
    values = np.concatenate([_bits_around(float(f"1e{k}"), 1000) for k in range(-323, 309)])
    values = values[np.isfinite(values)]  # above 1e308 lies inf
    table = np.concatenate([values, -values]).reshape(-1, 8)
    assert _spelled(formatter, table, b"\n") == _repr_rows(table, "\n")


def test_formatter_spells_integers_as_repr(formatter):
    # the integer path: every double below 2**53 that is a whole number
    values = np.concatenate([np.arange(10**6 + 1), 2**53 + np.arange(-1000, 1001)]).astype(np.float64)
    table = values.reshape(-1, 2)
    assert _spelled(formatter, table, b"\n") == _repr_rows(table, "\n")


def test_formatter_powers_of_ten_are_the_rounded_up_128_bit_scalings(formatter):
    # row k - k_min of the table load_formatter binds is g = ceil(10^k / 2^e),
    # e = floor(log2 10^k) - 127, for the k the library exports
    lib = ctypes.CDLL(str(_ckernel.build(_ckernel.FORMATTER_SOURCE, _ckernel.COMPILER,
                                         _ckernel.FORMATTER_FLAGS)))
    k_min, k_max = (ctypes.c_int.in_dll(lib, name).value for name in ("POW10_K_MIN", "POW10_K_MAX"))
    # to_decimal reads row -floor_log10_pow2(q, closer_below) - k_min for the
    # exponent q of a double; closer_below only on normals above the smallest
    reads = {-((q * 1262611 - 524031 * closer) >> 22)
             for q in range(-1074, 972) for closer in ((0, 1) if q > -1074 else (0,))}
    assert reads == set(range(k_min, k_max + 1))
    table = formatter.args[0]
    assert len(table) == k_max - k_min + 1
    for k, (hi, lo) in zip(range(k_min, k_max + 1), table):
        g = hi << 64 | lo
        e = ((k * 1741647) >> 19) - 127  # the C's floor_log2_pow10(k) - 127
        assert 2**127 <= g < 2**128, k
        assert (g - 1) * Fraction(2) ** e < Fraction(10) ** k <= g * Fraction(2) ** e, k


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_write_csv_blocks_match_the_python_rows(formatter, tmp_path, line_end):
    block = simulate._BLOCK_ROWS
    rng = np.random.default_rng(5)
    # the longest spelling fills every cell, so every block fills its buffer
    longest = -2.2250738585072014e-308
    assert len(repr(longest)) + 1 == _ckernel.CELL_BYTES
    for rows in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        times = np.arange(rows) * 1e-3
        states = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-8, 20, (rows, 3))
        fill = np.full((rows, 2), longest)
        path = tmp_path / f"{rows}.csv"
        write_csv(path, ["t", "a", "b", "c", "d", "e"], [times, states, fill], line_end=line_end)
        table = np.column_stack([times, states, fill])
        expected = ("t,a,b,c,d,e" + line_end).encode() + _repr_rows(table, line_end)
        assert path.read_bytes() == expected, rows


def test_formatter_refuses_a_buffer_a_row_might_overflow(formatter):
    longest = -2.2250738585072014e-308
    table = np.full((3, 4), longest)
    line = ",".join([repr(longest)] * 4).encode() + b"\r\n"
    bound = _ckernel.CELL_BYTES * 4 + 2  # what a row of 4 doubles may take
    assert len(line) == bound - 1  # no separator after the last cell
    out = np.full(3 * bound, 0xAB, dtype=np.uint8)

    def spell(rows, size):
        return formatter(table.ctypes.data, rows, 4, b"\r\n", 2, out.ctypes.data, size)

    assert spell(3, 2 * len(line) + bound) == 3 * len(line)
    assert out[: 3 * len(line)].tobytes() == line * 3
    out[:] = 0xAB
    # the third row is refused where its bound does not fit, and nothing is written past two rows
    assert spell(3, 2 * len(line) + bound - 1) == -1
    assert out[: 2 * len(line)].tobytes() == line * 2 and (out[2 * len(line) :] == 0xAB).all()
    assert spell(1, bound - 1) == -1 and spell(0, 0) == 0


def test_write_csv_raises_where_its_buffer_is_sized_too_small(formatter, tmp_path, monkeypatch):
    # a bound one byte short: a full block of the longest spelling would overflow
    monkeypatch.setattr(_ckernel, "CELL_BYTES", _ckernel.CELL_BYTES - 1)
    column = np.full(simulate._BLOCK_ROWS, -2.2250738585072014e-308)
    with pytest.raises(RuntimeError, match="CSV formatter"):
        write_csv(tmp_path / "t.csv", ["a"], [column])
