"""The compiled DP5 attempt of the robot against the Python kernel, its oracle.

``dp5_robot_attempt`` (``src/otbot/_dp5_robot.c``) must give the same bits
as the generated Python kernel, fail where the Python kernel raises, and
leave every rollout unchanged when it cannot be built.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from otbot import integrator
from otbot.integrator import (
    IntegratorOptions,
    IntegratorStats,
    _CompiledAttempt,
    _PythonAttempt,
    _compiled_robot_attempt,
    _step_kernel,
    advance_segment,
)
from otbot.params import PARAM_FIELDS, nominal_params
from otbot.simulate import (
    ControlSequence,
    DisturbanceSchedule,
    ForcePulse,
    _robot_model,
    simulate_robot,
)
from otbot.dynamics import admissible_state


@pytest.fixture
def compiled():
    """The C attempt; the test is skipped where it cannot be built."""
    run = _compiled_robot_attempt()
    if run is None:
        pytest.skip("no working C compiler (cc): the compiled DP5 attempt cannot be built")
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


def _both(f, y, k1, h, rtol, atol, run):
    c = _CompiledAttempt(run, f, np.array(y), k1, rtol, atol)
    py = _PythonAttempt(f, np.array(y), k1, rtol, atol)
    return c, c(0.0, h), py, py(0.0, h)


def test_compiled_attempt_equals_the_python_kernel(compiled):
    rng = np.random.default_rng(7)
    step = _step_kernel(12)
    for _ in range(3000):
        p = _params(rng)
        u = rng.uniform(-40.0, 40.0, 3).tolist()
        force = (rng.uniform(-80.0, 80.0, 2) * rng.integers(2)).tolist()
        f = _robot_model(p)(u, force)
        y = _state(rng)
        k1 = f(0.0, y)
        h = float(10.0 ** rng.uniform(-6.0, -0.5))
        rtol, atol = float(10.0 ** rng.uniform(-11.0, -5.0)), float(10.0 ** rng.uniform(-14.0, -8.0))

        c, c_norm, py, py_norm = _both(f, y, k1, h, rtol, atol, compiled)
        y_new, k7, err = step(f, 0.0, h, y, k1)
        ratio = [
            e / (atol + rtol * (a if a > b or a != a else b))
            for e, a, b in zip(err, map(abs, y), map(abs, y_new))
        ]
        assert c.ratio.tolist() == ratio
        assert c_norm == py_norm
        c.accept()
        py.accept()
        c_y, c_k7 = c.result()
        assert c_y.tolist() == y_new
        assert c_k7.tolist() == k7
        py_y, _ = py.result()
        assert (c_y == py_y).all()


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
def test_where_python_raises_the_compiled_attempt_stops_and_python_raises(compiled, change, error):
    p = nominal_params().as_dict()
    p.update({k: v for k, v in change.items() if k in p})
    f = _robot_model(SimpleNamespace(**p))([5.0, -3.0, 2.0], [1.0, 0.0])
    y = [0.1, 0.2, change.get("alpha", 0.3), 0.0, 0.0, change.get("phi_p", 0.1)] + [0.5] * 6
    k1 = [0.0] * 12
    c = _CompiledAttempt(compiled, f, np.array(y), k1, 1e-9, 1e-12)
    assert compiled(f.block, 1e-3, 1e-9, 1e-12, *c.orders[0], c.ratio_at) != 0
    for attempt in (_PythonAttempt, lambda *a: _CompiledAttempt(compiled, *a)):
        with pytest.raises(error):
            attempt(f, np.array(y), k1, 1e-9, 1e-12)(0.0, 1e-3)
    with pytest.raises(error):
        advance_segment(f, 0.0, 0.01, np.array(y), IntegratorOptions(), IntegratorStats(),
                        h_start=1e-3, k1=k1)


def test_a_zero_error_scale_is_an_infinite_norm_on_both_kernels(compiled):
    # at rest, unforced, with atol = 0: every scale is zero
    f = _robot_model(nominal_params())([0.0, 0.0, 0.0], [0.0, 0.0])
    y = [0.0] * 12
    k1 = f(0.0, y)
    c, c_norm, py, py_norm = _both(f, y, k1, 1e-3, 1e-9, 0.0, compiled)
    assert c_norm == py_norm == math.inf


def _rollout():
    p = nominal_params()
    state = admissible_state(p, np.array([0.1, -0.2, 0.3, 0.0, 0.0, 0.2]), dp=np.array([0.2, -0.1, 0.3]))
    rng = np.random.default_rng(3)
    controls = ControlSequence(t0=0.0, dt=0.01, samples=rng.uniform(-10.0, 10.0, (60, 3)))
    pulses = DisturbanceSchedule((ForcePulse(0.123, 0.3, fx=40.0, fy=-25.0),))
    before = dict(integrator.robot_segments)
    traj = simulate_robot(p, state, controls, disturbances=pulses)
    ran = {k: integrator.robot_segments[k] - before[k] for k in before}
    return traj, ran


def test_forced_fallback_gives_the_same_rollout(compiled, request):
    c, c_ran = _rollout()
    assert c_ran["c"] > 0 and c_ran["python"] == 0
    request.getfixturevalue("python_kernel")
    py, py_ran = _rollout()
    assert py_ran == {"c": 0, "python": c_ran["c"]}
    for name in ("times", "states", "derivs", "controls"):
        assert np.array_equal(getattr(c, name), getattr(py, name)), name
    assert c.stats == py.stats


def test_build_falls_back_to_a_process_directory_and_to_python(compiled, tmp_path, monkeypatch):
    from otbot import _ckernel

    # a cache path below a regular file cannot be created
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "file" / "otbot")
    built = _ckernel.build()
    assert built is not None and built.is_file()
    assert tmp_path not in built.parents
    assert _ckernel.load() is not None

    # a writable cache is filled once and then reused
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "cache")
    first = _ckernel.build()
    assert first.parent == tmp_path / "cache"
    assert [p.name for p in first.parent.iterdir()] == [first.name]
    assert _ckernel.build() == first

    # a compiler that fails selects the Python kernel
    failing = tmp_path / "cc"
    failing.write_text("#!/bin/sh\nexit 1\n")
    failing.chmod(0o755)
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "other")
    monkeypatch.setattr(_ckernel, "COMPILER", str(failing))
    assert _ckernel.build() is None and _ckernel.load() is None
    assert list((tmp_path / "other").iterdir()) == []
