import ast
import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_admissible, random_q
from hypothesis import example, given
from hypothesis import strategies as st

import otbot._task_sensitivity
import otbot._task_space

from otbot.dynamics import (
    AdmissibilityWarning,
    RobotState,
    admissible_acceleration,
    admissible_state,
    constraint_violation,
    forward_dynamics,
    forward_dynamics_conventional,
    friction_coefficients,
    input_matrix,
    inverse_dynamics,
    inverse_dynamics_conventional,
    pivot_force_vector,
    state_derivative,
    task_space_model,
)
from otbot.model import (
    constraint_jacobian,
    coriolis_matrix,
    iik_matrix_rate,
    jacobian_time_derivative,
    lambda_delta,
    mass_matrix,
)
from otbot.params import nominal_params
from otbot.simulate import shaft_derivative

ROOT = Path(__file__).resolve().parents[1]


def _arr(*vals: float) -> np.ndarray:
    return np.array(vals, dtype=float)


def _scaled_params(l1, l2, r, mc, mp, ic, ip, ia, xb, yb, xf, yf, bw, bp):
    n = nominal_params()
    return n.replace(
        l1=n.l1 * l1, l2=n.l2 * l2, r=n.r * r, mc=n.mc * mc, mp=n.mp * mp,
        Ic=n.Ic * ic, Ip=n.Ip * ip, Ia=n.Ia * ia, xB=xb, yB=yb, xF=xf, yF=yf, bw=bw, bp=bp,
    )


# Parameter sets around the catalogue values: every length, mass and inertia
# scaled by up to a factor two either way, every centre of mass offset and
# friction coefficient drawn afresh, so no term vanishes by accident.
_scale = st.floats(0.5, 2.0)
_offset = st.floats(-0.2, 0.2)
_friction = st.floats(0.0, 0.5)
param_sets = st.builds(
    _scaled_params, *[_scale] * 8, *[_offset] * 4, _friction, _friction
)
_angle = st.floats(-math.pi, math.pi)
_coord = st.floats(-2.0, 2.0)
_speed = st.floats(-1.0, 1.0)
_torque = st.floats(-20.0, 20.0)
_force = st.floats(-50.0, 50.0)
q_vectors = st.builds(_arr, _coord, _coord, _angle, _angle, _angle, _angle)
dp_vectors = st.builds(_arr, _speed, _speed, _speed)
u_vectors = st.builds(_arr, _torque, _torque, _torque)
forces = st.one_of(st.none(), st.builds(_arr, _force, _force))


def _rel_err(fast: np.ndarray, oracle: np.ndarray) -> float:
    """The largest difference relative to the oracle's largest magnitude. A
    difference of at most the smallest normal double counts as none: below
    it, a 1e-12 relative bound is finer than doubles resolve."""
    scale = float(np.max(np.abs(oracle)))
    diff = float(np.max(np.abs(fast - oracle)))
    if diff <= np.finfo(float).tiny:
        return 0.0
    return diff if scale == 0.0 else diff / scale


def test_robot_state_vector_round_trip():
    state = RobotState(q=np.arange(6.0), dq=-np.arange(6.0))
    again = RobotState.from_vector(state.as_vector())
    np.testing.assert_array_equal(again.q, state.q)
    np.testing.assert_array_equal(again.dq, state.dq)
    rest = RobotState.rest()
    assert np.all(rest.q == 0.0) and np.all(rest.dq == 0.0)


def test_input_matrix_targets_actuated_joints():
    e = input_matrix()
    u = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(e @ u, [0, 0, 0, 1.0, 2.0, 3.0])


def test_friction_coefficients_signs():
    ef = friction_coefficients(nominal_params())
    np.testing.assert_array_equal(ef[:3], 0.0)
    assert np.all(ef[3:] < 0.0)
    assert ef[3] == ef[4] == -0.18
    assert ef[5] == -0.24


def test_pivot_force_vector():
    np.testing.assert_array_equal(pivot_force_vector(None), np.zeros(6))
    qp = pivot_force_vector((2.0, -3.0))
    np.testing.assert_array_equal(qp, [2.0, -3.0, 0, 0, 0, 0])


def test_admissible_state_from_joint_rates():
    p = nominal_params()
    rng = np.random.default_rng(3)
    dphi = rng.uniform(-2.0, 2.0, size=3)
    state = admissible_state(p, random_q(rng), dphi=dphi)
    np.testing.assert_allclose(state.dq[3:], dphi, atol=1e-12)
    assert constraint_violation(p, state.q, state.dq) < 1e-12
    with pytest.raises(ValueError, match="not both"):
        admissible_state(p, np.zeros(6), dp=np.zeros(3), dphi=np.zeros(3))


def test_constraint_violation_measures_infinity_norm():
    p = nominal_params()
    rng = np.random.default_rng(4)
    q = random_q(rng)
    dq = rng.uniform(-1.0, 1.0, size=6)
    expected = np.max(np.abs(constraint_jacobian(p, q) @ dq))
    assert constraint_violation(p, q, dq) == pytest.approx(expected, rel=1e-15)


def test_forward_routes_agree():
    p = nominal_params()
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = random_admissible(p, rng)
        u = rng.uniform(-20.0, 20.0, size=3)
        fast = forward_dynamics(p, state.q, state.dq, u)
        ddq, lam = forward_dynamics_conventional(p, state.q, state.dq, u)
        np.testing.assert_allclose(fast, ddq, rtol=1e-9, atol=1e-11)
        assert lam.shape == (3,)


def test_forward_routes_agree_with_pivot_force():
    p = nominal_params()
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = random_admissible(p, rng)
        u = rng.uniform(-20.0, 20.0, size=3)
        f = rng.uniform(-50.0, 50.0, size=2)
        fast = forward_dynamics(p, state.q, state.dq, u, pivot_force=f)
        ddq, _ = forward_dynamics_conventional(p, state.q, state.dq, u, pivot_force=f)
        np.testing.assert_allclose(fast, ddq, rtol=1e-9, atol=1e-11)


def test_inverse_routes_agree():
    p = nominal_params()
    rng = np.random.default_rng(2)
    for _ in range(50):
        state = random_admissible(p, rng)
        ddq = admissible_acceleration(p, state.q, state.dq, rng.uniform(-3.0, 3.0, size=3))
        u_fast = inverse_dynamics(p, state.q, state.dq, ddq)
        u_conv, _ = inverse_dynamics_conventional(p, state.q, state.dq, ddq)
        np.testing.assert_allclose(u_fast, u_conv, rtol=1e-9, atol=1e-11)


def test_inverse_undoes_forward():
    p = nominal_params()
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = random_admissible(p, rng)
        u = rng.uniform(-20.0, 20.0, size=3)
        ddq = forward_dynamics(p, state.q, state.dq, u)
        np.testing.assert_allclose(
            inverse_dynamics(p, state.q, state.dq, ddq), u, rtol=1e-8, atol=1e-10
        )


def test_forward_undoes_inverse():
    p = nominal_params()
    rng = np.random.default_rng(6)
    for _ in range(50):
        state = random_admissible(p, rng)
        ddq = admissible_acceleration(p, state.q, state.dq, rng.uniform(-3.0, 3.0, size=3))
        u = inverse_dynamics(p, state.q, state.dq, ddq)
        np.testing.assert_allclose(
            forward_dynamics(p, state.q, state.dq, u), ddq, rtol=1e-8, atol=1e-10
        )


def test_multipliers_match_between_routes():
    p = nominal_params()
    rng = np.random.default_rng(7)
    state = random_admissible(p, rng)
    u = rng.uniform(-20.0, 20.0, size=3)
    ddq, lam_fwd = forward_dynamics_conventional(p, state.q, state.dq, u)
    u_back, lam_inv = inverse_dynamics_conventional(p, state.q, state.dq, ddq)
    np.testing.assert_allclose(u_back, u, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(lam_inv, lam_fwd, rtol=1e-8, atol=1e-9)


def test_power_balance_along_admissible_motion():
    # d/dt T = dq . (E u + Ef dq + Qp): the constraint force is workless and
    # the Coriolis term drops out by skew symmetry. Catches sign errors in the
    # friction map that route-equivalence tests cannot see.
    p = nominal_params()
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        state = random_admissible(p, rng)
        u = rng.uniform(-20.0, 20.0, size=3)
        f = rng.uniform(-30.0, 30.0, size=2)
        ddq = forward_dynamics(p, state.q, state.dq, u, pivot_force=f)
        dm = (
            mass_matrix(p, state.q + h * state.dq) - mass_matrix(p, state.q - h * state.dq)
        ) / (2.0 * h)
        t_dot = state.dq @ mass_matrix(p, state.q) @ ddq + 0.5 * state.dq @ dm @ state.dq
        ef = friction_coefficients(p)
        supplied = state.dq @ (input_matrix() @ u + ef * state.dq + pivot_force_vector(f))
        assert t_dot == pytest.approx(supplied, rel=1e-6, abs=1e-5)


def test_admissible_acceleration_keeps_constraint_differentiated():
    p = nominal_params()
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = random_admissible(p, rng)
        ddq = admissible_acceleration(p, state.q, state.dq, rng.uniform(-3.0, 3.0, size=3))
        j = constraint_jacobian(p, state.q)
        dj = jacobian_time_derivative(p, state.q, state.dq)
        np.testing.assert_allclose(j @ ddq + dj @ state.dq, np.zeros(3), atol=1e-10)


def test_forward_accelerations_are_admissible():
    p = nominal_params()
    rng = np.random.default_rng(10)
    state = random_admissible(p, rng)
    u = rng.uniform(-20.0, 20.0, size=3)
    ddq = forward_dynamics(p, state.q, state.dq, u)
    j = constraint_jacobian(p, state.q)
    dj = jacobian_time_derivative(p, state.q, state.dq)
    np.testing.assert_allclose(j @ ddq + dj @ state.dq, np.zeros(3), atol=1e-9)


def test_inadmissible_velocity_warns():
    p = nominal_params()
    q = np.zeros(6)
    dq = np.zeros(6)
    dq[0] = 1.0  # pure sideways slide, violates rolling
    with pytest.warns(AdmissibilityWarning):
        inverse_dynamics(p, q, dq, np.zeros(6))
    with pytest.warns(AdmissibilityWarning):
        inverse_dynamics_conventional(p, q, dq, np.zeros(6))


def test_admissible_velocity_does_not_warn():
    p = nominal_params()
    state = random_admissible(p, np.random.default_rng(11))
    ddq = admissible_acceleration(p, state.q, state.dq, np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverse_dynamics(p, state.q, state.dq, ddq)


def test_task_space_model_reproduces_conventional_accelerations():
    p = nominal_params()
    rng = np.random.default_rng(12)
    state = random_admissible(p, rng)
    u = rng.uniform(-20.0, 20.0, size=3)
    mbar, cbar = task_space_model(p, state.q, state.dq)
    ddp = np.linalg.solve(mbar, u - cbar @ state.dq[:3])
    ddq, _ = forward_dynamics_conventional(p, state.q, state.dq, u)
    np.testing.assert_allclose(ddp, ddq[:3], rtol=1e-9, atol=1e-11)


def test_state_derivative_layout():
    p = nominal_params()
    rng = np.random.default_rng(13)
    state = random_admissible(p, rng)
    u = rng.uniform(-20.0, 20.0, size=3)
    dx = state_derivative(p, state.as_vector(), u)
    np.testing.assert_array_equal(dx[:6], state.dq)
    np.testing.assert_allclose(dx[6:], forward_dynamics(p, state.q, state.dq, u), atol=0)


@given(p=param_sets, q=q_vectors, dp=dp_vectors, u=u_vectors, force=forces)
# a subnormal torque: exact zero accelerations against the oracle's subnormal ones
@example(p=nominal_params().replace(bw=0.0, bp=0.0), q=np.zeros(6), dp=np.zeros(3),
         u=_arr(0.0, 0.0, 2.2250738585e-313), force=None)
def test_closed_form_state_derivative_matches_the_kkt_oracle(p, q, dp, u, force):
    state = admissible_state(p, q, dp=dp)
    ddq, _ = forward_dynamics_conventional(p, state.q, state.dq, u, pivot_force=force)
    oracle = np.concatenate([state.dq, ddq])
    fast = state_derivative(p, state.as_vector(), u, pivot_force=force)
    assert _rel_err(fast, oracle) <= 1e-12


@given(p=param_sets, q=q_vectors, dp=dp_vectors)
def test_closed_form_task_space_model_matches_the_matrix_composition(p, q, dp):
    # Mbar = Delta^T M Lam and Cbar = Delta^T (M dLam + (C - Ef) Lam), built
    # here from the 6x6 model matrices
    state = admissible_state(p, q, dp=dp)
    lam, delta = lambda_delta(p, state.q)
    dlam = np.zeros((6, 3))
    dlam[3:] = iik_matrix_rate(p, state.q, state.dq)
    m = mass_matrix(p, state.q)
    c = coriolis_matrix(p, state.q, state.dq)
    ef = friction_coefficients(p)
    mbar_ref = delta.T @ m @ lam
    cbar_ref = delta.T @ (m @ dlam + c @ lam - ef[:, None] * lam)
    mbar, cbar = task_space_model(p, state.q, state.dq)
    assert _rel_err(mbar, mbar_ref) <= 1e-12
    assert _rel_err(cbar, cbar_ref) <= 1e-12


def test_the_sensitivity_rhs_are_the_derivatives_of_the_rhs():
    # robot_sensitivity and shaft_sensitivity: the rhs to the bit, then its
    # derivative along each lane's state sensitivity and parameter seeds
    rng = np.random.default_rng(3)
    seeded = otbot._task_space.SEEDED
    for _ in range(4):
        p = nominal_params().replace(xF=rng.uniform(-0.1, 0.1), yF=rng.uniform(-0.1, 0.1))
        x, s, dp = rng.uniform(-1.0, 1.0, 12), rng.uniform(-1.0, 1.0, 48), rng.uniform(-1.0, 1.0, 32)
        u, f = rng.uniform(-5.0, 5.0, 3).tolist(), rng.uniform(-5.0, 5.0, 2).tolist()
        out = otbot._task_sensitivity.robot_sensitivity(p, dp.tolist(), [*x, *s], *u, *f)
        assert list(out[:12]) == state_derivative(p, x.tolist(), u, f)
        for lane in range(4):
            def rhs(eps):
                moved = p.replace(**{n: getattr(p, n) + eps * dp[4 * k + lane] for k, n in enumerate(seeded)})
                return np.array(state_derivative(moved, (x + eps * s[lane::4]).tolist(), u, f))

            central = (rhs(1e-6) - rhs(-1e-6)) / 2e-6
            tangent = np.array(out[12 + lane :: 4])
            assert np.max(np.abs(tangent - central)) <= 1e-6 * np.max(np.abs(central)), lane
        inertia, damping = rng.uniform(0.01, 2.0, 2)
        y, dp = rng.uniform(-1.0, 1.0, 6), rng.uniform(-1.0, 1.0, 4)
        out = otbot._task_sensitivity.shaft_sensitivity(inertia, damping, dp.tolist(), y.tolist(), 3.0)
        assert list(out[:2]) == shaft_derivative(inertia, damping, y[:2].tolist(), 3.0)
        for lane in range(2):
            def shaft(eps):
                return np.array(shaft_derivative(inertia + eps * dp[lane], damping + eps * dp[2 + lane],
                                                 (y[:2] + eps * y[2 + lane :: 2]).tolist(), 3.0))

            central = (shaft(1e-6) - shaft(-1e-6)) / 2e-6
            assert np.max(np.abs(np.array(out[2 + lane :: 2]) - central)) <= 1e-6 * np.max(np.abs(central))


def test_generated_task_space_module_matches_its_generator():
    # The headers pin the generator by hash; a stale module or C file means
    # `python scripts/gen_task_space.py` was not rerun after an edit.
    digest = hashlib.sha256((ROOT / "scripts" / "gen_task_space.py").read_bytes()).hexdigest()
    module = Path(otbot._task_space.__file__)
    for path, comment in ((module, "#"), (Path(otbot._task_sensitivity.__file__), "#"),
                          (module.with_name("_dp5_robot.c"), "//")):
        header = path.read_text().splitlines()[:3]
        assert header[0] == f"{comment} Generated by scripts/gen_task_space.py; do not edit by hand."
        assert header[1] == f"{comment} generator sha256: {digest}"
        assert header[2].startswith(f"{comment} sympy ")


def test_generator_check_finds_every_generated_file_up_to_date():
    # regenerates in memory: also catches a hand edit of the C body and a
    # _ckernel.Rollout field that the C struct does not have
    pytest.importorskip("sympy")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "gen_task_space.py"), "--check"],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"src/otbot/{name} is up to date" for name in (
        "_task_space.py", "_task_sensitivity.py", "_dp5_robot.c")]


def test_generator_translator_refuses_what_the_c_cannot_hold(monkeypatch):
    # every generated C function passes through one translator; these are its refusals
    pytest.importorskip("sympy")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("gen_task_space", ROOT / "scripts" / "gen_task_space.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    cases = {
        "k = a * 2.0": "local 'k' cannot be a C local here",  # a C argument
        "tmp0 = a": "local 'tmp0' cannot be a C local here",  # a check's temporary
        "a = 1.0": "local 'a' cannot be a C local here",  # bound already
        "b = q + a": "unbound name 'q' in g",
        "b = a ** 2": "no C translation for 'a ** 2'",
        "b, c = a + 1.0": "no C translation for 'b, c = a + 1.0'",
        "a += 1.0": "no C translation for 'a += 1.0'",
    }
    for statement, message in cases.items():
        fn = ast.parse(f"def g(p, a):\n    {statement}\n").body[0]
        with pytest.raises(ValueError, match=re.escape(message)):
            gen._translate(fn, {"a": "a"}, "k[{}]".format)
    # the lanes of a tangent pair into vectors, and a refusal where they do not
    fn = ast.parse("def g(p, a, x):\n    b_d0 = a * x[2]\n    b_d1 = a * x[3]\n    return [b_d0, b_d1]\n").body[0]
    assert gen._translate(fn, {"a": "a", "x": "x"}, "k[{}]".format, lanes=2) == [
        "const lanes2 b_d01 = (a * (lanes2){x[2], x[3]});", "k[0] = b_d01[0];", "k[1] = b_d01[1];"]
    fn = ast.parse("def g(p, a, x):\n    b_d0 = a * x[2]\n    b_d1 = x[3] * a\n").body[0]
    with pytest.raises(ValueError, match="do not pair"):
        gen._translate(fn, {"a": "a", "x": "x"}, lanes=2)
    # a vector literal whose components differ only in their index is one loop
    fn = ast.parse("def g(p, a):\n    y_0, y_1 = a\n    v = [y_0 * 2.0, y_1 * 2.0]\n").body[0]
    assert gen._translate(fn, {"a": "a", "v": "v"}) == [
        "/* v */", "for (int j = 0; j < 2; j++) v[j] = (a[j] * 2.0);"]
    # a division and a sin test their operands once, and each returned value goes to its store
    fn = ast.parse("def g(p, a):\n    b = sin(a + 1.0) / a\n    return [b, a / a]\n").body[0]
    assert gen._translate(fn, {"a": "a"}, "k[{}]".format) == [
        "const double tmp0 = (a + 1.0);", "if (isinf(tmp0)) return 2;", "if (a == 0.0) return 1;",
        "const double b = (sin(tmp0) / a);", "k[0] = b;", "k[1] = (a / a);"]


def test_runtime_does_not_import_sympy():
    code = "import sys, otbot.cli; sys.exit('sympy' in sys.modules)"
    src = str(Path(otbot._task_space.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, cwd=ROOT)
    assert proc.returncode == 0
