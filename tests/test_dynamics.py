import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_admissible, random_q
from hypothesis import given
from hypothesis import strategies as st

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
    scale = float(np.max(np.abs(oracle)))
    diff = float(np.max(np.abs(fast - oracle)))
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


def test_generated_task_space_module_matches_its_generator():
    # The headers pin the generator by hash; a stale module or C file means
    # `python scripts/gen_task_space.py` was not rerun after an edit.
    digest = hashlib.sha256((ROOT / "scripts" / "gen_task_space.py").read_bytes()).hexdigest()
    module = Path(otbot._task_space.__file__)
    for path, comment in ((module, "#"), (module.with_name("_dp5_robot.c"), "//")):
        header = path.read_text().splitlines()[:3]
        assert header[0] == f"{comment} Generated by scripts/gen_task_space.py; do not edit by hand."
        assert header[1] == f"{comment} generator sha256: {digest}"
        assert header[2].startswith(f"{comment} sympy ")


def test_generator_check_finds_both_files_up_to_date():
    # regenerates in memory: also catches a hand edit of the C body and a
    # _ckernel.Rollout field that the C struct does not have
    pytest.importorskip("sympy")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "gen_task_space.py"), "--check"],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_runtime_does_not_import_sympy():
    code = "import sys, otbot.cli; sys.exit('sympy' in sys.modules)"
    src = str(Path(otbot._task_space.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, cwd=ROOT)
    assert proc.returncode == 0
