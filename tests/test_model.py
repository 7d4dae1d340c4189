import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otbot.model import (
    constraint_jacobian,
    coriolis_matrix,
    fik_matrix,
    holonomic_residual,
    iik_matrix,
    iik_matrix_rate,
    jacobian_time_derivative,
    lambda_delta,
    mass_matrix,
)
from otbot.params import nominal_params


def _arr(*vals: float) -> np.ndarray:
    return np.array(vals, dtype=float)


_angle = st.floats(-math.pi, math.pi)
_coord = st.floats(-2.0, 2.0)
_rate = st.floats(-3.0, 3.0)

q_vectors = st.builds(_arr, _coord, _coord, _angle, _angle, _angle, _angle)
dq_vectors = st.builds(_arr, _rate, _rate, _rate, _rate, _rate, _rate)

# Mass-matrix checks run against a second parameter set with every centre of
# mass offset non-zero, so terms that vanish at the catalogue values still get
# exercised.
SKEWED = nominal_params().replace(yB=0.07, xF=0.05, yF=-0.04, mp=146.95, Ip=3.1)
PARAM_SETS = [nominal_params(), SKEWED]


def point_mass_energy(p, q, dq):
    """Kinetic energy from first principles: two offset rigid bodies plus rotors.

    Written against centre-of-mass velocities only, with no reference to the
    matrix under test, so it serves as an independent oracle.
    """
    x, y, alpha, _, _, phi_p = q
    dx, dy, dalpha, dphi_r, dphi_l, dphi_p = dq
    th = alpha - phi_p
    dth = dalpha - dphi_p
    vbx = dx + dth * (-p.xB * math.sin(th) - p.yB * math.cos(th))
    vby = dy + dth * (p.xB * math.cos(th) - p.yB * math.sin(th))
    vfx = dx + dalpha * (-p.xF * math.sin(alpha) - p.yF * math.cos(alpha))
    vfy = dy + dalpha * (p.xF * math.cos(alpha) - p.yF * math.sin(alpha))
    return (
        0.5 * p.mc * (vbx * vbx + vby * vby)
        + 0.5 * p.Ic * dth * dth
        + 0.5 * p.mp * (vfx * vfx + vfy * vfy)
        + 0.5 * p.Ip * dalpha * dalpha
        + 0.5 * p.Ia * (dphi_r * dphi_r + dphi_l * dphi_l)
    )


def mass_gradients(p, q, h=1e-6):
    """grads[k] = dM/dq_k by central differences."""
    grads = np.empty((6, 6, 6))
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        grads[k] = (mass_matrix(p, q + e) - mass_matrix(p, q - e)) / (2.0 * h)
    return grads


@pytest.mark.parametrize("p", PARAM_SETS)
@given(q=q_vectors, dq=dq_vectors)
def test_mass_matrix_matches_point_mass_energy(p, q, dq):
    t = 0.5 * dq @ mass_matrix(p, q) @ dq
    assert t == pytest.approx(point_mass_energy(p, q, dq), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("p", PARAM_SETS)
@given(q=q_vectors)
def test_mass_matrix_symmetric_positive_definite(p, q):
    m = mass_matrix(p, q)
    assert np.array_equal(m, m.T)
    assert np.linalg.eigvalsh(m).min() > 0.0


@pytest.mark.parametrize("p", PARAM_SETS)
@given(q=q_vectors, dq=dq_vectors)
def test_coriolis_matches_christoffel_force(p, q, dq):
    # Gauge-free check: whatever C convention is used, C dq must equal the
    # quadratic velocity force from the Christoffel symbols of M.
    grads = mass_gradients(p, q)
    first = np.einsum("kij,k,j->i", grads, dq, dq)
    second = 0.5 * np.einsum("ijk,j,k->i", grads, dq, dq)
    force = coriolis_matrix(p, q, dq) @ dq
    np.testing.assert_allclose(force, first - second, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("p", PARAM_SETS)
@given(q=q_vectors, dq=dq_vectors)
def test_mass_rate_minus_twice_coriolis_is_skew(p, q, dq):
    h = 1e-6
    dm = (mass_matrix(p, q + h * dq) - mass_matrix(p, q - h * dq)) / (2.0 * h)
    s = dm - 2.0 * coriolis_matrix(p, q, dq)
    np.testing.assert_allclose(s + s.T, np.zeros((6, 6)), atol=1e-6)


def test_coriolis_only_couples_planar_rows():
    p = SKEWED
    q = _arr(0.3, -0.8, 1.1, 0.4, -0.9, 0.6)
    dq = _arr(0.5, -0.2, 1.3, 2.0, -1.0, 0.7)
    c = coriolis_matrix(p, q, dq)
    assert np.all(c[2:] == 0.0)
    assert np.all(c[:, [0, 1, 3, 4]] == 0.0)


def test_nominal_mass_entries():
    p = nominal_params()
    q = _arr(0.4, -1.1, 0.9, 0.3, -0.2, 0.35)
    m = mass_matrix(p, q)
    jc = 109.14 * 0.13**2 + 1.30
    th = 0.9 - 0.35
    assert m[0, 0] == pytest.approx(131.09, abs=1e-12)
    assert m[1, 1] == pytest.approx(131.09, abs=1e-12)
    assert m[2, 2] == pytest.approx(jc + 2.22, abs=1e-12)
    assert m[2, 5] == pytest.approx(-jc, abs=1e-12)
    assert m[5, 5] == pytest.approx(jc, abs=1e-12)
    assert m[2, 2] == pytest.approx(5.364466, abs=1e-9)
    assert m[5, 5] == pytest.approx(3.144466, abs=1e-9)
    # With yB = xF = yF = 0 the only pose-dependent couplings left are the
    # chassis offset against heading.
    assert m[0, 5] == pytest.approx(109.14 * -0.13 * math.sin(th), abs=1e-12)
    assert m[1, 5] == pytest.approx(109.14 * 0.13 * math.cos(th), abs=1e-12)
    assert m[0, 2] == -m[0, 5]
    assert m[3, 3] == m[4, 4] == 1.04e-2


@given(q=q_vectors)
def test_fik_determinant_is_constant(q):
    p = nominal_params()
    det = np.linalg.det(fik_matrix(p, q))
    assert det == pytest.approx(-p.l1 * p.r**2 / (2.0 * p.l2), rel=1e-12)
    assert det == pytest.approx(-6.25e-3, rel=1e-12)


@given(q=q_vectors)
def test_fik_and_iik_are_inverses(q):
    p = nominal_params()
    prod = fik_matrix(p, q) @ iik_matrix(p, q)
    np.testing.assert_allclose(prod, np.eye(3), atol=1e-12)


@given(q=q_vectors, dq=dq_vectors)
def test_iik_rate_matches_finite_difference(q, dq):
    p = nominal_params()
    h = 1e-6
    fd = (iik_matrix(p, q + h * dq) - iik_matrix(p, q - h * dq)) / (2.0 * h)
    np.testing.assert_allclose(iik_matrix_rate(p, q, dq), fd, atol=1e-6)


@given(q=q_vectors, dq=dq_vectors)
def test_jacobian_rate_matches_finite_difference(q, dq):
    p = nominal_params()
    h = 1e-6
    fd = (constraint_jacobian(p, q + h * dq) - constraint_jacobian(p, q - h * dq)) / (2.0 * h)
    np.testing.assert_allclose(jacobian_time_derivative(p, q, dq), fd, atol=1e-6)


@given(q=q_vectors)
def test_lambda_delta_parameterise_the_constraint_null_space(q):
    p = nominal_params()
    jac = constraint_jacobian(p, q)
    lam, delta = lambda_delta(p, q)
    np.testing.assert_allclose(jac @ delta, np.zeros((3, 3)), atol=1e-12)
    np.testing.assert_allclose(jac @ lam, np.zeros((3, 3)), atol=1e-12)
    e = np.vstack([np.zeros((3, 3)), np.eye(3)])
    np.testing.assert_allclose(delta.T @ e, np.eye(3), atol=1e-12)
    # Lam and Delta chain through each other: task -> joint -> task is identity.
    np.testing.assert_allclose(fik_matrix(p, q) @ iik_matrix(p, q), np.eye(3), atol=1e-12)


@given(q=q_vectors, w=st.builds(_arr, _rate, _rate, _rate))
def test_holonomic_combination_is_constant_along_admissible_steps(q, w):
    # The integrated constraint is linear in q, so a finite step along the
    # admissible columns keeps it exactly constant, not just to first order.
    p = nominal_params()
    _, delta = lambda_delta(p, q)
    assert holonomic_residual(p, q + delta @ w, q) == pytest.approx(0.0, abs=1e-12)
    assert holonomic_residual(p, q, q) == 0.0


def test_holonomic_residual_tracks_violations():
    p = nominal_params()
    q0 = np.zeros(6)
    q = q0.copy()
    q[2] += 0.3
    assert holonomic_residual(p, q, q0) == pytest.approx(0.3)
    q = q0.copy()
    q[3] += 1.0
    assert holonomic_residual(p, q, q0) == pytest.approx(-p.r / (2 * p.l2))


@given(q=q_vectors, dq=dq_vectors)
def test_constraint_rows_annihilate_lifted_velocities(q, dq):
    # Project an arbitrary velocity onto the admissible set via Delta, then
    # check the constraint residual really vanishes there.
    p = nominal_params()
    _, delta = lambda_delta(p, q)
    admissible = delta @ dq[3:]
    np.testing.assert_allclose(
        constraint_jacobian(p, q) @ admissible, np.zeros(3), atol=1e-12
    )
