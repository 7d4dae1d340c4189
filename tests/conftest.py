import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from otbot import _ckernel
from otbot.dynamics import admissible_state
from otbot.integrator import _compiled_robot_attempt
from otbot.params import frictionless, nominal_params

settings.register_profile(
    "numerics",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("numerics")


@pytest.fixture(scope="session")
def params():
    return nominal_params()


@pytest.fixture(scope="session")
def params_nf():
    """Nominal parameters with friction removed (tracking studies)."""
    return frictionless(nominal_params())


@pytest.fixture
def python_kernel(monkeypatch):
    """Force the Python DP5 kernel for the robot: the C builder finds no compiler."""
    monkeypatch.setattr(_ckernel, "build", lambda: None)
    _compiled_robot_attempt.cache_clear()
    yield
    monkeypatch.undo()
    _compiled_robot_attempt.cache_clear()


def random_q(rng: np.random.Generator) -> np.ndarray:
    q = rng.uniform(-2.0, 2.0, size=6)
    q[2:] = rng.uniform(-np.pi, np.pi, size=4)
    return q


def random_admissible(params, rng: np.random.Generator):
    """State with wheel/pivot rates consistent with a random task velocity."""
    return admissible_state(params, random_q(rng), dp=rng.uniform(-1.0, 1.0, size=3))
