import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from otbot import _ckernel
from otbot.dynamics import admissible_state
from otbot.params import nominal_params
from otbot.simulate import _csv_formatter, _rollout_kernel

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
    return nominal_params().replace(bw=0.0, bp=0.0)


@pytest.fixture
def python_kernel(monkeypatch):
    """Force the Python fallbacks: the C builder finds no compiler.

    Robot and shaft rollouts then run on the Python integrator and CSV
    rows are joined from ``repr`` in Python.
    """
    monkeypatch.setattr(_ckernel, "build", lambda *library: None)
    _rollout_kernel.cache_clear()
    _csv_formatter.cache_clear()
    yield
    monkeypatch.undo()
    _rollout_kernel.cache_clear()
    _csv_formatter.cache_clear()


def random_q(rng: np.random.Generator) -> np.ndarray:
    q = rng.uniform(-2.0, 2.0, size=6)
    q[2:] = rng.uniform(-np.pi, np.pi, size=4)
    return q


def random_admissible(params, rng: np.random.Generator):
    """State with wheel/pivot rates consistent with a random task velocity."""
    return admissible_state(params, random_q(rng), dp=rng.uniform(-1.0, 1.0, size=3))
