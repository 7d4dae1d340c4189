from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from otbot import _ckernel
from otbot.dynamics import admissible_state
from otbot.params import PARAM_FIELDS, nominal_params

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

    Robot and shaft rollouts then run on the Python integrator, CSV rows
    are joined from ``repr`` in Python and sensor noise is drawn through
    ``numpy.random``.
    """
    loaders = (_ckernel.load, _ckernel.load_formatter, _ckernel.load_noise)
    monkeypatch.setattr(_ckernel, "build", lambda *library: None)
    for loader in loaders:
        loader.cache_clear()
    yield
    monkeypatch.undo()
    for loader in loaders:
        loader.cache_clear()


def spy_runs(monkeypatch) -> list | None:
    """The events ``(i, j)`` of each call of the compiled loop's ``run``
    (``_ckernel.load()``), recorded from now on through ``monkeypatch``;
    None where the loop cannot be loaded. A rollout on the C calls it
    once, for all its events."""
    kernel = _ckernel.load()
    if kernel is None:
        return None
    run, ddot, dgemv = kernel
    calls = []

    def spy(c, i, j):
        calls.append((i, j))
        return run(c, i, j)

    monkeypatch.setattr(_ckernel, "load", lambda: (spy, ddot, dgemv))
    return calls


def random_q(rng: np.random.Generator) -> np.ndarray:
    q = rng.uniform(-2.0, 2.0, size=6)
    q[2:] = rng.uniform(-np.pi, np.pi, size=4)
    return q


def random_admissible(params, rng: np.random.Generator):
    """State with wheel/pivot rates consistent with a random task velocity."""
    return admissible_state(params, random_q(rng), dp=rng.uniform(-1.0, 1.0, size=3))


def save_params(params, path) -> None:
    """Write ``params`` as the ``key = value`` file that ``load_params`` reads."""
    lines = [f"{name} = {getattr(params, name)!r}" for name in PARAM_FIELDS]
    Path(path).write_text("\n".join(lines) + "\n")
