import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from otbot import _ckernel
from otbot.dynamics import RobotState
from otbot.params import nominal_params
from otbot.sensors import (
    ENCODER_SIGMA,
    SensorModel,
    imu_truth,
    sample_sensors,
    standard_normal,
)
from otbot.simulate import ControlSequence, simulate_robot, simulate_shaft


@pytest.fixture(scope="module")
def robot_traj():
    controls = ControlSequence.constant([6.0, -10.0, 6.0], duration=0.5, rate=100.0)
    return simulate_robot(nominal_params(), RobotState.rest(), controls)


@pytest.fixture(scope="module")
def shaft_traj():
    controls = ControlSequence.constant([6.0], duration=0.5, rate=100.0)
    return simulate_shaft(1.04e-2, 0.18, controls)


def test_model_validation():
    with pytest.raises(ValueError, match="kind"):
        SensorModel(kind="lidar", sigma=0.1)
    with pytest.raises(ValueError, match="axis"):
        SensorModel(kind="encoder", sigma=0.1)
    with pytest.raises(ValueError, match="sigma"):
        SensorModel(kind="imu", sigma=-0.1)


def test_noise_free_encoder_returns_truth(shaft_traj):
    model = SensorModel(kind="encoder", sigma=0.0, axis=1)
    rec = sample_sensors(shaft_traj, model)
    np.testing.assert_array_equal(rec.values, shaft_traj.states[:, 1:2])
    np.testing.assert_array_equal(rec.times, shaft_traj.times)
    assert rec.kind == "encoder"


def test_seeded_noise_is_reproducible(shaft_traj):
    model = SensorModel(kind="encoder", sigma=ENCODER_SIGMA, axis=1)
    a = sample_sensors(shaft_traj, model, seed=42)
    b = sample_sensors(shaft_traj, model, seed=42)
    c = sample_sensors(shaft_traj, model, seed=43)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)
    assert a.values.shape == (len(shaft_traj.times), 1)


def test_noise_level_scales_with_sigma(shaft_traj):
    truth = shaft_traj.states[:, 1:2]
    devs = []
    for sigma in (0.01, 1.0):
        model = SensorModel(kind="encoder", sigma=sigma, axis=1)
        rec = sample_sensors(shaft_traj, model, seed=7)
        devs.append(np.std(rec.values - truth))
    # Same seed, so the draw is identical up to the scale factor.
    assert devs[1] == pytest.approx(100.0 * devs[0], rel=1e-12)
    assert devs[1] == pytest.approx(1.0, rel=0.3)


def test_imu_truth_channels(robot_traj):
    out = imu_truth(robot_traj)
    assert out.shape == (len(robot_traj.times), 3)
    # Third channel is the platform rate verbatim.
    np.testing.assert_array_equal(out[:, 2], robot_traj.states[:, 8])
    # The planar channels are a rotation: the acceleration magnitude survives.
    acc = robot_traj.accelerations[:, 0:2]
    np.testing.assert_allclose(
        np.hypot(out[:, 0], out[:, 1]), np.hypot(acc[:, 0], acc[:, 1]), atol=1e-12
    )


def test_imu_at_zero_platform_angle_is_world_frame(robot_traj):
    out = imu_truth(robot_traj)
    # The rollout starts with alpha = 0, so the first sample needs no rotation.
    assert robot_traj.states[0, 2] == 0.0
    np.testing.assert_allclose(out[0, 0:2], robot_traj.accelerations[0, 0:2], atol=1e-12)


def test_imu_sampling_uses_recorded_accelerations(robot_traj):
    model = SensorModel(kind="imu", sigma=0.0)
    rec = sample_sensors(robot_traj, model)
    np.testing.assert_array_equal(rec.values, imu_truth(robot_traj))


@pytest.fixture(scope="module")
def noise_library():
    """The compiled noise library; the test is skipped where it cannot be built."""
    if _ckernel.load_noise() is None:
        pytest.skip("no working C compiler (cc) or no libnpyrandom.a in numpy: "
                    "the noise library cannot be built")


@given(seed=st.integers(0, 2**130 - 1), rows=st.integers(0, 400),
       shape=st.sampled_from(["empty", "column", "three"]))
# seeds of one to seven 32-bit words, and draws enough to take the ziggurat's
# rare branches (its wedges and its tail)
@example(seed=0, rows=20000, shape="column")
@example(seed=2**32, rows=7000, shape="three")
@example(seed=2**200 + 7, rows=20000, shape="column")
def test_the_compiled_draw_has_the_bits_of_numpys(noise_library, seed, rows, shape):
    shape = {"empty": (0,), "column": (rows, 1), "three": (rows, 3)}[shape]
    drawn = standard_normal(seed, shape)
    expected = np.random.default_rng(seed).standard_normal(shape)
    assert drawn.shape == expected.shape and drawn.dtype == expected.dtype
    assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, np.float64(3.0)])
def test_a_seed_numpy_refuses_raises_as_numpy_does(noise_library, seed):
    with pytest.raises(Exception) as numpy_error:
        np.random.default_rng(seed)
    with pytest.raises(numpy_error.type):
        standard_normal(seed, (3,))


def test_an_unseeded_draw_differs_from_run_to_run(noise_library):
    assert not np.array_equal(standard_normal(None, (8,)), standard_normal(None, (8,)))


def test_without_the_noise_library_a_record_has_the_same_bytes(robot_traj, shaft_traj, monkeypatch):
    cases = [(robot_traj, SensorModel(kind="imu", sigma=13.73e-3), 3),
             (shaft_traj, SensorModel(kind="encoder", sigma=ENCODER_SIGMA, axis=1), 2**64 + 1)]
    compiled = [sample_sensors(traj, model, seed).values for traj, model, seed in cases]
    monkeypatch.setattr(_ckernel, "load_noise", lambda: None)
    for values, (traj, model, seed) in zip(compiled, cases):
        assert values.tobytes() == sample_sensors(traj, model, seed).values.tobytes()
