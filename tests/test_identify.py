import math

import numpy as np
import pytest

from otbot.identify import (
    Experiment,
    FitOptions,
    ParamEstimate,
    _predict_outputs,
    chassis_experiment,
    fit_trust_region,
    identify_basic,
    parameter_bounds,
    platform_guess,
    platform_shaft_experiment,
    prediction_error,
    run_pipeline,
    wheel_experiment,
)
from otbot.integrator import IntegratorOptions
from otbot.params import nominal_params
from otbot.sensors import SensorRecord


# --- solver machinery on analytic problems ---------------------------------


def test_linear_problem_converges_immediately():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    target = a @ np.array([1.0, 2.0])
    est = fit_trust_region(lambda p: a @ p - target, [0.0, 0.0])
    np.testing.assert_allclose(est.values, [1.0, 2.0], atol=1e-9)
    assert est.converged
    assert est.iterations <= 4
    assert est.loss < 1e-16


def test_rosenbrock_valley():
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    est = fit_trust_region(residual, [-1.2, 1.0])
    np.testing.assert_allclose(est.values, [1.0, 1.0], atol=1e-8)
    assert est.converged


def test_bounds_clip_the_estimate():
    est = fit_trust_region(lambda p: p - 5.0, [1.0], bounds=([0.0], [2.0]))
    assert est.values[0] == pytest.approx(2.0, abs=1e-9)


def test_threaded_jacobian_matches_serial(params):
    # A nonlinear shaft fit, where finite differences are inexact: threads
    # may only change the wall time, never the estimates or the evaluations.
    exp = wheel_experiment(params, seed=0)
    names = ("inertia", "damping")
    bounds = parameter_bounds(names)

    def fit(jobs):
        calls = []

        def residual(p):
            calls.append(None)
            return prediction_error(dict(zip(names, p)), {}, exp)[1]

        est = fit_trust_region(residual, [0.01, 0.09], bounds, FitOptions(jobs=jobs), names)
        return est, len(calls)

    (serial, serial_calls), (threaded, threaded_calls) = fit(1), fit(2)
    assert serial.iterations > 2
    assert (threaded.values == serial.values).all()
    assert threaded.loss == serial.loss
    assert (threaded.iterations, threaded_calls) == (serial.iterations, serial_calls)


def test_non_finite_initial_residual_raises():
    with pytest.raises(ValueError, match="initial guess"):
        fit_trust_region(lambda p: np.array([math.inf]), [1.0])


def test_param_estimate_lookup():
    est = ParamEstimate(names=("a", "b"), values=np.array([1.5, 2.5]), loss=0.0,
                        iterations=1, converged=True)
    assert est["b"] == 2.5
    assert est.as_dict() == {"a": 1.5, "b": 2.5}


def test_parameter_bounds_by_kind():
    lo, hi = parameter_bounds(("mc", "bw", "xB", "Ip"))
    np.testing.assert_array_equal(lo, [1e-3, 0.0, -1.0, 1e-6])
    np.testing.assert_array_equal(hi, [1e4, 1e3, 1.0, 1e4])


def test_platform_guess_uses_parallel_axis_shift():
    g = platform_guess(0.25, mp0=21.95, Ip0=2.22)
    assert g["mp"] == pytest.approx(146.95)
    assert g["xF"] == g["yF"] == pytest.approx(0.1125)
    assert g["Ip"] == pytest.approx(2.22 + 146.95 * 2.0 * 0.1125**2)


# --- experiments and the loss ----------------------------------------------


def test_experiment_window_mismatch_rejected(params):
    exp = wheel_experiment(params, sigma=0.0)
    short = SensorRecord(
        times=exp.record.times[:-5],
        values=exp.record.values[:-5],
        sigma=0.0,
        seed=None,
        kind="encoder",
    )
    with pytest.raises(ValueError, match="window"):
        Experiment(x0=np.zeros(2), controls=exp.controls, record=short,
                   sensor_model=exp.sensor_model)


def test_prediction_error_vanishes_at_the_truth(params):
    exp = wheel_experiment(params, sigma=0.0)
    loss, res = prediction_error({"inertia": params.Ia, "damping": params.bw}, {}, exp)
    assert loss < 1e-15
    assert np.max(np.abs(res)) < 1e-8


def test_unintegrable_candidate_scores_infinite(params):
    exp = wheel_experiment(params, sigma=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss, res = prediction_error({"inertia": 0.0, "damping": params.bw}, {}, exp)
    assert math.isinf(loss)
    assert np.all(np.isinf(res))


# --- shaft step --------------------------------------------------------------


def test_noise_free_shaft_fits_are_exact(params):
    est = identify_basic(
        wheel_experiment(params, sigma=0.0),
        platform_shaft_experiment(params, sigma=0.0),
    )
    assert est.converged
    assert est["Ia"] == pytest.approx(params.Ia, abs=1e-7)
    assert est["bw"] == pytest.approx(params.bw, abs=1e-7)
    assert est["Ip0"] == pytest.approx(params.Ip, abs=1e-6)
    assert est["bp"] == pytest.approx(params.bp, abs=1e-6)
    assert est.loss < 1e-12


def test_noisy_shaft_fit_reaches_the_noise_floor(params):
    est = identify_basic(
        wheel_experiment(params, seed=0),
        platform_shaft_experiment(params, seed=0),
    )
    assert est.converged
    assert abs(est["Ia"] - params.Ia) < 1e-3
    assert abs(est["bw"] - params.bw) < 1e-3
    assert abs(est["Ip0"] - params.Ip) < 5e-3
    assert abs(est["bp"] - params.bp) < 5e-3
    # 202 samples at sigma = 0.01: the converged loss sits near N * sigma^2.
    expected = 202 * 0.01**2
    assert 0.4 * expected < est.loss < 2.0 * expected


def test_recovery_error_grows_with_noise(params):
    errs = []
    for sigma in (0.01, 0.3):
        est = identify_basic(
            wheel_experiment(params, seed=5, sigma=sigma),
            platform_shaft_experiment(params, seed=5, sigma=sigma),
        )
        errs.append(abs(est["Ia"] - params.Ia) + abs(est["bw"] - params.bw))
    assert errs[1] > errs[0]


def test_far_initial_guess_still_converges(params):
    est = identify_basic(
        wheel_experiment(params, sigma=0.0),
        platform_shaft_experiment(params, sigma=0.0),
        guesses={"Ia": 0.005, "bw": 0.5},
    )
    assert est.converged
    assert est["Ia"] == pytest.approx(params.Ia, abs=1e-6)


# --- chassis step information content ----------------------------------------


def test_imu_channels_condition_the_chassis_fit(params):
    # Sensitivity of the outputs to relative parameter changes around the
    # truth. The fit is well posed with all three channels, the planar
    # accelerations carry the weakest direction, and the rate channel alone
    # would be an order of magnitude worse.
    exp = chassis_experiment(params, seed=None, sigma=0.0)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-13)
    base = _predict_outputs({}, params, exp, opts)
    cols = []
    for name in ("mc", "Ic", "xB", "yB"):
        t0 = getattr(params, name) if name != "yB" else 0.05  # yB = 0 needs a base point
        h = 1e-6 * abs(t0)
        pred = _predict_outputs({name: getattr(params, name) + h}, params, exp, opts)
        cols.append((pred - base) / h * abs(t0))
    jac = np.stack(cols, axis=-1)  # samples x channels x parameters

    def singular_values(channels):
        return np.linalg.svd(jac[:, channels, :].reshape(-1, 4), compute_uv=False)

    s_full = singular_values([0, 1, 2])
    s_accel = singular_values([0, 1])
    s_gyro = singular_values([2])
    assert s_full[0] / s_full[-1] < 1e4
    assert 0.9 <= s_accel[-1] / s_full[-1] <= 1.1
    assert s_full[-1] / s_gyro[-1] >= 10.0


# --- the chained pipeline -----------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_result():
    return run_pipeline(nominal_params(), seed=0, platform_window=3.0)


def test_pipeline_recovers_every_group(pipeline_result, params):
    r = pipeline_result
    assert r.step1.converged and r.step2.converged and r.step3.converged
    # Single-seed bounds, roughly double the observed chained errors; the
    # per-step statistical tolerances are asserted on seed medians elsewhere.
    assert abs(r.step1["Ia"] - params.Ia) < 1e-4
    assert abs(r.step1["bw"] - params.bw) < 1e-3
    assert abs(r.step1["Ip0"] - params.Ip) < 1e-2
    assert abs(r.step1["bp"] - params.bp) < 1e-2
    assert abs(r.step2["mc"] - params.mc) < 0.8
    assert abs(r.step2["Ic"] - params.Ic) < 0.05
    assert abs(r.step2["xB"] - params.xB) < 2e-3
    assert abs(r.step2["yB"] - params.yB) < 2e-3
    assert abs(r.step3["mp"] - params.mp) < 0.3
    assert abs(r.step3["Ip"] - params.Ip) < 1e-2
    assert abs(r.step3["xF"] - params.xF) < 5e-4
    assert abs(r.step3["yF"] - params.yF) < 1e-3


def test_pipeline_bookkeeping(pipeline_result, params):
    r = pipeline_result
    # Step 2 holds the unloaded platform: catalogue mass, shaft inertia from
    # step 1, centre of mass on the axis.
    assert r.fixed["step2"]["Ip"] == r.step1["Ip0"]
    assert r.fixed["step2"]["mp"] == params.mp
    assert r.fixed["step2"]["xF"] == r.fixed["step2"]["yF"] == 0.0
    # Step 3 holds the chassis just estimated.
    assert r.fixed["step3"]["mc"] == r.step2["mc"]
    assert r.fixed["step3"]["xB"] == r.step2["xB"]
    # The held parameter sets and the four records travel with the result.
    assert r.known2.as_dict().items() >= r.fixed["step2"].items()
    assert r.known3.as_dict().items() >= r.fixed["step3"].items()
    assert sorted(r.experiments) == ["platform", "step2", "step3", "wheel"]
    assert r.experiments["step3"].controls.end_time == pytest.approx(3.0)


def test_pipeline_assembles_params(pipeline_result, params):
    ident = pipeline_result.identified_params(params)
    assert ident.Ia == pipeline_result.step1["Ia"]
    assert ident.mc == pipeline_result.step2["mc"]
    assert ident.Ip == pipeline_result.step3["Ip"]
    assert ident.l1 == params.l1  # geometry is never estimated
    assert abs(ident.mc - params.mc) < 0.8
