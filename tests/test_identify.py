import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import spy_runs
from otbot import _ckernel, identify
from otbot.identify import (
    FITS,
    FIT_TOLERANCE,
    FTOL,
    GUESS,
    MAX_ITER,
    PLATFORM_WINDOW,
    XTOL,
    ParamEstimate,
    experiment,
    fit,
    fit_trust_region,
    parameter_bounds,
    platform_guess,
    predict_outputs,
    prediction_error,
    run_pipeline,
    sensitivity_sweep,
)
from otbot.integrator import IntegratorOptions
from otbot.params import nominal_params


def shaft_fits(params, seed=0, sigma=None, guesses=None) -> ParamEstimate:
    """Both step-1 fits on records at one noise seed, joined as the report
    joins them: values in row order, losses and iterations summed."""
    g = {**GUESS, **(guesses or {})}
    ests = [fit(experiment(FITS[r], params, seed, sigma=sigma), params, FITS[r].names, g)
            for r in ("step1_wheel", "step1_platform")]
    return ParamEstimate(
        names=ests[0].names + ests[1].names,
        values=np.concatenate([e.values for e in ests]),
        loss=ests[0].loss + ests[1].loss,
        iterations=ests[0].iterations + ests[1].iterations,
        converged=ests[0].converged and ests[1].converged,
    )


# --- solver machinery on analytic problems ---------------------------------


def test_linear_problem_converges_immediately():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    target = a @ np.array([1.0, 2.0])
    est = fit_trust_region(lambda p: (a @ p - target, a), [0.0, 0.0])
    np.testing.assert_allclose(est.values, [1.0, 2.0], atol=1e-9)
    assert est.converged
    assert est.iterations <= 4
    assert est.loss < 1e-16


def test_rosenbrock_valley():
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]]), np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])

    est = fit_trust_region(residual, [-1.2, 1.0])
    np.testing.assert_allclose(est.values, [1.0, 1.0], atol=1e-8)
    assert est.converged


def test_bounds_clip_the_estimate():
    est = fit_trust_region(lambda p: (p - 5.0, np.eye(1)), [1.0], bounds=([0.0], [2.0]))
    assert est.values[0] == pytest.approx(2.0, abs=1e-9)


def test_a_parameter_started_on_its_bound_stays_there_while_the_other_converges():
    # the optimum lies beyond p0 <= 1; on that bound, p1 minimizes (p1 - 1)^2 + (p1 - 2)^2
    def residual(p):
        return np.array([p[0] - 3.0, p[1] - 1.0, p[0] * p[1] - 2.0]), np.array([[1.0, 0.0], [0.0, 1.0], [p[1], p[0]]])

    est = fit_trust_region(residual, [1.0, 0.0], bounds=([0.0, -10.0], [1.0, 10.0]))
    assert est.values[0] == 1.0
    assert est.values[1] == pytest.approx(1.5, abs=1e-9)
    assert est.converged
    assert est.evaluations <= 6


@pytest.mark.parametrize("start", [[0.0, 0.0], [0.5, 0.5]])
def test_two_bounds_crossed_at_once_end_at_the_constrained_optimum(start):
    # r = J (p - a) with JᵀJ = [[1, -0.9], [-0.9, 1]], a = (-1, -0.5) and p >= 0:
    # the Newton step leaves the box in both coordinates, yet on p0 = 0 the
    # gradient in p1 points into the box, and the optimum is (0, 0.4)
    jac = np.linalg.cholesky(np.array([[1.0, -0.9], [-0.9, 1.0]])).T
    est = fit_trust_region(lambda p: (jac @ (p + [1.0, 0.5]), jac), start, bounds=([0.0, 0.0], [np.inf, np.inf]))
    assert est.converged
    assert est.values[0] == 0.0
    assert est.values[1] == pytest.approx(0.4, abs=1e-9)
    assert est.loss == pytest.approx(0.19, abs=1e-12)


def test_a_fit_held_on_its_bounds_stops_without_another_call():
    # on p = 2 the gradient points out of the box, so no zero step is tried
    calls = []

    def residual(p):
        calls.append(p.copy())
        return p - 5.0, np.eye(1)

    est = fit_trust_region(residual, [1.0], bounds=([0.0], [2.0]))
    assert est.values[0] == 2.0 and est.converged
    assert est.message.startswith("gtol")
    assert est.evaluations == len(calls) == 2


def test_non_finite_trial_residuals_reject_the_step():
    # the model cannot be integrated past p = 2, short of the optimum at 3
    def residual(p):
        return np.array([p[0] - 3.0 if p[0] <= 2.0 else math.inf]), np.eye(1)

    est = fit_trust_region(residual, [0.0])
    assert est.converged and est.values[0] <= 2.0
    assert est.loss == pytest.approx(1.0, abs=1e-8)


def test_each_point_costs_one_residual_call():
    # the solver's Jacobian at a point is the one its residual call returned
    calls = []

    def residual(p):
        calls.append(p.copy())
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]]), np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])

    est = fit_trust_region(residual, [-1.2, 1.0])
    assert est.iterations > 2
    assert len({tuple(p) for p in calls}) == len(calls)
    assert est.evaluations == len(calls)


def test_non_finite_initial_residual_raises():
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        fit_trust_region(lambda p: (np.array([math.inf]), np.zeros((1, 1))), [1.0])


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


@pytest.mark.parametrize("engine", ["c", "python"])
@pytest.mark.parametrize("record", list(FITS))
def test_prediction_error_vanishes_at_the_truth(monkeypatch, params, record, engine):
    """A noise-free record is the fit's own prediction at the truth, to the
    bit, at the records' tolerance."""
    if engine == "python":
        monkeypatch.setattr(_ckernel, "load", lambda: None)
    elif _ckernel.load() is None:
        pytest.skip("the compiled rollout loop cannot be loaded")
    row = FITS[record]
    exp = experiment(row, params, sigma=0.0)
    truth = {n: getattr(params, "Ip" if n == "Ip0" else n) for n in row.names}
    loss, res, _ = prediction_error(truth, params, exp, IntegratorOptions())
    assert loss == 0.0
    assert res.size == exp.record.values.size and not res.any()


def test_unintegrable_candidate_scores_infinite(params):
    exp = experiment(FITS["step1_wheel"], params, sigma=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss, res, jac = prediction_error({"Ia": 0.0, "bw": params.bw}, params, exp)
    assert math.isinf(loss)
    assert np.all(np.isinf(res))
    assert not jac.any()


# --- shaft step --------------------------------------------------------------


def test_noise_free_shaft_fits_are_exact(params):
    est = shaft_fits(params, sigma=0.0)
    assert est.converged
    assert est["Ia"] == pytest.approx(params.Ia, abs=1e-7)
    assert est["bw"] == pytest.approx(params.bw, abs=1e-7)
    assert est["Ip0"] == pytest.approx(params.Ip, abs=1e-6)
    assert est["bp"] == pytest.approx(params.bp, abs=1e-6)
    assert est.loss < 1e-12


def test_noisy_shaft_fit_reaches_the_noise_floor(params):
    est = shaft_fits(params, seed=0)
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
        est = shaft_fits(params, seed=5, sigma=sigma)
        errs.append(abs(est["Ia"] - params.Ia) + abs(est["bw"] - params.bw))
    assert errs[1] > errs[0]


def test_far_initial_guess_still_converges(params):
    est = shaft_fits(params, sigma=0.0, guesses={"Ia": 0.005, "bw": 0.5})
    assert est.converged
    assert est["Ia"] == pytest.approx(params.Ia, abs=1e-6)


# --- chassis step information content ----------------------------------------


def test_imu_channels_condition_the_chassis_fit(params):
    # Sensitivity of the outputs to relative parameter changes around the
    # truth. The fit is well posed with all three channels, the planar
    # accelerations carry the weakest direction, and the rate channel alone
    # would be an order of magnitude worse.
    exp = experiment(FITS["step2"], params, seed=None, sigma=0.0)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-13)
    base = predict_outputs({}, params, exp, opts)
    cols = []
    for name in ("mc", "Ic", "xB", "yB"):
        t0 = getattr(params, name) if name != "yB" else 0.05  # yB = 0 needs a base point
        h = 1e-6 * abs(t0)
        pred = predict_outputs({name: getattr(params, name) + h}, params, exp, opts)
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
    r = {name: f.estimate for name, f in pipeline_result.items()}
    assert all(est.converged for est in r.values())
    # Single-seed bounds, roughly double the observed chained errors; the
    # per-step statistical tolerances are asserted on seed medians elsewhere.
    assert abs(r["step1_wheel"]["Ia"] - params.Ia) < 1e-4
    assert abs(r["step1_wheel"]["bw"] - params.bw) < 1e-3
    assert abs(r["step1_platform"]["Ip0"] - params.Ip) < 1e-2
    assert abs(r["step1_platform"]["bp"] - params.bp) < 1e-2
    assert abs(r["step2"]["mc"] - params.mc) < 0.8
    assert abs(r["step2"]["Ic"] - params.Ic) < 0.05
    assert abs(r["step2"]["xB"] - params.xB) < 2e-3
    assert abs(r["step2"]["yB"] - params.yB) < 2e-3
    assert abs(r["step3"]["mp"] - params.mp) < 0.3
    assert abs(r["step3"]["Ip"] - params.Ip) < 1e-2
    assert abs(r["step3"]["xF"] - params.xF) < 5e-4
    assert abs(r["step3"]["yF"] - params.yF) < 1e-3


def test_pipeline_bookkeeping(pipeline_result, params):
    r = pipeline_result
    wheel, platform = r["step1_wheel"].estimate, r["step1_platform"].estimate
    # Step 2 holds the step-1 shafts and the unloaded platform: catalogue
    # mass, shaft inertia from step 1, centre of mass on the axis.
    known2 = r["step2"].held
    assert known2.Ia == wheel["Ia"]
    assert known2.bp == platform["bp"]
    assert known2.Ip == platform["Ip0"]
    assert known2.mp == params.mp
    assert known2.xF == known2.yF == 0.0
    # Step 3 adds the chassis just estimated.
    known3 = r["step3"].held
    assert known3.mc == r["step2"].estimate["mc"]
    assert known3.xB == r["step2"].estimate["xB"]
    assert known3.Ia == wheel["Ia"]
    # The four records and each fit's guess travel with the result.
    assert sorted(r) == ["step1_platform", "step1_wheel", "step2", "step3"]
    assert r["step3"].experiment.controls.end_time == pytest.approx(3.0)
    assert [f.row.step for f in r.values()] == ["1", "1", "2", "3"]
    assert r["step3"].guess == platform_guess(0.25, params.mp, platform["Ip0"])


def test_pipeline_fits_each_subset_once(monkeypatch, params):
    fitted = []
    real_fit = identify.fit_trust_region

    def counted_fit(residual_fn, p0, bounds=None, names=None):
        fitted.append(names)
        return real_fit(residual_fn, p0, bounds, names)

    monkeypatch.setattr(identify, "fit_trust_region", counted_fit)
    run_pipeline(params, seed=0, platform_window=0.5)
    assert fitted == [("Ia", "bw"), ("Ip0", "bp"), ("mc", "Ic", "xB", "yB"), ("mp", "Ip", "xF", "yF")]


def test_a_single_step_holds_the_others_at_the_truth(params):
    window = 0.3
    r = run_pipeline(params, seed=4, platform_window=window, steps=("3",))
    assert list(r) == ["step3"]
    assert r["step3"].held == params.replace(xF=0.0, yF=0.0)
    row = FITS["step3"]
    direct = fit(
        experiment(row, params, seed=4 + 2, window=window),
        params,
        row.names,
        platform_guess(GUESS["deviation"], params.mp, params.Ip),
    )
    assert (r["step3"].estimate.values == direct.values).all()
    assert r["step3"].estimate.loss == direct.loss
    # With no earlier fit run, a fit holds the plant with its platform unloaded.
    loaded = params.replace(xF=0.05, yF=-0.02)
    assert run_pipeline(loaded, steps=()) == {}
    held = run_pipeline(loaded, platform_window=window, steps=("3",))["step3"].held
    assert held == loaded.replace(xF=0.0, yF=0.0)


def test_sweep_fits_records_of_the_given_window(monkeypatch, params):
    ends = []
    real_fit = identify.fit

    def recorded(exp, fixed, names, guess):
        ends.append(exp.controls.end_time)
        return real_fit(exp, fixed, names, guess)

    monkeypatch.setattr(identify, "fit", recorded)
    rows = sensitivity_sweep((0.05, 0.25), range(1), params, window=0.2)
    assert [row["deviation"] for row in rows] == [0.05, 0.25]
    assert ends == [pytest.approx(0.2)] * 2


def test_sweep_builds_each_seeds_record_once(monkeypatch, params):
    built, fitted = [], []
    real_experiment, real_fit = identify.experiment, identify.fit

    def counted(row, true_params, seed, window):
        built.append(seed)
        return real_experiment(row, true_params, seed, window)

    def recorded(exp, fixed, names, guess):
        fitted.append(exp)
        return real_fit(exp, fixed, names, guess)

    monkeypatch.setattr(identify, "experiment", counted)
    monkeypatch.setattr(identify, "fit", recorded)
    rows = sensitivity_sweep((0.05, 0.25), range(2), params, window=0.2)
    assert built == [0, 1]
    assert [(row["deviation"], row["seed"]) for row in rows] == [(0.05, 0), (0.05, 1), (0.25, 0), (0.25, 1)]
    # every deviation fits the same record of a seed
    assert all(a is b for a, b in zip(fitted[:2], fitted[2:]))


# --- the README's table of the fits -------------------------------------------


def test_readme_fit_table_lists_the_fits():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index(
        "| step | record | plant | torque [N m] | duration [s] | sensor, noise | seed | fitted parameters |"
    ) + 2
    records = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        step, record, plant, torque, duration, sensor, seed, fitted = (
            cell.strip() for cell in line.strip("|").split("|")
        )
        row = FITS[record.strip("`")]
        records.append(row.record)
        assert step == row.step, row.record
        if row.shaft:
            assert tuple(re.findall(r"`(\w+)`", plant)) == row.shaft, row.record
        else:
            assert plant.startswith("robot"), row.record
        assert tuple(float(t) for t in torque.split(", ")) == row.torques, row.record
        if row.duration is None:
            assert duration == f"`--window` ({PLATFORM_WINDOW:g})", row.record
        else:
            assert float(duration) == row.duration, row.record
        kind, noise = sensor.split(", ")
        assert kind.split()[0] == f"`{row.sensor}`", row.record
        assert float(noise.split()[0]) == row.sigma, row.record
        assert seed == "`--seed`" + (f" + {row.seed_offset}" if row.seed_offset else ""), row.record
        assert tuple(re.findall(r"`(\w+)`", fitted)) == row.names, row.record
    assert records == list(FITS)


# --- exact Jacobians from the sensitivities ------------------------------------


def _record(name, params, seed=0, window=PLATFORM_WINDOW, duration=None):
    """The record of a fit row, its duration shortened where given."""
    row = FITS[name] if duration is None else dataclasses.replace(FITS[name], duration=duration)
    return row, experiment(row, params, seed, window)


@pytest.mark.parametrize("name", ["step1_wheel", "step1_platform", "step2", "step3"])
def test_the_sensitivity_jacobian_matches_central_differences(params, name):
    row, exp = _record(name, params, seed=1)
    truth = {n: getattr(params, identify._FIELD.get(n, n)) for n in row.names}
    guess = {n: GUESS.get(n, platform_guess(0.25, params.mp, params.Ip).get(n)) for n in row.names}
    for point in (truth, guess):
        _, _, jac = prediction_error(point, params, exp, FIT_TOLERANCE)
        for k, n in enumerate(row.names):
            h = 1e-4 * max(abs(point[n]), 0.1)
            up, down = ({**point, n: point[n] + s * h} for s in (1.0, -1.0))
            central = (prediction_error(up, params, exp, FIT_TOLERANCE)[1]
                       - prediction_error(down, params, exp, FIT_TOLERANCE)[1]) / (2.0 * h)
            assert np.max(np.abs(jac[:, k] - central)) <= 1e-6 * np.max(np.abs(central)), (n, point)


@pytest.mark.parametrize("name, duration", [("step1_wheel", None), ("step2", 0.2), ("step3", None)])
def test_the_c_and_python_engines_give_the_same_jacobians_and_estimates(params, name, duration, request):
    row, exp = _record(name, params, seed=2, window=0.2, duration=duration)
    guess = {n: GUESS.get(n, platform_guess(0.25, params.mp, params.Ip).get(n)) for n in row.names}
    if _ckernel.load() is None:
        pytest.skip("the compiled rollout loop cannot be loaded")

    def run():
        error = prediction_error(guess, params, exp, FIT_TOLERANCE)
        return error, fit(exp, params, row.names, guess)

    (c_loss, c_res, c_jac), c_est = run()
    request.getfixturevalue("python_kernel")
    (py_loss, py_res, py_jac), py_est = run()
    assert c_loss == py_loss and (c_res == py_res).all() and (c_jac == py_jac).all()
    assert (c_est.values == py_est.values).all() and c_est.loss == py_est.loss
    assert c_est.iterations == py_est.iterations


def test_the_chain_fits_take_few_rollouts(monkeypatch, params):
    runs = spy_runs(monkeypatch)
    if runs is None:
        pytest.skip("the compiled rollout loop cannot be loaded")
    counts, real_fit = {}, identify.fit

    def counted(exp, fixed, names, guess):
        before = len(runs)
        est = real_fit(exp, fixed, names, guess)
        counts[names] = len(runs) - before
        return est

    monkeypatch.setattr(identify, "fit", counted)
    run_pipeline(params, seed=0)
    # one rollout per point of the solver: the Jacobian comes with the residuals
    assert counts[FITS["step2"].names] <= 16
    assert counts[FITS["step3"].names] <= 25


@pytest.mark.parametrize("name", ["step2", "step3"])
def test_estimates_do_not_hang_on_the_last_bit_of_a_held_parameter(params, name):
    # criterion 06's and 07's fits: a held parameter one ulp away moves the
    # rollouts at rounding level, and so the estimates no more than that
    row = FITS[name]
    held = params.replace(xF=0.0, yF=0.0) if name == "step2" else params
    guess = ({n: GUESS[n] for n in row.names} if name == "step2"
             else platform_guess(0.25, params.mp, params.Ip))
    for seed in (1, 2, 3):
        exp = experiment(row, params, seed)
        base = fit(exp, held, row.names, guess).values
        for field in ("l1", "r"):
            moved = held.replace(**{field: np.nextafter(getattr(held, field), np.inf)})
            values = fit(exp, moved, row.names, guess).values
            assert np.all(np.abs(values - base) <= 1e-9 * np.maximum(np.abs(base), 1e-3)), (seed, field)


def _scipy_fit(residual_fn, p0, bounds):
    """scipy's bounded trust-region reflective fit of ``residual_fn`` at the
    package's tolerances, asking for the Jacobian of the point it evaluated
    last: the oracle of the fits."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    last = {}

    def residuals(p):
        last["p"], (r, last["jac"]) = p.copy(), residual_fn(p)
        return r

    def jacobian(p):
        if not np.array_equal(p, last["p"]):
            residuals(p)
        return last["jac"]

    return least_squares(residuals, p0, jac=jacobian, bounds=bounds, method="trf", ftol=FTOL,
                         xtol=XTOL, gtol=1e-14, max_nfev=MAX_ITER * (len(p0) + 1))


@pytest.mark.parametrize("seed", range(4))
def test_the_chain_fits_agree_with_scipys_trust_region(params, seed):
    # each fit of the chain, refitted by scipy on the same residuals from the same guess
    for run in run_pipeline(params, seed=seed).values():
        names = run.row.names

        def residual(p):
            return prediction_error(dict(zip(names, p)), run.held, run.experiment, FIT_TOLERANCE)[1:]

        oracle = _scipy_fit(residual, [run.guess[n] for n in names], parameter_bounds(names))
        est = run.estimate
        assert np.all(np.abs(est.values - oracle.x) <= 1e-5 * np.maximum(np.abs(oracle.x), 1e-3)), run.row.record
        assert est.loss <= float(np.sum(oracle.fun**2)) * (1.0 + 1e-9), run.row.record
