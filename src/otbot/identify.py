"""Grey-box parameter identification by prediction-error minimization.

The plant is excited with held torques, sensors record noisy outputs, and a
bounded trust-region least-squares solver adjusts a parameter subset until
the simulated outputs match the record. Identification runs in three steps,
each fixing everything estimated before it:

1. basic: wheel and platform driven as isolated shafts, encoder rate
   output, fits (Ia, bw) and (Ip0, bp);
2. chassis: full robot under constant torques, inertial-unit output,
   fits (mc, Ic, xB, yB) with the platform unloaded;
3. working platform: same excitation over a short window, fits
   (mp, Ip, xF, yF) of the platform plus whatever load it carries.

Losses are unweighted sums of squared output residuals. Each parameter
subset is fitted once, its rollouts at one integrator tolerance.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .dynamics import RobotState
from .integrator import IntegrationError, IntegratorOptions
from .params import RobotParams
from .sensors import (
    ENCODER_SIGMA,
    SensorModel,
    SensorRecord,
    imu_truth,
    sample_sensors,
)
from .simulate import ControlSequence, simulate_robot, simulate_shaft

# Noise level of the inertial-unit experiments (density 1.37e-3 per root-Hz
# at 100 Hz, as printed on the unit's sheet).
IMU_SIGMA = 13.73e-3

SAMPLE_RATE = 100.0

WHEEL_TORQUE = 6.0
WHEEL_DURATION = 0.5
PLATFORM_TORQUE = 6.0
PLATFORM_DURATION = 1.5
CHASSIS_TORQUES = (6.0, -10.0, 6.0)
CHASSIS_DURATION = 3.0
PLATFORM_WINDOW = 1.0

BASIC_GUESS = {"Ia": 0.01, "bw": 0.09, "Ip0": 1.11, "bp": 0.12}
CHASSIS_GUESS = {"mc": 54.57, "Ic": 0.65, "xB": -0.07, "yB": 0.25}
PLATFORM_DEVIATION = 0.25

_BOUNDS_BY_KIND = {
    "mass": (1e-3, 1e4),
    "inertia": (1e-6, 1e4),
    "friction": (0.0, 1e3),
    "com": (-1.0, 1.0),
}
_PARAM_KIND = {
    "mc": "mass",
    "mp": "mass",
    "Ic": "inertia",
    "Ip": "inertia",
    "Ip0": "inertia",
    "Ia": "inertia",
    "inertia": "inertia",
    "bw": "friction",
    "bp": "friction",
    "damping": "friction",
    "xB": "com",
    "yB": "com",
    "xF": "com",
    "yF": "com",
}

# Integrator tolerance of every rollout a fit makes
FIT_TOLERANCE = IntegratorOptions(rtol=1e-8, atol=1e-11)

# Trust-region settings: iteration cap, relative loss and step tolerances,
# and the relative step of the forward-difference Jacobian
MAX_ITER = 200
FTOL = 1e-10
XTOL = 1e-10
FD_STEP = 1e-6


def parameter_bounds(names) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds for a named parameter subset, by physical kind."""
    pairs = [_BOUNDS_BY_KIND[_PARAM_KIND[n]] for n in names]
    lo, hi = zip(*pairs)
    return np.array(lo), np.array(hi)


@dataclass(frozen=True)
class Experiment:
    """One excitation run: initial state, commanded torques, recorded outputs.

    ``x0`` is a RobotState for the full model or a length-2 array
    (phi, dphi) for the isolated-shaft model. ``sensor_model`` is the
    noise-free copy used to predict outputs.
    """

    x0: object
    controls: ControlSequence
    record: SensorRecord
    sensor_model: SensorModel

    def __post_init__(self) -> None:
        t_lo, t_hi = self.record.times[0], self.record.times[-1]
        if abs(t_lo - self.controls.t0) > 1e-9 or abs(t_hi - self.controls.end_time) > 1e-9:
            raise ValueError("record and controls must cover the same time window")

    @property
    def is_shaft(self) -> bool:
        return not isinstance(self.x0, RobotState)


@dataclass
class ParamEstimate:
    """Result of one fit: named values plus solver diagnostics."""

    names: tuple[str, ...]
    values: np.ndarray
    loss: float
    iterations: int
    converged: bool
    message: str = ""

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])


@dataclass
class FitOptions:
    """Trust-region solver settings.

    The residual Jacobian is scipy's forward finite difference ("2-point")
    with relative step ``FD_STEP``; ``jobs`` > 1 evaluates its columns from
    a thread pool. The differences are the same either way, so ``jobs``
    changes only the wall time, never the estimates.
    """

    jobs: int = 1


@dataclass
class IdentPipelineResult:
    """Estimates of the steps that ran, what each step held fixed, and its data.

    ``step1``-``step3`` are ``None`` for a step that did not run; ``guesses``
    holds each step's initial guess by step label. ``experiments`` holds
    the records the fits ran on, keyed ``wheel``, ``platform`` (step 1),
    ``step2`` and ``step3``; ``known2`` and ``known3`` are the full
    parameter sets held by steps 2 and 3.
    """

    step1: ParamEstimate | None
    step2: ParamEstimate | None
    step3: ParamEstimate | None
    guesses: dict[str, dict[str, float]]
    experiments: dict[str, Experiment]
    known2: RobotParams
    known3: RobotParams

    @property
    def estimates(self) -> dict[str, ParamEstimate]:
        """The estimates of the steps that ran, by step label."""
        steps = {"step1": self.step1, "step2": self.step2, "step3": self.step3}
        return {label: est for label, est in steps.items() if est is not None}


# ---------------------------------------------------------------------------
# Experiment construction


def wheel_experiment(params: RobotParams, seed: int | None = 0, sigma: float = ENCODER_SIGMA) -> Experiment:
    """Constant torque on one wheel shaft, encoder rate record."""
    controls = ControlSequence.constant(WHEEL_TORQUE, WHEEL_DURATION, SAMPLE_RATE)
    traj = simulate_shaft(params.Ia, params.bw, controls)
    model = SensorModel(kind="encoder", sigma=sigma, rate=SAMPLE_RATE, axis=1)
    record = sample_sensors(traj, model, seed=seed)
    return Experiment(x0=np.zeros(2), controls=controls, record=record, sensor_model=model)


def platform_shaft_experiment(params: RobotParams, seed: int | None = 0, sigma: float = ENCODER_SIGMA) -> Experiment:
    """Constant torque on the pivot shaft, encoder rate record."""
    controls = ControlSequence.constant(PLATFORM_TORQUE, PLATFORM_DURATION, SAMPLE_RATE)
    traj = simulate_shaft(params.Ip, params.bp, controls)
    model = SensorModel(kind="encoder", sigma=sigma, rate=SAMPLE_RATE, axis=1)
    record = sample_sensors(traj, model, seed=seed)
    return Experiment(x0=np.zeros(2), controls=controls, record=record, sensor_model=model)


def chassis_experiment(
    params: RobotParams,
    seed: int | None = 0,
    duration: float = CHASSIS_DURATION,
    sigma: float = IMU_SIGMA,
) -> Experiment:
    """Full robot from rest under constant torques, inertial-unit record.

    The same construction serves the working-platform step with a shorter
    ``duration``.
    """
    controls = ControlSequence.constant(CHASSIS_TORQUES, duration, SAMPLE_RATE)
    state0 = RobotState(q=np.zeros(6), dq=np.zeros(6))
    traj = simulate_robot(params, state0, controls)
    model = SensorModel(kind="imu", sigma=sigma, rate=SAMPLE_RATE)
    record = sample_sensors(traj, model, seed=seed)
    return Experiment(x0=state0, controls=controls, record=record, sensor_model=model)


# ---------------------------------------------------------------------------
# Loss


def predict_outputs(candidate: dict, fixed, exp: Experiment, options: IntegratorOptions) -> np.ndarray:
    """Noise-free sensor outputs of the candidate model on the record grid."""
    model = exp.sensor_model
    if exp.is_shaft:
        merged = {**(fixed or {}), **candidate}
        traj = simulate_shaft(
            merged["inertia"],
            merged["damping"],
            exp.controls,
            options=options,
            output_times=exp.record.times,
        )
    else:
        params = fixed.replace(**candidate)
        traj = simulate_robot(
            params,
            exp.x0,
            exp.controls,
            options=options,
            output_times=exp.record.times,
        )
    if model.kind == "imu":
        return imu_truth(traj)
    return traj.states[:, model.axis][:, None]


def prediction_error(
    candidate: dict,
    fixed,
    exp: Experiment,
    options: IntegratorOptions | None = None,
) -> tuple[float, np.ndarray]:
    """Sum of squared output residuals of a candidate parameter subset.

    Returns ``(epsilon, residuals)`` with one residual entry per scalar
    output per sample. A candidate whose rollout cannot be integrated, or
    whose model divides by zero on the way (the rhs works on Python floats,
    which raise where numpy gave inf), gets ``epsilon = inf`` and all-inf
    residuals, which a trust-region solver treats as a rejected step rather
    than an error.
    """
    opts = options or IntegratorOptions()
    meas = exp.record.values
    meas = meas if meas.ndim == 2 else meas[:, None]
    try:
        pred = predict_outputs(candidate, fixed, exp, opts)
    except (IntegrationError, ArithmeticError):
        return math.inf, np.full(meas.size, np.inf)
    res = (meas - pred).ravel()
    return float(res @ res), res


# ---------------------------------------------------------------------------
# Solver


def fit_trust_region(
    residual_fn,
    p0,
    bounds=None,
    options: FitOptions | None = None,
    names: tuple[str, ...] | None = None,
) -> ParamEstimate:
    """Minimize ``sum(residual_fn(p)**2)`` inside box bounds.

    Bounded trust-region reflective least squares; terminates on relative
    loss decrease (FTOL), step size (XTOL) or the iteration cap. The
    returned loss never exceeds the loss at ``p0``; running out of
    iterations is reported as ``converged=False``.
    """
    opts = options or FitOptions()
    p0 = np.asarray(p0, dtype=float)
    names = names or tuple(f"p{i}" for i in range(len(p0)))

    f0 = np.asarray(residual_fn(p0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise ValueError("residuals are not finite at the initial guess")

    if bounds is None:
        lb = np.full(len(p0), -np.inf)
        ub = np.full(len(p0), np.inf)
    else:
        lb, ub = (np.asarray(b, dtype=float) for b in bounds)

    kwargs = dict(
        jac="2-point",
        diff_step=FD_STEP,
        bounds=(lb, ub),
        method="trf",
        ftol=FTOL,
        xtol=XTOL,
        gtol=1e-14,
        max_nfev=MAX_ITER * (len(p0) + 1),
    )
    if opts.jobs > 1:
        with ThreadPoolExecutor(max_workers=opts.jobs) as pool:
            result = least_squares(residual_fn, p0, workers=pool.map, **kwargs)
    else:
        result = least_squares(residual_fn, p0, **kwargs)

    return ParamEstimate(
        names=names,
        values=result.x,
        loss=float(np.sum(result.fun**2)),
        iterations=int(result.njev if result.njev is not None else result.nfev),
        converged=bool(result.status > 0),
        message=str(result.message),
    )


# ---------------------------------------------------------------------------
# The three steps


def _fit_subset(exp: Experiment, fixed, names, guess_values, options) -> ParamEstimate:
    def residual(p):
        return prediction_error(dict(zip(names, p)), fixed, exp, FIT_TOLERANCE)[1]

    return fit_trust_region(residual, guess_values, parameter_bounds(names), options, names)


def identify_basic(
    wheel_exp: Experiment,
    platform_exp: Experiment,
    guesses: dict | None = None,
    options: FitOptions | None = None,
) -> ParamEstimate:
    """Step 1: two independent shaft fits for (Ia, bw) and (Ip0, bp).

    Both wheels are taken as identical, so the single wheel fit covers both.
    """
    g = {**BASIC_GUESS, **(guesses or {})}
    shaft_names = ("inertia", "damping")
    wheel = _fit_subset(wheel_exp, {}, shaft_names, [g["Ia"], g["bw"]], options)
    plat = _fit_subset(platform_exp, {}, shaft_names, [g["Ip0"], g["bp"]], options)
    return ParamEstimate(
        names=("Ia", "bw", "Ip0", "bp"),
        values=np.array([wheel.values[0], wheel.values[1], plat.values[0], plat.values[1]]),
        loss=wheel.loss + plat.loss,
        iterations=wheel.iterations + plat.iterations,
        converged=wheel.converged and plat.converged,
        message=f"wheel: {wheel.message}; platform: {plat.message}",
    )


def identify_chassis(
    exp: Experiment,
    known: RobotParams,
    guess: dict | None = None,
    options: FitOptions | None = None,
) -> ParamEstimate:
    """Step 2: fit (mc, Ic, xB, yB) against an inertial-unit record.

    ``known`` supplies the geometry, the shaft parameters and the unloaded
    platform; its chassis entries are ignored.
    """
    g = {**CHASSIS_GUESS, **(guess or {})}
    names = ("mc", "Ic", "xB", "yB")
    return _fit_subset(exp, known, names, [g[n] for n in names], options)


def identify_platform(
    exp: Experiment,
    known: RobotParams,
    guess: dict,
    options: FitOptions | None = None,
) -> ParamEstimate:
    """Step 3: fit the working-platform set (mp, Ip, xF, yF).

    ``known`` carries everything from steps 1 and 2; the platform entries
    of ``known`` are ignored. The guess may be far off (unknown load), so
    non-convergence is reported via the estimate rather than raised.
    """
    names = ("mp", "Ip", "xF", "yF")
    return _fit_subset(exp, known, names, [guess[n] for n in names], options)


def platform_guess(deviation: float, mp0: float, Ip0: float) -> dict:
    """Initial working-platform guess for a load deviation fraction.

    Scales an unknown added mass of up to 500 kg placed within 0.45 m of
    the pivot; the inertia guess shifts Ip0 by the parallel-axis term of
    the guessed mass at the guessed offset.
    """
    mass = mp0 + deviation * 500.0
    offset = deviation * 0.45
    inertia = Ip0 + mass * (offset**2 + offset**2)
    return {"mp": mass, "Ip": inertia, "xF": offset, "yF": offset}


def sensitivity_sweep(
    deviations,
    seeds,
    true_params: RobotParams,
    window: float = PLATFORM_WINDOW,
    options: FitOptions | None = None,
) -> list[dict]:
    """Re-run the platform step across guess deviations and noise seeds.

    Every cell fits a ``window``-second record with everything but the
    platform held at ``true_params``. Returns one row per (deviation, seed)
    cell with the absolute estimate errors against ``true_params`` and the
    convergence flag. Individual non-convergences are recorded, not raised.
    """
    rows = []
    for deviation in deviations:
        guess = platform_guess(deviation, mp0=true_params.mp, Ip0=true_params.Ip)
        for seed in seeds:
            exp = chassis_experiment(true_params, seed=seed, duration=window)
            est = identify_platform(exp, true_params, guess, options)
            rows.append(
                {
                    "deviation": float(deviation),
                    "seed": int(seed),
                    "err_mp": abs(est["mp"] - true_params.mp),
                    "err_Ip": abs(est["Ip"] - true_params.Ip),
                    "err_xF": abs(est["xF"] - true_params.xF),
                    "err_yF": abs(est["yF"] - true_params.yF),
                    "converged": bool(est.converged),
                }
            )
    return rows


def run_pipeline(
    true_params: RobotParams,
    seed: int = 0,
    guesses: dict | None = None,
    platform_window: float = PLATFORM_WINDOW,
    options: FitOptions | None = None,
    steps: tuple[str, ...] = ("1", "2", "3"),
) -> IdentPipelineResult:
    """The named steps in order, each consuming the earlier estimates.

    ``true_params`` drives the simulated plant; records at the three steps
    use ``seed``, ``seed + 1`` and ``seed + 2``. ``guesses`` may override
    the initial guesses of steps 1 and 2 and the step-3 ``deviation``. A
    step left out holds its parameters at ``true_params``.
    """
    g = {**BASIC_GUESS, **CHASSIS_GUESS, "deviation": PLATFORM_DEVIATION, **(guesses or {})}
    g1, g2 = ({n: g[n] for n in group} for group in (BASIC_GUESS, CHASSIS_GUESS))
    step1 = step2 = step3 = None
    experiments = {}
    # Unloaded platform: mass is known from its data sheet, inertia from
    # step 1, and its centre sits on the pivot axis.
    known2 = true_params.replace(xF=0.0, yF=0.0)
    if "1" in steps:
        experiments["wheel"] = wheel_experiment(true_params, seed=seed)
        experiments["platform"] = platform_shaft_experiment(true_params, seed=seed)
        step1 = identify_basic(experiments["wheel"], experiments["platform"], g1, options)
        known2 = known2.replace(Ia=step1["Ia"], bw=step1["bw"], bp=step1["bp"], Ip=step1["Ip0"])

    known3 = known2
    if "2" in steps:
        experiments["step2"] = chassis_experiment(true_params, seed=seed + 1)
        step2 = identify_chassis(experiments["step2"], known2, g2, options)
        known3 = known2.replace(**step2.as_dict())

    g3 = platform_guess(g["deviation"], mp0=true_params.mp, Ip0=known2.Ip)
    if "3" in steps:
        experiments["step3"] = chassis_experiment(true_params, seed=seed + 2, duration=platform_window)
        step3 = identify_platform(experiments["step3"], known3, g3, options)

    return IdentPipelineResult(
        step1=step1,
        step2=step2,
        step3=step3,
        guesses={"step1": g1, "step2": g2, "step3": g3},
        experiments=experiments,
        known2=known2,
        known3=known3,
    )
