"""Grey-box parameter identification by prediction-error minimization.

The plant is excited with held torques, sensors record noisy outputs, and a
bounded trust-region least-squares solver adjusts a parameter subset until
the simulated outputs match the record. ``FITS`` lists the fits in chain
order, each holding fixed everything fitted before it:

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
from dataclasses import dataclass, field

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
from .simulate import (ControlSequence, EventPlan, integrate, robot_model, shaft_model,
                       simulate_robot, simulate_shaft)

# Noise level of the inertial-unit experiments (density 1.37e-3 per root-Hz
# at 100 Hz, as printed on the unit's sheet).
IMU_SIGMA = 13.73e-3

SAMPLE_RATE = 100.0
CHASSIS_TORQUES = (6.0, -10.0, 6.0)
PLATFORM_WINDOW = 1.0

# Initial guesses of the shaft and chassis fits, and the relative deviation
# of the working-platform guess from the truth (see platform_guess)
GUESS = {"Ia": 0.01, "bw": 0.09, "Ip0": 1.11, "bp": 0.12,
         "mc": 54.57, "Ic": 0.65, "xB": -0.07, "yB": 0.25, "deviation": 0.25}

# The RobotParams field of a fitted name that differs from it: step 1
# reports the platform shaft's inertia as Ip0, step 3 refits it as Ip
_FIELD = {"Ip0": "Ip"}

# Box bounds of each fitted parameter, by its physical kind
_MASS, _INERTIA, _FRICTION, _COM = (1e-3, 1e4), (1e-6, 1e4), (0.0, 1e3), (-1.0, 1.0)
_BOUNDS = {"mc": _MASS, "mp": _MASS, "Ic": _INERTIA, "Ip": _INERTIA, "Ip0": _INERTIA,
           "Ia": _INERTIA, "bw": _FRICTION, "bp": _FRICTION, "xB": _COM, "yB": _COM, "xF": _COM,
           "yF": _COM}

# Integrator tolerance of every rollout a fit makes
FIT_TOLERANCE = IntegratorOptions(rtol=1e-8, atol=1e-11)

# Trust-region settings: iteration cap, relative loss and step tolerances,
# and the relative step of the forward-difference Jacobian
MAX_ITER = 200
FTOL = 1e-10
XTOL = 1e-10
FD_STEP = 1e-6


@dataclass(frozen=True)
class Fit:
    """One fit of the identification chain: how its record is made, what it fits.

    ``record`` names the fit (and its ``fit_<record>.csv``); ``step`` is
    the ``identify --step`` that runs it. ``shaft`` names the RobotParams
    inertia and damping fields of an isolated shaft; None drives the whole
    robot from rest. ``torques`` are held for ``duration`` seconds (None:
    the platform window) and sampled by a ``sensor`` of noise ``sigma`` at
    noise seed ``seed + seed_offset``. ``names`` are the fitted parameters
    as reported.
    """

    record: str
    step: str
    shaft: tuple[str, str] | None
    torques: tuple[float, ...]
    duration: float | None
    sensor: str
    sigma: float
    seed_offset: int
    names: tuple[str, ...]


# Both wheels are taken as identical, so the one wheel fit covers both.
FITS = {
    row.record: row
    for row in (
        Fit("step1_wheel", "1", ("Ia", "bw"), (6.0,), 0.5, "encoder", ENCODER_SIGMA, 0, ("Ia", "bw")),
        Fit("step1_platform", "1", ("Ip", "bp"), (6.0,), 1.5, "encoder", ENCODER_SIGMA, 0, ("Ip0", "bp")),
        Fit("step2", "2", None, CHASSIS_TORQUES, 3.0, "imu", IMU_SIGMA, 1, ("mc", "Ic", "xB", "yB")),
        Fit("step3", "3", None, CHASSIS_TORQUES, None, "imu", IMU_SIGMA, 2, ("mp", "Ip", "xF", "yF")),
    )
}


def parameter_bounds(names) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds for a named parameter subset, by physical kind."""
    lo, hi = zip(*(_BOUNDS[n] for n in names))
    return np.array(lo), np.array(hi)


@dataclass(frozen=True)
class Experiment:
    """One excitation run from rest: commanded torques, recorded outputs.

    ``shaft`` names the RobotParams inertia and damping fields of an
    isolated-shaft record; None is the whole robot. ``sensor_model`` is the
    noise-free copy used to predict outputs. ``plan`` is the event plan of
    the controls on the record grid, built once and shared by every rollout
    of a fit.
    """

    controls: ControlSequence
    record: SensorRecord
    sensor_model: SensorModel
    shaft: tuple[str, str] | None = None
    plan: EventPlan = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t_lo, t_hi = self.record.times[0], self.record.times[-1]
        if abs(t_lo - self.controls.t0) > 1e-9 or abs(t_hi - self.controls.end_time) > 1e-9:
            raise ValueError("record and controls must cover the same time window")
        span = (self.controls.t0, self.controls.end_time)
        object.__setattr__(self, "plan", EventPlan(span, self.controls, self.record.times))


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
class FitRun:
    """One fit of a pipeline run: its row, its record, the parameters it
    held fixed, its initial guess and its estimate."""

    row: Fit
    experiment: Experiment
    held: RobotParams
    guess: dict[str, float]
    estimate: ParamEstimate


def experiment(
    row: Fit,
    params: RobotParams,
    seed: int | None = 0,
    window: float = PLATFORM_WINDOW,
    sigma: float | None = None,
) -> Experiment:
    """The record of ``row`` on the plant ``params`` at noise seed ``seed``.

    ``window`` is the length of a record the row gives no duration;
    ``sigma`` overrides the row's sensor noise.
    """
    duration = window if row.duration is None else row.duration
    controls = ControlSequence.constant(row.torques, duration, SAMPLE_RATE)
    if row.shaft:
        traj = simulate_shaft(*(getattr(params, f) for f in row.shaft), controls)
    else:
        traj = simulate_robot(params, RobotState.rest(), controls)
    model = SensorModel(kind=row.sensor, sigma=row.sigma if sigma is None else sigma,
                        rate=SAMPLE_RATE, axis=1 if row.shaft else None)
    record = sample_sensors(traj, model, seed=seed)
    return Experiment(controls=controls, record=record, sensor_model=model, shaft=row.shaft)


# ---------------------------------------------------------------------------
# Loss


def predict_outputs(candidate: dict, fixed: RobotParams, exp: Experiment,
                    options: IntegratorOptions) -> np.ndarray:
    """Noise-free sensor outputs of the candidate model on the record grid.

    ``candidate`` maps fitted names to values; every other parameter is
    held at ``fixed``.
    """
    values = {_FIELD.get(n, n): v for n, v in candidate.items()}
    plant = (shaft_model(*(values.get(f, getattr(fixed, f)) for f in exp.shaft)) if exp.shaft
             else robot_model(fixed.replace(**values)))
    # from rest: the shaft's (angle, rate) or the robot's (q, dq)
    traj = integrate(plant, np.zeros(2 if exp.shaft else 12), exp.plan, options)
    model = exp.sensor_model
    if model.kind == "imu":
        return imu_truth(traj)
    return traj.states[:, model.axis][:, None]


def prediction_error(
    candidate: dict,
    fixed: RobotParams,
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
    bounds=(-np.inf, np.inf),
    jobs: int = 1,
    names: tuple[str, ...] | None = None,
) -> ParamEstimate:
    """Minimize ``sum(residual_fn(p)**2)`` inside box bounds.

    Bounded trust-region reflective least squares; terminates on relative
    loss decrease (FTOL), step size (XTOL) or the iteration cap. The loss
    at ``p0`` must be finite (scipy raises ValueError), and the returned loss
    never exceeds it; running out of iterations is reported as
    ``converged=False``. The Jacobian is scipy's forward finite difference
    ("2-point") with relative step ``FD_STEP``; ``jobs`` > 1 evaluates its
    columns from a thread pool. The differences are the same either way,
    so ``jobs`` changes only the wall time.
    """
    p0 = np.asarray(p0, dtype=float)
    names = names or tuple(f"p{i}" for i in range(len(p0)))

    kwargs = dict(
        jac="2-point",
        diff_step=FD_STEP,
        bounds=bounds,
        method="trf",
        ftol=FTOL,
        xtol=XTOL,
        gtol=1e-14,
        max_nfev=MAX_ITER * (len(p0) + 1),
    )
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
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


def fit(exp: Experiment, fixed: RobotParams, names, guess: dict, jobs: int = 1) -> ParamEstimate:
    """Fit ``names`` to the record of ``exp`` from ``guess``, the rest held at ``fixed``.

    The guess may be far off (an unknown load), so non-convergence is
    reported via the estimate rather than raised.
    """

    def residual(p):
        return prediction_error(dict(zip(names, p)), fixed, exp, FIT_TOLERANCE)[1]

    return fit_trust_region(residual, [guess[n] for n in names], parameter_bounds(names), jobs, names)


# ---------------------------------------------------------------------------
# The chain


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
    jobs: int = 1,
) -> list[dict]:
    """Re-run the ``step3`` fit across guess deviations and noise seeds.

    Every cell fits a ``window``-second record with everything but the
    platform held at ``true_params``. Returns one row per (deviation, seed)
    cell with the absolute estimate errors against ``true_params`` and the
    convergence flag. Individual non-convergences are recorded, not raised.
    """
    row = FITS["step3"]
    # a record depends on its seed only, so every deviation fits the same ones
    records = [(seed, experiment(row, true_params, seed, window)) for seed in seeds]
    cells = []
    for deviation in deviations:
        guess = platform_guess(deviation, mp0=true_params.mp, Ip0=true_params.Ip)
        for seed, exp in records:
            est = fit(exp, true_params, row.names, guess, jobs)
            cells.append(
                {
                    "deviation": float(deviation),
                    "seed": int(seed),
                    **{f"err_{n}": abs(est[n] - getattr(true_params, n)) for n in row.names},
                    "converged": bool(est.converged),
                }
            )
    return cells


def run_pipeline(
    true_params: RobotParams,
    seed: int = 0,
    guesses: dict | None = None,
    platform_window: float = PLATFORM_WINDOW,
    jobs: int = 1,
    steps: tuple[str, ...] = ("1", "2", "3"),
) -> dict[str, FitRun]:
    """The fits of the named steps in ``FITS`` order, each holding the earlier estimates.

    ``true_params`` drives the simulated plant; a record's noise seed is
    ``seed`` plus its row's offset. ``guesses`` may override ``GUESS``. A
    fit left out holds its parameters at ``true_params``. Returns the fits
    that ran by record name.
    """
    g = {**GUESS, **(guesses or {})}
    # Unloaded platform: mass is known from its data sheet, inertia from
    # step 1, and its centre sits on the pivot axis.
    held = true_params.replace(xF=0.0, yF=0.0)
    runs = {}
    for row in FITS.values():
        if row.step not in steps:
            continue
        # the working-platform guess starts from the platform held so far
        pool = {**g, **platform_guess(g["deviation"], mp0=held.mp, Ip0=held.Ip)}
        guess = {n: pool[n] for n in row.names}
        exp = experiment(row, true_params, seed + row.seed_offset, platform_window)
        est = fit(exp, held, row.names, guess, jobs)
        runs[row.record] = FitRun(row, exp, held, guess, est)
        held = held.replace(**{_FIELD.get(n, n): v for n, v in est.as_dict().items()})
    return runs
