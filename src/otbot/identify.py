"""Grey-box parameter identification by prediction-error minimization.

The plant is excited with held torques, sensors record noisy outputs, and a
bounded Levenberg-Marquardt solver on numpy alone adjusts a parameter subset
until the simulated outputs match the record. ``FITS`` lists the fits in
chain order, each holding fixed everything fitted before it:

1. basic: wheel and platform driven as isolated shafts, encoder rate
   output, fits (Ia, bw) and (Ip0, bp);
2. chassis: full robot under constant torques, inertial-unit output,
   fits (mc, Ic, xB, yB) with the platform unloaded;
3. working platform: same excitation over a short window, fits
   (mp, Ip, xF, yF) of the platform plus whatever load it carries.

Losses are unweighted sums of squared output residuals. Each parameter
subset is fitted once, its rollouts at one integrator tolerance. Each
residual evaluation of a fit is one rollout of the state and its
sensitivities to the fitted parameters, which also gives the exact
Jacobian of the residuals (see :func:`fit`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _ckernel, _task_space
from .integrator import IntegrationError, IntegratorOptions
from .params import RobotParams
from .sensors import ENCODER_SIGMA, SensorModel, SensorRecord, outputs, sample_sensors
from .simulate import ControlSequence, EventPlan, SimTrajectory, integrate, robot_model, shaft_model

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

# Solver settings: evaluation cap per parameter, relative loss and step
# tolerances, scaled-gradient tolerance and the initial damping relative to
# the scaled curvature
MAX_ITER = 200
FTOL = 1e-10
XTOL = 1e-10
GTOL = 1e-14
DAMPING = 1e-3


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

    ``plan`` is the event plan of the controls, sampled at every control
    instant and the end, built once: it made the record and serves every
    rollout of a fit. ``sensor_model`` is the sensor that recorded it.
    ``shaft`` names the RobotParams inertia and damping fields of an
    isolated-shaft record; None is the whole robot.
    """

    controls: ControlSequence
    plan: EventPlan = field(repr=False)
    record: SensorRecord
    sensor_model: SensorModel
    shaft: tuple[str, str] | None = None


@dataclass
class ParamEstimate:
    """Result of one fit: named values plus solver diagnostics."""

    names: tuple[str, ...]
    values: np.ndarray
    loss: float
    iterations: int
    converged: bool
    message: str = ""
    evaluations: int = 0

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
    """The record of ``row`` on the plant ``params`` at noise seed ``seed``:
    the outputs a fit predicts at ``params``, at the integrator's default
    tolerance, plus noise.

    ``window`` is the length of a record the row gives no duration;
    ``sigma`` overrides the row's sensor noise.
    """
    duration = window if row.duration is None else row.duration
    controls = ControlSequence.constant(row.torques, duration, SAMPLE_RATE)
    plan = EventPlan((controls.t0, controls.end_time), controls)
    model = SensorModel(kind=row.sensor, sigma=row.sigma if sigma is None else sigma,
                        axis=1 if row.shaft else None)
    traj, _ = _from_rest({}, params, row.shaft, plan, IntegratorOptions())
    return Experiment(controls, plan, sample_sensors(traj, model, seed), model, row.shaft)


# ---------------------------------------------------------------------------
# Loss


def predict_outputs(candidate: dict, fixed: RobotParams, exp: Experiment,
                    options: IntegratorOptions, sensitivities: bool = False):
    """Noise-free sensor outputs of the candidate model on the record grid.

    ``candidate`` maps fitted names to values; every other parameter is
    held at ``fixed``. With ``sensitivities``, the rollout carries the
    sensitivities of the state to the candidate's parameters, lane l to
    its l-th name, and this returns ``(outputs, derivatives)``: the same
    outputs to the bit, and their derivatives, one column of the last axis
    per name.
    """
    values = {_FIELD.get(n, n): v for n, v in candidate.items()}
    seeds = _seeds(exp.shaft, tuple(values)) if sensitivities else None
    traj, lanes = _from_rest(values, fixed, exp.shaft, exp.plan, options, seeds)
    if not sensitivities:
        return outputs(traj, exp.sensor_model)
    pred, derivatives = outputs(traj, exp.sensor_model, lanes)
    return pred, derivatives[..., : len(values)]


def _from_rest(values: dict, fixed: RobotParams, shaft: tuple[str, str] | None, plan: EventPlan,
               options: IntegratorOptions, seeds=None) -> tuple[SimTrajectory, int]:
    """The rollout on ``plan`` from rest of the isolated ``shaft``, or of the
    whole robot where None, with the RobotParams fields ``values`` and the
    rest of ``fixed``; with ``seeds`` (see :func:`_seeds`), of its states
    and their sensitivities, zero at the start. Returns the trajectory and
    its number of sensitivity lanes."""
    plant = (shaft_model(*(values.get(f, getattr(fixed, f)) for f in shaft), seeds) if shaft
             else robot_model(fixed.replace(**values), seeds))
    # the shaft's (angle, rate) or the robot's (q, dq)
    n = 2 if shaft else 12
    return integrate(plant, np.zeros(n * (1 + plant.lanes)), plan, options), plant.lanes


@functools.cache
def _seeds(shaft: tuple[str, str] | None, fields: tuple[str, ...]) -> tuple[float, ...]:
    """The ``dp`` of a rollout whose lane l follows ``fields[l]``: a 1 in
    its row of the shaft's (inertia, damping) or of ``_task_space.SEEDED``."""
    rows = shaft or _task_space.SEEDED
    kind = _ckernel.MODEL_INDEX["shaft_sensitivity" if shaft else "robot_sensitivity"]
    seeds = np.zeros((len(rows), _ckernel.MODELS[kind].lanes))
    for lane, name in enumerate(fields):
        seeds[rows.index(name), lane] = 1.0
    return tuple(seeds.ravel().tolist())


def prediction_error(
    candidate: dict,
    fixed: RobotParams,
    exp: Experiment,
    options: IntegratorOptions | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of squared output residuals of a candidate parameter subset, the
    residuals and their Jacobian, from one rollout of the state and its
    sensitivities to the candidate's parameters.

    Returns ``(epsilon, residuals, jacobian)`` with one residual entry per
    scalar output per sample and one Jacobian row per residual, a column per
    name. A candidate whose rollout cannot be integrated, or whose model
    divides by zero on the way (the rhs works on Python floats, which raise
    where numpy gave inf), gets ``epsilon = inf``, all-inf residuals and a
    zero Jacobian, which the solver treats as a rejected step rather than an
    error.
    """
    opts = options or IntegratorOptions()
    meas = exp.record.values
    res, jacobian = np.full(meas.size, np.inf), np.zeros((meas.size, len(candidate)))
    try:
        pred, derivatives = predict_outputs(candidate, fixed, exp, opts, sensitivities=True)
    except (IntegrationError, ArithmeticError):
        pass
    else:
        res, jacobian = (meas - pred).ravel(), -derivatives.reshape(jacobian.shape)
    return float(res @ res), res, jacobian


# ---------------------------------------------------------------------------
# Solver


def fit_trust_region(residual_fn, p0, bounds=(-np.inf, np.inf),
                     names: tuple[str, ...] | None = None) -> ParamEstimate:
    """Minimize ``sum(r**2)`` inside box bounds, where ``residual_fn(p)``
    returns ``(r, J)``: the residuals and their Jacobian at p.

    Bounded Levenberg-Marquardt (Moré 1978): steps solve ``(JᵀJ + mu D²) h
    = -Jᵀr``, D the running maximum of J's column norms, mu set by the gain
    ratio (Nielsen's rule). The active set holds on its bound a parameter
    whose gradient, or step, leaves the box, and frees one whose model
    gradient turns inward. Non-finite trial residuals reject a step. Stops on
    FTOL, XTOL or GTOL, named in ``message``, or unconverged after
    ``MAX_ITER * (len(p0) + 1)`` calls of ``residual_fn``, one per point
    (``evaluations``); ``iterations`` counts the Jacobians used. The loss at
    ``p0`` must be finite (else ValueError); the loss returned is no higher.
    """
    p = np.asarray(p0, dtype=float)
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    r, jac = residual_fn(p)
    loss = float(r @ r)
    if not np.isfinite(loss):
        raise ValueError("Residuals are not finite in the initial point")
    evaluations, used, scale, damping, growth, stop = 1, 1, np.zeros_like(p), DAMPING, 2.0, None
    while stop is None and evaluations < MAX_ITER * (len(p) + 1):
        grad, hess = jac.T @ r, jac.T @ jac
        scale = np.maximum(scale, np.sqrt(np.diag(hess)))
        d = np.where(scale > 0.0, scale, 1.0)
        # held: the bound a parameter is held on, nan where it is free
        held = np.where((p <= lo) & (grad > 0.0) | (p >= hi) & (grad < 0.0), p, np.nan)
        if np.all(~np.isnan(held) | (np.abs(grad) < GTOL * d)):
            stop = "gtol: the scaled gradient vanished"
            break
        a = hess + damping * np.diag(d**2)
        for _ in range(3 * len(p)):
            free, step = np.isnan(held), np.nan_to_num(held - p)
            step[free] = np.linalg.solve(a[np.ix_(free, free)], -grad[free] - a[np.ix_(free, ~free)] @ step[~free])
            out, pull = free & ((p + step < lo) | (p + step > hi)), grad + a @ step
            inward = ~free & ((held <= lo) & (pull < 0.0) | (held >= hi) & (pull > 0.0))
            if not (out.any() or inward.any()):
                break
            held = np.where(out, np.clip(p + step, lo, hi), held) if out.any() else np.where(inward, np.nan, held)
        trial = np.clip(p + step, lo, hi)
        step = trial - p
        # a step this short is not worth its rollout
        if np.linalg.norm(step) <= XTOL * (XTOL + np.linalg.norm(p)):
            stop = "xtol: the step fell below XTOL of the parameters"
            break
        r_new, jac_new = residual_fn(trial)
        evaluations += 1
        new = float(r_new @ r_new)
        predicted = -(2.0 * grad @ step + step @ hess @ step)
        # the gain ratio: -inf or nan, so a rejection, where the trial's residuals are not finite
        gain = (loss - new) / predicted if predicted > 0.0 else -1.0
        if gain > 0.0:
            if max(loss - new, predicted) < FTOL * loss:
                stop = "ftol: the loss fell by less than FTOL of itself"
            p, r, jac, loss = trial, r_new, jac_new, new
            used += stop is None
            damping, growth = damping * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
        else:
            damping, growth = damping * growth, growth * 2.0
    return ParamEstimate(names or tuple(f"p{i}" for i in range(len(p))), p, loss, used, stop is not None,
                         stop or "the evaluation cap was reached", evaluations)


def fit(exp: Experiment, fixed: RobotParams, names, guess: dict) -> ParamEstimate:
    """Fit ``names`` to the record of ``exp`` from ``guess``, the rest held at ``fixed``.

    Each point of the solver is one rollout of the state and its
    sensitivities (:func:`prediction_error`), so the residuals and their
    Jacobian come together, the Jacobian exact to rounding. The guess may
    be far off (an unknown load), so non-convergence is reported via the
    estimate rather than raised.
    """

    def residual(p):
        return prediction_error(dict(zip(names, p)), fixed, exp, FIT_TOLERANCE)[1:]

    return fit_trust_region(residual, [guess[n] for n in names], parameter_bounds(names), names)


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
            est = fit(exp, true_params, row.names, guess)
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
        est = fit(exp, held, row.names, guess)
        runs[row.record] = FitRun(row, exp, held, guess, est)
        held = held.replace(**{_FIELD.get(n, n): v for n, v in est.as_dict().items()})
    return runs
