"""Scenario configs: parsing, validation, and the bundled set.

A scenario file is flat INI: a [scenario] section with name/mode/horizon,
then mode-specific sections. ``SCHEMA`` is the one table of its keys: what
each sets, how it is read and checked, and the modes that read it. Keys are
case-sensitive; a key that its section does not define, or that the
scenario's mode does not read, is an error. [sensors] and [disturbances]
name their own keys. Modes:

* ``shaft``      one motor shaft under constant torque (bench test)
* ``torques``    whole robot open loop under held torques
* ``controller`` closed-loop tracking of a named reference
* ``plan``       closed-loop tracking of a planned state/action file

Bundled scenarios live next to this module and are addressed by name.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .control import FEASIBILITY_RATE, reference_start_state, tune_gains
from .dynamics import RobotState, admissible_state, inverse_dynamics, admissible_acceleration
from .integrator import IntegratorOptions, IntegratorStats, advance_segment
from .model import lambda_delta
from .params import PARAM_FIELDS, RobotParams, load_params, nominal_params
from .references import CorridorReference, Figure8Reference, HarmonicReference, ReferenceTrajectory
from .simulate import (_EVENT_MERGE_TOL, MAX_PERIODS, DisturbanceSchedule, ForcePulse, SimTrajectory,
                       whole_periods)

BUNDLED_SCENARIOS = (
    "wheel-spin",
    "platform-spin",
    "chassis-excitation",
    "corridor",
    "plan-tracking",
    "figure8",
)

MODES = ("shaft", "torques", "controller", "plan")
REFERENCES = {"corridor": CorridorReference, "figure8": Figure8Reference, "harmonic": HarmonicReference}


class ConfigError(Exception):
    """Scenario or parameter file problem; the message names the file."""


def make_reference(name: str) -> ReferenceTrajectory:
    if name not in REFERENCES:
        raise ConfigError(f"unknown reference {name!r} (choose from {sorted(REFERENCES)})")
    return REFERENCES[name]()


# checks: what is wrong with a value, or None; ``checked`` words the error
def positive(value) -> str | None:
    return None if math.isfinite(value) and value > 0.0 else "must be a finite positive number"


# a rate [Hz] needs a period longer than the time resolution of a rollout's
# events, within which two times are one instant (a larger rate cannot be run)
def frequency(value) -> str | None:
    return positive(value) or (None if 1.0 / value > _EVENT_MERGE_TOL
                               else f"must have a period above {_EVENT_MERGE_TOL!r} s")


def non_negative(value) -> str | None:
    return None if math.isfinite(value) and value >= 0.0 else "must be finite and non-negative"


def natural(value: int) -> str | None:
    return None if value >= 0 else "must be a non-negative integer"


def _finite(value) -> str | None:
    return None if math.isfinite(value) else "must be finite"


# a planner's chassis mass is (1 + mass_error) times the true one: from none to twice it
def _mass_error(value) -> str | None:
    return None if -1.0 < value <= 1.0 else "must be above -1 and at most 1"


# a stabilisation time [s] whose gains (tune_gains) a run can use
def stabilisation_time(value) -> str | None:
    try:
        with np.errstate(over="ignore"):
            gains = tune_gains(value)
        usable = all(np.finfo(float).tiny <= g < math.inf for g in (*gains.kp, *gains.kv))
    except ValueError:  # not positive, or a gain that underflows to 0
        usable = False
    return None if usable else ("must be positive with finite, normal gains "
                                "kp = 160 / t_stab**2, kv = 44 / t_stab")


def _one_of(*choices: str):
    return lambda value: None if value in choices else f"must be one of {', '.join(choices)}"


def checked(what: str, value, check):
    """``value``, or a ConfigError naming ``what`` if ``check`` (if any) finds it wrong."""
    problem = check(value) if check is not None else None
    if problem:
        raise ConfigError(f"{what} {problem}, got {value!r}")
    return value


# the most periods of one rate that a run holds: its tables have a row per
# period, and 10**7 rows of a 12-state trajectory and its derivative are 1.9 GB
MAX_ROWS = 10**7


def periods(what: str, length: float, rate_what: str, rate: float) -> int:
    """The periods of ``rate`` [Hz] in ``length`` [s], which a run needs a whole
    number of, from 1 to MAX_ROWS; a ConfigError names ``what`` and ``rate_what``."""
    checked(what, length, positive)
    checked(rate_what, rate, frequency)
    n = whole_periods(length, rate)
    held = f"{what} {length!r} s holds {length * rate!r} periods of {rate_what} {rate!r} Hz"
    if n is None:
        raise ConfigError(f"{held}, not a whole number from 1 to {MAX_PERIODS}")
    if n > MAX_ROWS:
        raise ConfigError(f"{held}, more than the {MAX_ROWS} that a run may hold")
    return n


def float_list(text: str, count: int, what: str) -> np.ndarray:
    """The ``count`` finite comma-separated numbers of ``text``; a ConfigError names ``what``."""
    try:
        values = np.array([float(part) for part in text.split(",")])
    except ValueError:
        values = None
    if values is None or values.shape != (count,) or not np.isfinite(values).all():
        raise ConfigError(f"{what} needs {count} values, comma-separated and finite, got {text!r}")
    return values


# readers: read(text, what, folder) is the value of a key's text; ``what``
# names the key in errors, ``folder`` holds the scenario file
def _typed(convert, noun: str):
    def read(text: str, what: str, folder: Path):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"{what} must be {noun}, got {text!r}") from None

    return read


_text, _number, _integer = _typed(str, "text"), _typed(float, "a number"), _typed(int, "an integer")


def _floats(count: int):
    return lambda text, what, folder: float_list(text, count, what)


def _pulse(text: str, what: str, folder: Path) -> ForcePulse:
    t_on, t_off, fx, fy = float_list(text, 4, f"{what} (t_on, t_off, fx, fy)")
    return ForcePulse(t_on, t_off, fx=fx, fy=fy)


@dataclass(frozen=True)
class Key:
    """A ``SCHEMA`` row: the ``ScenarioConfig`` field a key sets (a ``RobotParams``
    one for [params]), its reader and check, the modes that read it, and whether
    they need it. Key ``*`` stands for the keys a section names; they fill a dict."""

    field: str
    read: Callable
    check: Callable | None = None
    modes: tuple[str, ...] = MODES
    required: bool = False


_TRACKING, _SENSED, _ROBOT = ("controller", "plan"), ("shaft", "torques"), ("torques", "controller")
SCHEMA = {
    ("scenario", "name"): Key("name", _text),
    ("scenario", "mode"): Key("mode", _text, _one_of(*MODES), required=True),
    ("scenario", "description"): Key("description", _text),
    ("scenario", "horizon"): Key("horizon", _number, positive, required=True),
    ("scenario", "seed"): Key("seed", _integer, natural),
    ("params", "file"): Key("params", lambda text, what, folder: load_params(folder / text)),
    **{("params", name): Key(name, _number, _finite) for name in PARAM_FIELDS},
    ("initial", "q"): Key("q0", _floats(6), None, _ROBOT),
    ("initial", "velocity"): Key("velocity", _text, _one_of("rest", "reference"), _ROBOT),
    ("torques", "values"): Key("torques", _floats(3), None, ("torques",), True),
    ("torques", "rate"): Key("torque_rate", _number, frequency, ("torques",)),
    ("shaft", "axis"): Key("axis", _text, _one_of("wheel", "platform"), ("shaft",), True),
    ("shaft", "torque"): Key("shaft_torque", _number, _finite, ("shaft",)),
    ("shaft", "rate"): Key("shaft_rate", _number, frequency, ("shaft",)),
    ("control", "reference"): Key("reference", _text, _one_of(*REFERENCES), ("controller",), True),
    ("control", "t_stab"): Key("t_stab", _number, stabilisation_time, _TRACKING),
    ("control", "rate"): Key("loop_rate", _number, frequency, _TRACKING),
    ("plan", "rate"): Key("plan_rate", _number, frequency, ("plan",)),
    ("plan", "mass_error"): Key("plan_mass_error", _number, _mass_error, ("plan",)),
    ("sensors", "rate"): Key("sensor_rate", _number, frequency, _SENSED),
    ("sensors", "*"): Key("sensors", _number, non_negative, _SENSED),
    ("disturbances", "*"): Key("disturbances", _pulse, None, ("controller",)),
}
SECTIONS = tuple(dict.fromkeys(section for section, _ in SCHEMA))


@dataclass
class ScenarioConfig:
    """Parsed scenario file, resolved against its own directory."""

    name: str
    mode: str
    horizon: float
    path: Path
    description: str = ""
    seed: int = 0
    params: RobotParams = field(default_factory=nominal_params)
    params_file: Path | None = None  # the [params] file, which params start from
    q0: np.ndarray = field(default_factory=lambda: np.zeros(6))
    velocity: str = "rest"  # rest | reference
    torques: np.ndarray | None = None
    torque_rate: float = 100.0
    axis: str | None = None
    shaft_torque: float = 0.0
    shaft_rate: float = 100.0
    reference: str | None = None
    t_stab: float = 3.0
    loop_rate: float = 1000.0
    plan_rate: float = 100.0
    plan_mass_error: float = 0.05
    sensors: dict[str, float] = field(default_factory=dict)
    sensor_rate: float = 100.0
    disturbances: DisturbanceSchedule = field(default_factory=DisturbanceSchedule)

    def initial_state(self, ref: ReferenceTrajectory | None = None) -> RobotState:
        if self.velocity == "rest":
            return RobotState.rest(self.q0.copy())
        if ref is None:
            raise ConfigError(f"{self.path}: velocity = reference needs a reference")
        return reference_start_state(self.params, ref)

    def validate(self) -> None:
        """The checks that join keys; ``SCHEMA`` checks each key alone."""
        # the run is whole periods of each rate it holds or samples at; a
        # tracking run's [control] rate, which --rate overrides, is the cli's
        horizon = f"{self.path}: [scenario] horizon"
        hold_rate = {"shaft": self.shaft_rate, "torques": self.torque_rate,
                     "plan": self.plan_rate}.get(self.mode)
        if hold_rate is not None:
            periods(horizon, self.horizon, f"{self.path}: [{self.mode}] rate", hold_rate)
        if self.mode in _SENSED:
            periods(horizon, self.horizon, f"{self.path}: [sensors] rate", self.sensor_rate)
        if self.mode == "controller":
            ref_horizon = make_reference(self.reference).horizon
            if not self.horizon <= ref_horizon:
                raise ConfigError(f"{horizon} {self.horizon!r} s runs past the "
                                  f"{ref_horizon!r} s of the {self.reference} reference")
            periods(horizon, self.horizon, "the feasibility grid", FEASIBILITY_RATE)
        for kind in self.sensors:
            needs = {"encoder": "a shaft axis", "imu": "the whole robot"}.get(kind)
            if needs is None:
                raise ConfigError(f"{self.path}: [sensors] unknown sensor kind {kind!r} (imu or encoder)")
            if (kind == "encoder") != (self.mode == "shaft"):
                raise ConfigError(f"{self.path}: [sensors] {kind} needs {needs}, "
                                  f"which a {self.mode} scenario does not have")


def parse_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    # text is read verbatim (no % interpolation), and [DEFAULT] is no special section
    ini = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    ini.optionxform = str  # keep the case of keys such as Ic and xB
    try:
        ini.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if "scenario" not in ini:
        raise ConfigError(f"{path}: missing [scenario] section")
    # the mode picks the keys the file may set, so it is read first
    mode = ini["scenario"].get("mode", "")
    checked(f"{path}: [scenario] mode", mode, SCHEMA["scenario", "mode"].check)
    fields: dict = {"name": path.stem, "path": path}
    for section in ini.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}] (expected one of {', '.join(SECTIONS)})")
        for key, text in ini[section].items():
            row = SCHEMA.get((section, key)) or SCHEMA.get((section, "*"))
            if row is None:
                keys = ", ".join(k for s, k in SCHEMA if s == section)
                raise ConfigError(f"{path}: [{section}] unknown key {key!r} (expected one of {keys})")
            if mode not in row.modes:
                raise ConfigError(f"{path}: a {mode} scenario does not read [{section}] {key}")
            what = f"{path}: [{section}] {key}"
            try:
                value = row.read(text, what, path.parent)
            except (ValueError, OSError) as exc:
                raise ConfigError(f"{what}: {exc}") from exc
            checked(what, value, row.check)
            if (section, key) in SCHEMA:
                fields[row.field] = value
            else:
                fields.setdefault(row.field, {})[key] = value
    for (section, key), row in SCHEMA.items():
        if row.required and mode in row.modes and row.field not in fields:
            raise ConfigError(f"{path}: a {mode} scenario needs [{section}] {key}")
    if ini.has_option("params", "file"):
        fields["params_file"] = path.parent / ini["params"]["file"]
    overrides = {name: fields.pop(name) for name in PARAM_FIELDS if name in fields}
    if "disturbances" in fields:
        fields["disturbances"] = DisturbanceSchedule(pulses=tuple(fields["disturbances"].values()))
    cfg = ScenarioConfig(**fields)
    try:
        cfg.params = cfg.params.replace(**overrides) if overrides else cfg.params
    except ValueError as exc:
        raise ConfigError(f"{path}: [params] {exc}") from exc
    cfg.validate()
    return cfg


def _bundle_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def bundled_scenario_path(name: str) -> Path:
    path = _bundle_dir() / f"{name}.cfg"
    if not path.exists():
        raise ConfigError(f"unknown scenario {name!r} (bundled: {', '.join(BUNDLED_SCENARIOS)})")
    return path


def load_scenario(name_or_path: str | Path) -> ScenarioConfig:
    """A bundled scenario by its bare name (no directory, no ``.cfg``), else a scenario file."""
    text = str(name_or_path)
    if Path(text).name == text and not text.endswith(".cfg"):
        return parse_scenario(bundled_scenario_path(text))
    return parse_scenario(text)


def scenario_listing() -> str:
    lines = []
    for name in BUNDLED_SCENARIOS:
        cfg = parse_scenario(bundled_scenario_path(name))
        lines.append(f"{name:20s} {cfg.description}")
    return "\n".join(lines)


def build_plan(
    params: RobotParams,
    horizon: float = 10.0,
    rate: float = 100.0,
    mass_error: float = 0.05,
    reference: ReferenceTrajectory | None = None,
) -> SimTrajectory:
    """Planned state/action sequence for the plan-tracking scenario.

    States sample a smooth reference exactly (the joint angles come from
    integrating the kinematic loop), while the torque commands are computed
    by inverse dynamics under a chassis mass off by ``mass_error``, the
    kind of model mismatch a planner ships with. Replaying the actions open
    loop therefore drifts; tracking the states closed loop does not.
    """
    ref = reference if reference is not None else HarmonicReference(horizon=horizon)
    planner_params = params.replace(mc=params.mc * (1.0 + mass_error))
    n = int(round(horizon * rate))
    dt = 1.0 / rate
    times = dt * np.arange(n + 1)

    def kinematics(t: float, q: list) -> list:
        lam, _ = lambda_delta(params, q)
        return (lam @ ref.sample(t)[1]).tolist()

    states = np.empty((n + 1, 12))
    controls = np.empty((n + 1, 3))
    opts = IntegratorOptions()
    stats = IntegratorStats()
    q = np.zeros(6)
    h = None
    for k in range(n + 1):
        t = float(times[k])
        p_d, v_d, a_d = ref.sample(t)
        q[:3] = p_d  # keep the task block exact; the loop integrates the rest
        state = admissible_state(params, q, dp=v_d)
        states[k] = state.as_vector()
        ddq = admissible_acceleration(planner_params, state.q, state.dq, a_d)
        controls[k] = inverse_dynamics(planner_params, state.q, state.dq, ddq)
        if k < n:
            q, _, h = advance_segment(
                kinematics, t, float(times[k + 1]), q, opts, stats, h_start=h
            )
    return SimTrajectory(times=times, states=states, controls=controls)
