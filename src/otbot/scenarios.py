"""Scenario configs: parsing, validation, and the bundled set.

A scenario file is flat INI: a [scenario] section with name/mode/horizon,
then mode-specific sections. Keys are case-sensitive, and a key that its
section does not define is an error; [sensors] and [disturbances] name
their own keys. A section that the scenario's mode does not read is an
error too (see ``SECTION_KEYS``). Modes:

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

import numpy as np

from .control import FEASIBILITY_RATE, reference_start_state
from .dynamics import RobotState, admissible_state, inverse_dynamics, admissible_acceleration
from .integrator import IntegratorOptions, IntegratorStats, advance_segment
from .model import lambda_delta
from .params import PARAM_FIELDS, RobotParams, load_params, nominal_params
from .references import (
    CorridorReference,
    Figure8Reference,
    HarmonicReference,
    ReferenceTrajectory,
)
from .simulate import DisturbanceSchedule, ForcePulse, SimTrajectory, trajectory_to_csv, whole_periods

BUNDLED_SCENARIOS = (
    "wheel-spin",
    "platform-spin",
    "chassis-excitation",
    "corridor",
    "plan-tracking",
    "figure8",
)

MODES = ("shaft", "torques", "controller", "plan")

# the keys each section may set (None leaves the key names to the file) and
# the modes that read it; a plan scenario does not read [control] reference
SECTION_KEYS = {
    "scenario": (("name", "mode", "description", "horizon", "seed"), MODES),
    "params": (("file", *PARAM_FIELDS), MODES),
    "initial": (("q", "velocity"), ("torques", "controller")),
    "torques": (("values", "rate"), ("torques",)),
    "shaft": (("axis", "torque", "rate"), ("shaft",)),
    "control": (("reference", "t_stab", "rate"), ("controller", "plan")),
    "plan": (("file", "rate", "mass_error"), ("plan",)),
    "sensors": (None, ("shaft", "torques")),
    "disturbances": (None, ("controller",)),
}


class ConfigError(Exception):
    """Scenario or parameter file problem; the message names the file."""


def make_reference(name: str) -> ReferenceTrajectory:
    table = {
        "corridor": CorridorReference,
        "figure8": Figure8Reference,
        "harmonic": HarmonicReference,
    }
    if name not in table:
        raise ConfigError(f"unknown reference {name!r} (choose from {sorted(table)})")
    return table[name]()


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
    plan_file: Path | None = None
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
        if self.mode not in MODES:
            raise ConfigError(f"{self.path}: unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"{self.path}: seed must be a non-negative integer, got {self.seed}")
        if self.mode == "shaft" and self.axis not in ("wheel", "platform"):
            raise ConfigError(f"{self.path}: shaft mode needs axis = wheel | platform")
        if self.mode == "torques" and self.torques is None:
            raise ConfigError(f"{self.path}: torques mode needs a [torques] section")
        if self.mode == "controller" and self.reference is None:
            raise ConfigError(f"{self.path}: controller mode needs a reference")
        # a controller runs for its horizon (the cli checks it against the
        # [control] rate, which --rate overrides); an unknown reference raises
        ref_horizon = make_reference(self.reference).horizon if self.mode == "controller" else None
        if self.velocity not in ("rest", "reference"):
            raise ConfigError(f"{self.path}: velocity must be rest or reference")
        for key, value in (
            ("[scenario] horizon", self.horizon),
            ("[control] t_stab", self.t_stab),
            ("[control] rate", self.loop_rate),
            ("[torques] rate", self.torque_rate),
            ("[shaft] rate", self.shaft_rate),
            ("[plan] rate", self.plan_rate),
            ("[sensors] rate", self.sensor_rate),
        ):
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(
                    f"{self.path}: {key} must be a finite positive number, got {value!r}"
                )
        if not math.isfinite(self.shaft_torque):
            raise ConfigError(f"{self.path}: [shaft] torque must be finite, got {self.shaft_torque!r}")
        if not (math.isfinite(self.plan_mass_error) and self.plan_mass_error > -1.0):
            raise ConfigError(f"{self.path}: [plan] mass_error must be finite and above -1, "
                              f"got {self.plan_mass_error!r}")
        hold_rate = {"shaft": self.shaft_rate, "torques": self.torque_rate}.get(self.mode)
        if hold_rate is not None and whole_periods(self.horizon, hold_rate) is None:
            what = "shorter than one period" if round(self.horizon * hold_rate) < 1 else "not whole periods"
            raise ConfigError(f"{self.path}: [scenario] horizon {self.horizon!r} s is {what} "
                              f"of [{self.mode}] rate {hold_rate!r} Hz")
        if ref_horizon is not None and not self.horizon <= ref_horizon:
            raise ConfigError(f"{self.path}: [scenario] horizon {self.horizon!r} s runs past the "
                              f"{ref_horizon!r} s of the {self.reference} reference")
        if ref_horizon is not None and whole_periods(self.horizon, FEASIBILITY_RATE) is None:
            raise ConfigError(f"{self.path}: [scenario] horizon {self.horizon!r} s is not whole "
                              f"periods of the {FEASIBILITY_RATE!r} Hz feasibility grid")
        for kind, sigma in self.sensors.items():
            needs = {"encoder": "a shaft axis", "imu": "the whole robot"}.get(kind)
            if needs is None:
                raise ConfigError(f"{self.path}: [sensors] unknown sensor kind {kind!r} (imu or encoder)")
            if (kind == "encoder") != (self.mode == "shaft"):
                raise ConfigError(f"{self.path}: [sensors] {kind} needs {needs}, "
                                  f"which a {self.mode} scenario does not have")
            if not 0.0 <= sigma < math.inf:
                raise ConfigError(f"{self.path}: [sensors] {kind} must be finite and non-negative, "
                                  f"got {sigma!r}")


def float_list(text: str, count: int, what: str) -> np.ndarray:
    """The ``count`` finite comma-separated numbers of ``text``; a ConfigError names ``what``."""
    try:
        values = np.array([float(part) for part in text.split(",")])
    except ValueError:
        values = None
    if values is None or values.shape != (count,) or not np.isfinite(values).all():
        raise ConfigError(f"{what} needs {count} values, comma-separated and finite, got {text!r}")
    return values


def parse_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    ini = configparser.ConfigParser(inline_comment_prefixes=("#",))
    ini.optionxform = str  # keep the case of keys such as Ic and xB
    try:
        ini.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if "scenario" not in ini:
        raise ConfigError(f"{path}: missing [scenario] section")
    mode = ini["scenario"].get("mode", "")
    for section in ini.sections():
        if section not in SECTION_KEYS:
            raise ConfigError(
                f"{path}: unknown section [{section}] (expected one of {', '.join(SECTION_KEYS)})"
            )
        keys, modes = SECTION_KEYS[section]
        for key in ini[section] if keys is not None else ():
            if key not in keys:
                raise ConfigError(
                    f"{path}: [{section}] unknown key {key!r} (expected one of {', '.join(keys)})"
                )
        if mode in MODES and mode not in modes:
            raise ConfigError(f"{path}: a {mode} scenario does not read [{section}]")
    if mode == "plan" and ini.has_option("control", "reference"):
        raise ConfigError(f"{path}: a plan scenario does not read [control] reference")
    base = ini["scenario"]
    try:
        cfg = ScenarioConfig(
            name=base.get("name", path.stem),
            mode=mode,
            horizon=base.getfloat("horizon", 0.0),
            seed=base.getint("seed", 0),
            description=base.get("description", ""),
            path=path,
        )

        if "params" in ini:
            sect = dict(ini["params"])
            file_ref = sect.pop("file", None)
            params = load_params(path.parent / file_ref) if file_ref else nominal_params()
            overrides = {key: float(val) for key, val in sect.items()}
            cfg.params = params.replace(**overrides) if overrides else params

        if "initial" in ini:
            sect = ini["initial"]
            if sect.get("q"):
                cfg.q0 = float_list(sect["q"], 6, f"{path}: [initial] q")
            cfg.velocity = sect.get("velocity", "rest")

        if "torques" in ini:
            cfg.torques = float_list(ini["torques"]["values"], 3, f"{path}: [torques] values")
            cfg.torque_rate = ini["torques"].getfloat("rate", 100.0)

        if "shaft" in ini:
            cfg.axis = ini["shaft"].get("axis")
            cfg.shaft_torque = ini["shaft"].getfloat("torque", 0.0)
            cfg.shaft_rate = ini["shaft"].getfloat("rate", 100.0)

        if "control" in ini:
            sect = ini["control"]
            cfg.reference = sect.get("reference", cfg.reference)
            cfg.t_stab = sect.getfloat("t_stab", 3.0)
            cfg.loop_rate = sect.getfloat("rate", 1000.0)

        if "plan" in ini:
            sect = ini["plan"]
            if sect.get("file"):
                cfg.plan_file = path.parent / sect["file"]
            cfg.plan_rate = sect.getfloat("rate", 100.0)
            cfg.plan_mass_error = sect.getfloat("mass_error", 0.05)

        if "sensors" in ini:
            sect = dict(ini["sensors"])
            cfg.sensor_rate = float(sect.pop("rate", 100.0))
            cfg.sensors = {kind: float(sigma) for kind, sigma in sect.items()}

        if "disturbances" in ini:
            pulses = []
            for key, text in ini["disturbances"].items():
                vals = float_list(text, 4, f"{path}: [disturbances] {key} (t_on, t_off, fx, fy)")
                pulses.append(ForcePulse(vals[0], vals[1], fx=vals[2], fy=vals[3]))
            cfg.disturbances = DisturbanceSchedule(pulses=tuple(pulses))
    except ConfigError:
        raise
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    cfg.validate()
    return cfg


def _bundle_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def bundled_scenario_path(name: str) -> Path:
    path = _bundle_dir() / f"{name}.cfg"
    if not path.exists():
        raise ConfigError(
            f"unknown scenario {name!r} (bundled: {', '.join(BUNDLED_SCENARIOS)})"
        )
    return path


def load_scenario(name_or_path: str | Path) -> ScenarioConfig:
    """Accept a bundled scenario name or a path to a scenario file."""
    candidate = Path(name_or_path)
    if candidate.suffix == ".cfg" or candidate.exists():
        return parse_scenario(candidate)
    return parse_scenario(bundled_scenario_path(str(name_or_path)))


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


def plan_path(cfg: ScenarioConfig, out_dir: Path) -> Path:
    """Where the scenario's plan is: its own file, else that name in ``out_dir``."""
    target = cfg.plan_file
    if target is not None and target.exists():
        return target
    return out_dir / (target.name if target is not None else "plan.csv")


def ensure_plan(cfg: ScenarioConfig, out_dir: Path) -> Path:
    """Resolve the scenario's plan file (see :func:`plan_path`), generating it if absent."""
    path = plan_path(cfg, out_dir)
    if not path.exists():
        plan = build_plan(
            cfg.params,
            horizon=cfg.horizon,
            rate=cfg.plan_rate,
            mass_error=cfg.plan_mass_error,
        )
        trajectory_to_csv(plan, path)
    return path
