"""Robot parameter set and its on-disk format.

Parameters are expressed in SI units. The geometric layout is a differential
drive chassis (wheel radius ``r``, half axle track ``l2``) carrying a platform
on a motorised pivot located ``l1`` ahead of the wheel axle midpoint. Centre
of mass offsets are given in the respective body frames, both of which have
their origin at the pivot point.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class RobotParams:
    """Physical parameters of the robot.

    l1, l2, r   pivot offset, half wheel separation, wheel radius [m]
    xB, yB      chassis centre of mass in the chassis frame [m]
    xF, yF      platform centre of mass in the platform frame [m]
    mc, mp      chassis mass (incl. wheels) and platform mass [kg]
    Ic, Ip      vertical inertias of chassis and platform about their own
                centres of mass [kg m^2]
    Ia          axial inertia of one wheel [kg m^2]
    bw, bp      viscous friction of a wheel axle / the pivot axle [N m s]
    """

    l1: float
    l2: float
    r: float
    xB: float
    yB: float
    xF: float
    yF: float
    mc: float
    mp: float
    Ic: float
    Ip: float
    Ia: float
    bw: float
    bp: float

    def __post_init__(self) -> None:
        # Stored as Python floats: the closed-form dynamics does scalar
        # arithmetic on these fields, which is several times slower on the
        # numpy scalars a least-squares solver hands to replace().
        for name in PARAM_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("l1", "l2", "r"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("mc", "mp", "Ic", "Ip", "Ia"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("bw", "bp"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in dataclasses.asdict(self):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def replace(self, **changes: float) -> "RobotParams":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(RobotParams))


def read_kv(path: str | Path, keys, check=None) -> dict[str, float]:
    """Read a flat ``key = value`` file of finite numbers.

    Blank lines and ``#`` comments are ignored. Every key must be one of
    ``keys`` and appear at most once, so a typo cannot silently fall back to
    a default. ``check(key, value)``, if given, returns what is wrong with a
    value, or None. Errors name the file and line.
    """
    path = Path(path)
    values: dict[str, float] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r} (expected one of {', '.join(keys)})")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = float(text)
        except ValueError:
            raise ValueError(f"{where}: {key} is not a number: {text!r}") from None
        if not math.isfinite(values[key]):
            raise ValueError(f"{where}: {key} must be finite, got {text!r}")
        problem = check(key, values[key]) if check else None
        if problem:
            raise ValueError(f"{where}: {key} {problem}, got {text!r}")
    return values


def load_params(path: str | Path) -> RobotParams:
    """Read a parameter file (see :func:`read_kv`) holding every robot parameter."""
    values = read_kv(path, PARAM_FIELDS)
    missing = [name for name in PARAM_FIELDS if name not in values]
    if missing:
        raise ValueError(f"{path}: missing parameters: {', '.join(missing)}")
    try:
        return RobotParams(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@functools.cache
def nominal_params() -> RobotParams:
    """Catalogue values of the physical robot (unloaded platform).

    Read once from the bundled ``scenarios/nominal.cfg``, the file the
    scenarios name; the instance is frozen, so every caller shares it.
    """
    return load_params(Path(__file__).parent / "scenarios" / "nominal.cfg")


def save_params(params: RobotParams, path: str | Path) -> None:
    path = Path(path)
    lines = [f"{name} = {getattr(params, name)!r}" for name in PARAM_FIELDS]
    path.write_text("\n".join(lines) + "\n")
