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
        _set_checked(self, {name: getattr(self, name) for name in PARAM_FIELDS})

    def replace(self, **changes: float) -> "RobotParams":
        """A copy with ``changes``, which alone are cast and checked: the
        rest are this instance's, already valid."""
        unknown = changes.keys() - _FIELDS
        if unknown:
            raise TypeError(f"RobotParams has no field {sorted(unknown)[0]!r}")
        new = object.__new__(RobotParams)
        new.__dict__.update(self.__dict__)
        _set_checked(new, changes)
        return new

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(RobotParams))


def _set_checked(params: RobotParams, values: dict) -> None:
    """Set the fields in ``values`` on ``params`` as floats, once checked:
    lengths, masses and inertias positive, frictions non-negative, all
    finite, in that order, each group in PARAM_FIELDS order."""
    cast = {name: float(values[name]) for name in PARAM_FIELDS if name in values}
    for name, value in cast.items():
        if name in _POSITIVE and not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    for name, value in cast.items():
        if name in _NON_NEGATIVE and value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    for name, value in cast.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    params.__dict__.update(cast)  # what object.__setattr__ does, field by field


_FIELDS = frozenset(PARAM_FIELDS)
_POSITIVE = {"l1", "l2", "r", "mc", "mp", "Ic", "Ip", "Ia"}
_NON_NEGATIVE = {"bw", "bp"}


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
