"""Per-layer tracing of otbot, done from outside the package.

Every public function of a layer module (and every public method, plus
``__post_init__`` and the arithmetic operators, of each class the module
defines) is replaced by a wrapper that counts calls and accumulates
inclusive and self time. A function is patched in every ``otbot`` module
that imported it by name, so ``from .dynamics import state_derivative``
call sites are traced too. Calls are aggregated per function, not kept as
single spans: the hot leaves run hundreds of thousands of times per op.

Self time is a call's duration minus the time of the traced calls it made,
so the self times of all functions sum to the inclusive time of the
outermost call and never overlap. Time spent in untraced code (numpy,
scipy, closures, private helpers, ``otbot.params``) counts to the nearest
traced caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# The layers are this repository's modules; otbot.params is not a layer.
LAYERS = (
    "cli",
    "control",
    "dynamics",
    "identify",
    "integrator",
    "interval",
    "model",
    "references",
    "scenarios",
    "sensors",
    "simulate",
)

_DUNDERS = ("__post_init__", "__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    """Installs the wrappers, collects per-function records, removes them."""

    def __init__(self) -> None:
        # name -> [layer, calls, inclusive_s, self_s]
        self.records: dict[str, list] = {}
        self.counts = {"integrator.steps": 0, "integrator.rejected": 0, "control.fevals": 0}
        self._stack = [0.0]  # child-time accumulator per open call
        self._control_depth = [0]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        rec = self.records.setdefault(name, [layer, 0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        enter = exit_ = None
        if layer == "control":
            depth = self._control_depth

            def enter(args, kwargs):
                depth[0] += 1

            def exit_(args, kwargs, state):
                depth[0] -= 1
        elif name == "dynamics.state_derivative":
            depth, counts = self._control_depth, self.counts

            def enter(args, kwargs):
                if depth[0]:
                    counts["control.fevals"] += 1
        elif name == "integrator.advance_segment":
            counts = self.counts

            def _stats(args, kwargs):
                return kwargs["stats"] if "stats" in kwargs else args[5]

            def enter(args, kwargs):
                s = _stats(args, kwargs)
                return s.accepted, s.rejected

            def exit_(args, kwargs, state):
                s = _stats(args, kwargs)
                counts["integrator.steps"] += s.accepted - state[0]
                counts["integrator.rejected"] += s.rejected - state[1]

        if enter is None:

            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec[1] += 1
                    rec[2] += dt
                    rec[3] += dt - child

        else:

            def traced(*args, **kwargs):
                state = enter(args, kwargs)
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec[1] += 1
                    rec[2] += dt
                    rec[3] += dt - child
                    if exit_ is not None:
                        exit_(args, kwargs, state)

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"otbot.{name}") for name in LAYERS}
        otbot_modules = [m for n, m in sorted(sys.modules.items()) if n == "otbot" or n.startswith("otbot.")]
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj) and not attr.startswith("_"):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", layer)
                    for other in otbot_modules:
                        for name, value in list(vars(other).items()):
                            if value is obj:
                                self._set(other, name, wrapped)

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, layer))
            elif callable(raw) and not isinstance(raw, type):
                wrapped = self._wrap(raw, name, layer)
            else:
                continue
            self._set(cls, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return sum(r[3] for r in self.records.values() if r[0] == layer)

    def calls(self, layer: str, suffix: str = "") -> int:
        return sum(r[1] for n, r in self.records.items() if r[0] == layer and n.endswith(suffix))

    def record(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive_s, self_s) of one traced function."""
        _, calls, incl, self_ = self.records.get(name, (None, 0, 0.0, 0.0))
        return calls, incl, self_
