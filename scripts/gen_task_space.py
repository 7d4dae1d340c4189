#!/usr/bin/env python3
"""Generate ``src/otbot/_task_space.py``, the closed-form task-space model,
``src/otbot/_task_sensitivity.py``, its state sensitivities, and
``src/otbot/_dp5_robot.c``, the rollout loop of the robot and a shaft in C.

The task-space model of ``otbot.dynamics`` is

    Mbar(q) ddp + Cbar(q, dq) dp = u + Delta^T Qp

with Mbar = Delta^T M Lam, Cbar = Delta^T (M dLam + (C - Ef) Lam),
Lam = [I; M_IIK], Delta = [M_FIK; I] and dLam = [0; dM_IIK]. This script
evaluates ``otbot.model``'s ``mass_matrix``, ``coriolis_matrix``,
``fik_matrix``, ``iik_matrix`` and ``iik_matrix_rate`` on sympy symbols,
composes the products above once, and writes the entries as straight-line
float code after common-subexpression elimination. The generated module
uses the sin/cos pairs of alpha and theta = alpha - phi_p and never imports
sympy; sympy is only needed to run this script.

The second module holds ``robot_sensitivity`` and ``shaft_sensitivity``,
the rhs of a state and its sensitivities to the fitted parameters: a
forward-mode (tangent) transform (``_Tangent``) of the parsed robot rhs (the
body of ``accelerations``) and of ``otbot.simulate.shaft_derivative``, over
the lanes of their ``otbot._ckernel.MODELS`` rows. Only the Python engine
calls them, so they live apart and a compiled run never loads them.

Every generated C function passes through one translator of a parsed
float function (``_translate``): the robot's rhs and C task-space model from
the generated ``accelerations`` and ``task_space_model``, the shaft's rhs
from ``otbot.simulate.shaft_derivative``, the sensitivity rhs from the
generated ``robot_sensitivity`` and ``shaft_sensitivity`` (two lanes to a
``lanes2`` vector) and each Dormand-Prince attempt from
``otbot.integrator._step_source(n)``. Every operation is kept in the
Python order and fully parenthesised, so they compute the same bits as the
Python code (see ``otbot._ckernel`` for the compiler flags that this needs).
The rollout loop around them, with the computed-torque law of
``otbot.control.computed_torque`` and the first-step guess of
``otbot.integrator.initial_step``, is written out below; its step-control
constants are printed from ``otbot.integrator``, its struct from
``otbot._ckernel.Rollout`` and its model table from ``otbot._ckernel.MODELS``,
so ``--check`` sees any drift.

    python scripts/gen_task_space.py           # rewrite the three files
    python scripts/gen_task_space.py --check   # exit 1 if any is out of date

Every header records the SHA-256 of this file and the sympy version, so a
stale file is visible without sympy installed.
"""

from __future__ import annotations

import argparse
import ast
import copy
import ctypes
import difflib
import hashlib
import inspect
import itertools
import math
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import sympy as sp
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.pycode import PythonCodePrinter

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "otbot" / "_task_space.py"
SENSITIVITY_TARGET = ROOT / "src" / "otbot" / "_task_sensitivity.py"
C_TARGET = ROOT / "src" / "otbot" / "_dp5_robot.c"
sys.path.insert(0, str(ROOT / "src"))

from otbot import _ckernel, dynamics, integrator, model, simulate  # noqa: E402
from otbot.params import PARAM_FIELDS  # noqa: E402

INDENT = "    "
PREC = PRECEDENCE["Mul"]


class _SymbolicNumpy:
    """The slice of numpy that otbot.model uses, on object arrays."""

    @staticmethod
    def zeros(shape):
        return np.full(shape, sp.Integer(0), dtype=object)

    @staticmethod
    def array(rows):
        return np.array(rows, dtype=object)


def _symbols():
    p = SimpleNamespace(**{name: sp.Symbol(name) for name in PARAM_FIELDS})
    alpha, th = sp.symbols("alpha theta")
    dx, dy, da, dth = sp.symbols("dx dy da dth")
    # phi_p = alpha - theta and dphi_p = da - dth, so the model's own
    # differences q[2] - q[5] and dq[2] - dq[5] come out as theta and dth.
    q = [sp.Symbol("x"), sp.Symbol("y"), alpha, sp.Symbol("phi_r"), sp.Symbol("phi_l"), alpha - th]
    dq = [dx, dy, da, sp.Symbol("dphi_r"), sp.Symbol("dphi_l"), da - dth]
    return p, alpha, th, q, dq


def derive():
    """Symbolic Mbar, Cbar, M_IIK and dM_IIK from the model's own functions."""
    p, alpha, th, q, dq = _symbols()
    with mock.patch.object(model, "math", sp), mock.patch.object(model, "np", _SymbolicNumpy):
        m = sp.Matrix(model.mass_matrix(p, q))
        c = sp.Matrix(model.coriolis_matrix(p, q, dq))
        fik = sp.Matrix(model.fik_matrix(p, q))
        iik = sp.Matrix(model.iik_matrix(p, q))
        diik = sp.Matrix(model.iik_matrix_rate(p, q, dq))
    ef = sp.diag(*dynamics.friction_coefficients(p))
    eye = sp.eye(3)
    lam = sp.Matrix.vstack(eye, iik)
    delta = sp.Matrix.vstack(fik, eye)
    dlam = sp.Matrix.vstack(sp.zeros(3, 3), diik)
    mbar = delta.T * m * lam
    cbar = delta.T * (m * dlam + (c - ef) * lam)
    trig = {
        sp.cos(alpha): sp.Symbol("ca"),
        sp.sin(alpha): sp.Symbol("sa"),
        sp.cos(th): sp.Symbol("ct"),
        sp.sin(th): sp.Symbol("st"),
    }
    # The model's float literals (0.5, 1.0, 2.0) are exact; as rationals the
    # products with 1 and the paired halves and doubles cancel symbolically.
    out = []
    for x in (mbar, cbar, fik, iik, diik):
        x = x.xreplace(trig)
        out.append(x.xreplace({f: sp.Rational(f) for f in x.atoms(sp.Float)}))
    return out


def _params_used(exprs) -> list[str]:
    names = {s.name for e in exprs for s in e.free_symbols}
    return [name for name in PARAM_FIELDS if name in names]


class _FloatPrinter(PythonCodePrinter):
    """Python source for float arithmetic: squares as products.

    ``x**2`` on floats raises OverflowError where ``x*x`` gives inf, and the
    integrator needs the inf to reject a runaway trial step.
    """

    def _print_Pow(self, expr, rational=False):
        if expr.exp == 2:
            base = self.parenthesize(expr.base, PREC)
            return f"{base}*{base}"
        return super()._print_Pow(expr, rational=rational)


def _code(expr) -> str:
    return _FloatPrinter().doprint(expr)


def _block(outputs, names, prefix="t") -> list[str]:
    """CSE the outputs and emit ``name = expr`` lines for them."""
    temporaries = sp.numbered_symbols(prefix)
    replacements, reduced = sp.cse(outputs, symbols=temporaries, optimizations="basic")
    lines = [f"{v} = {_code(e)}" for v, e in replacements]
    return lines + [f"{n} = {_code(e)}" for n, e in zip(names, reduced)]


def _prologue(exprs) -> list[str]:
    """Read the parameters the expressions use, then the two sin/cos pairs."""
    return [f"{name} = p.{name}" for name in _params_used(exprs)] + _TRIG


_TRIG = ["ca = cos(alpha)", "sa = sin(alpha)", "ct = cos(theta)", "st = sin(theta)"]

# Explicit 3x3 solve Mbar ddp = b by cofactors.
_SOLVE = [
    "a00 = m11 * m22 - m12 * m21",
    "a01 = m02 * m21 - m01 * m22",
    "a02 = m01 * m12 - m02 * m11",
    "a10 = m12 * m20 - m10 * m22",
    "a11 = m00 * m22 - m02 * m20",
    "a12 = m02 * m10 - m00 * m12",
    "a20 = m10 * m21 - m11 * m20",
    "a21 = m01 * m20 - m00 * m21",
    "a22 = m00 * m11 - m01 * m10",
    "inv_det = 1.0 / (m00 * a00 + m01 * a10 + m02 * a20)",
    "ddx = (a00 * b0 + a01 * b1 + a02 * b2) * inv_det",
    "ddy = (a10 * b0 + a11 * b1 + a12 * b2) * inv_det",
    "dda = (a20 * b0 + a21 * b1 + a22 * b2) * inv_det",
]


# The tangent of the solve by its cofactors: d(ddp) = Mbar^-1 (db - dMbar ddp),
# through the r_i = (db - dMbar ddp)_i; d(v) is the tangent of v.
_SOLVE_TANGENT = {
    **{f"r{i}": f"d(b{i}) - (d(m{i}0) * ddx + d(m{i}1) * ddy + d(m{i}2) * dda)" for i in range(3)},
    **{v: f"(a{i}0 * d(r0) + a{i}1 * d(r1) + a{i}2 * d(r2)) * inv_det"
       for i, v in enumerate(("ddx", "ddy", "dda"))},
}


def _function(signature: str, doc: str, body: list[str], result: str) -> list[str]:
    return (
        [f"def {signature}:", f'{INDENT}"""{doc}"""']
        + [INDENT + line for line in body]
        + [f"{INDENT}return {result}", "", ""]
    )


# ---------------------------------------------------------------- tangents

# The robot parameters that identification fits (otbot.identify.FITS, the
# chassis and the platform step), in the order of their seed rows.
_SEEDED = ("mc", "Ic", "xB", "yB", "mp", "Ip", "xF", "yF")


def _load(name: str) -> ast.Name:
    return ast.Name(name, ast.Load())


def _assign(name: str, value: ast.expr) -> ast.Assign:
    return ast.Assign([ast.Name(name, ast.Store())], value, lineno=0)


class _Tangent:
    """Forward-mode (tangent) transform of the straight-line float function ``fn``.

    Each value v gets ``lanes`` tangents ``v_d<l>``, its derivatives along
    lane l. The seeds are leaves: the state component ``x[j]`` (j below
    ``size``) has the tangent ``x[size + lanes * j + l]``, its sensitivity,
    and the parameter spelled ``s`` (``p.mc``, ``inertia``) of ``seeds[s] =
    k`` the tangent ``dp[lanes * k + l]``; every other leaf is constant.
    Every operation with a nonzero tangent is named (``w<n>`` unless it
    assigns a local), so the primal statements compute the same operations
    in the same order, and the tangent statements follow them all, by the
    rules of +, -, *, /, negation, sin and cos, or for a local of ``rules``
    by its rule, in which ``d(v)`` is the tangent of v. A tangent that no
    returned value needs is left out. The function returns its values, then
    their tangents, value by value.
    """

    def __init__(self, fn: ast.FunctionDef, lanes: int, size: int, seeds: dict[str, int],
                 rules: dict[str, str] | None = None):
        self.fn, self.lanes, self.size, self.seeds = fn, lanes, size, seeds
        self.rules = {name: ast.parse(rule, mode="eval").body for name, rule in (rules or {}).items()}
        self.primal: list[ast.stmt] = []
        self.tangent: list[tuple[str, ast.expr]] = []
        self.d: dict[str, list[ast.expr]] = {}
        self.names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        # the sin and cos the function already takes of a name, by (function, name)
        self.trig = {(s.value.func.id, s.value.args[0].id): s.targets[0].id for s in fn.body
                     if isinstance(s, ast.Assign) and isinstance(s.value, ast.Call)
                     and isinstance(s.value.args[0], ast.Name)}
        self.count = 0

    def fresh(self) -> str:
        while f"w{self.count}" in self.names:
            self.count += 1
        self.count += 1
        return f"w{self.count - 1}"

    def lanes_of(self, vector: str, start: int) -> list[ast.expr]:
        """``vector[start + l]`` in each lane l."""
        return [ast.parse(f"{vector}[{start + l}]", mode="eval").body for l in range(self.lanes)]

    def leaf(self, node) -> list[ast.expr] | None:
        text = ast.unparse(node)
        if isinstance(node, ast.Name) and node.id in self.d:
            return self.d[node.id]
        if text in self.seeds:
            return self.lanes_of("dp", self.lanes * self.seeds[text])
        if isinstance(node, ast.Subscript) and text.startswith("x["):
            return self.lanes_of("x", self.size + self.lanes * node.slice.value)
        if isinstance(node, (ast.Name, ast.Attribute, ast.Constant)):
            return None
        raise ValueError(f"no tangent for {text!r}")

    def expr(self, node, target: str | None = None):
        """(the primal of ``node``, its lane tangents or None where they are zero)."""
        if isinstance(node, ast.BinOp) and type(node.op) in _C_OPS:
            children = [node.left, node.right]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            children = [node.operand]
        elif isinstance(node, ast.Call) and node.func.id in ("sin", "cos") and len(node.args) == 1:
            children = node.args
        else:
            return node, self.leaf(node)
        operands = [self.expr(child) for child in children]
        values = [v for v, _ in operands]
        value = (ast.BinOp(values[0], node.op, values[1]) if isinstance(node, ast.BinOp)
                 else ast.UnaryOp(node.op, values[0]) if isinstance(node, ast.UnaryOp)
                 else ast.Call(node.func, values, []))
        if all(d is None for _, d in operands):
            return value, None
        name = target or self.fresh()
        self.primal.append(_assign(name, value))
        rows = [self._rule(node, _load(name), [(v, d and d[l]) for v, d in operands])
                for l in range(self.lanes)]
        return _load(name), self._tangents(name, rows)

    def _tangents(self, name: str, rows: list[ast.expr]) -> list[ast.expr]:
        self.d[name] = [_load(f"{name}_d{l}") for l in range(self.lanes)]
        self.tangent += [(f"{name}_d{l}", row) for l, row in enumerate(rows)]
        return self.d[name]

    def _by_rule(self, name: str) -> list[ast.expr]:
        """The tangent of the local ``name`` by its rule."""
        if name not in self.d:
            rows = []
            for l in range(self.lanes):
                row = copy.deepcopy(self.rules[name])
                for node in ast.walk(row):
                    for field, child in ast.iter_fields(node):
                        if isinstance(child, ast.Call) and child.func.id == "d":
                            v = child.args[0].id
                            setattr(node, field, (self.d.get(v) or self._by_rule(v))[l])
                rows.append(row)
            self._tangents(name, rows)
        return self.d[name]

    def _other(self, func: str, arg: ast.expr) -> ast.expr:
        """The primal sin (or cos) of ``arg``: the function's own, or a new one."""
        key = (func, ast.unparse(arg))
        if key not in self.trig:
            self.trig[key] = self.fresh()
            self.primal.append(_assign(self.trig[key], ast.Call(_load(func), [arg], [])))
        return _load(self.trig[key])

    def _rule(self, node, q, operands) -> ast.expr:
        """The tangent of ``node``, whose value is ``q``, in one lane from
        its operands' (value, tangent), the tangent None where it is zero."""
        def op(x, o, y):
            return ast.BinOp(x, o(), y)

        def neg(x):
            return ast.UnaryOp(ast.USub(), x)

        (a, da), (b, db) = operands[0], (operands[1:] or [(None, None)])[0]
        if isinstance(node, ast.UnaryOp):
            return neg(da)
        if isinstance(node, ast.Call):
            if node.func.id == "sin":
                return op(self._other("cos", a), ast.Mult, da)
            return op(neg(self._other("sin", a)), ast.Mult, da)
        kind = type(node.op)
        if kind in (ast.Add, ast.Sub):
            if da is None:
                return db if kind is ast.Add else neg(db)
            return da if db is None else op(da, kind, db)
        if kind is ast.Mult:
            if da is None:
                return op(a, ast.Mult, db)
            return op(da, ast.Mult, b) if db is None else op(op(da, ast.Mult, b), ast.Add, op(a, ast.Mult, db))
        # (a / b)' = (da - q db) / b
        if db is None:
            return op(da, ast.Div, b)
        top = neg(op(q, ast.Mult, db)) if da is None else op(da, ast.Sub, op(q, ast.Mult, db))
        return op(top, ast.Div, b)

    def function(self, name: str, doc: str) -> list[str]:
        """Python source of the transform, ``name``: ``dp`` joins the
        arguments of ``fn`` before the state ``x``."""
        for stmt in self.fn.body:
            if isinstance(stmt, ast.Expr):
                continue
            if isinstance(stmt, ast.Return):
                values = [self.expr(v) for v in _values(stmt.value)]
                continue
            (target,) = stmt.targets
            if target.id in self.rules:
                self.primal.append(stmt)
                self._by_rule(target.id)
                continue
            value, d = self.expr(stmt.value, target.id)
            if not (isinstance(value, ast.Name) and value.id == target.id):
                self.primal.append(_assign(target.id, value))
                if d is not None:  # a seed under a local name
                    self.d[target.id] = d
        out = [v for v, _ in values] + [ast.Constant(0.0) if d is None else d[l]
                                        for _, d in values for l in range(self.lanes)]
        needed = {n.id for e in out for n in ast.walk(e) if isinstance(n, ast.Name)}
        kept = []
        for target, row in reversed(self.tangent):
            if target in needed:
                kept.append(_assign(target, row))
                needed |= {n.id for n in ast.walk(row) if isinstance(n, ast.Name)}
        args = [a.arg for a in self.fn.args.args]
        args.insert(args.index("x"), "dp")
        body = [ast.unparse(s) for s in self.primal + kept[::-1]]
        values = textwrap.fill(", ".join(ast.unparse(e) for e in out) + ",", 88,
                               initial_indent=2 * INDENT, subsequent_indent=2 * INDENT)
        return _function(f"{name}({', '.join(args)})", doc, body, f"(\n{values}\n{INDENT})")


def _robot_rhs(accel: ast.FunctionDef) -> ast.FunctionDef:
    """``robot_rhs(p, x, u0, u1, u2, fx, fy)``: dynamics.state_derivative on
    the 12-state x, the body of ``accelerations`` after its arguments."""
    head = "".join(f"    {a.arg} = {_STATE_ARGS[a.arg]}\n" for a in accel.args.args if a.arg in _STATE_ARGS)
    fn = ast.parse(f"def robot_rhs(p, x, u0, u1, u2, fx, fy):\n{head}").body[0]
    values = [*(ast.parse(f"x[{j}]", mode="eval").body for j in range(6, 12)), *_values(accel.body[-1].value)]
    fn.body += [s for s in accel.body[:-1] if not isinstance(s, ast.Expr)]
    fn.body.append(ast.Return(ast.Tuple(values, ast.Load())))
    return fn


def _tangent_functions(accel: ast.FunctionDef) -> list[str]:
    """``robot_sensitivity`` and ``shaft_sensitivity``, the sensitivity
    models of _ckernel.MODELS (their lanes from there), as Python."""
    shaft = _function_def(inspect.getsource(simulate), "shaft_derivative")
    shaft_params = [a.arg for a in shaft.args.args[:2]]
    plain = {  # rhs, its states, its seeded parameters and their doc, its tangent rules
        "robot": (_robot_rhs(accel), 12, [f"p.{n}" for n in _SEEDED], "the parameter _task_space.SEEDED[k]",
                  "dynamics.state_derivative", _SOLVE_TANGENT),
        "shaft": (shaft, 2, shaft_params, f"the k-th of ({', '.join(shaft_params)})",
                  "simulate.shaft_derivative", None),
    }
    lines = []
    for m in _ckernel.MODELS:
        if not m.lanes:
            continue
        fn, n, seeded, which, rhs, rules = plain[m.name.removesuffix("_sensitivity")]
        doc = (f"{rhs} of x[:{n}] and its tangents, in {m.lanes} lanes.\n\n"
               f"x[{n} + {m.lanes} * i + l] is the sensitivity of x[i] in lane l; {which} moves in "
               f"lane l by dp[{m.lanes} * k + l]. Returns the {n} values, then the {n * m.lanes} "
               "tangents, value by value.")
        paragraphs = [textwrap.fill(par, 76 - len(INDENT)) for par in doc.split("\n\n")]
        doc = ("\n\n".join(paragraphs) + "\n").replace("\n", "\n" + INDENT).replace(INDENT + "\n", "\n")
        tangent = _Tangent(fn, m.lanes, n, {s: k for k, s in enumerate(seeded)}, rules)
        lines += tangent.function(m.name, doc)
    return lines


def _stamp(comment: str, generator_sha256: str) -> list[str]:
    """The first three lines of a generated file, ``comment`` its comment marker."""
    return [f"{comment} Generated by scripts/gen_task_space.py; do not edit by hand.",
            f"{comment} generator sha256: {generator_sha256}", f"{comment} sympy {sp.__version__}"]


def render(generator_sha256: str) -> tuple[str, str]:
    """The sources of ``_task_space.py`` and ``_task_sensitivity.py``."""
    mbar, cbar, fik, iik, diik = derive()
    mnames = [f"m{i}{j}" for i in range(3) for j in range(3)]
    cnames = [f"c{i}{j}" for i in range(3) for j in range(3)]
    mbar_entries = [mbar[i, j] for i in range(3) for j in range(3)]
    cbar_entries = [cbar[i, j] for i in range(3) for j in range(3)]

    model_body = _prologue(mbar_entries + cbar_entries) + _block(
        mbar_entries + cbar_entries, mnames + cnames
    )
    model_fn = _function(
        "task_space_model(p, alpha, theta, da, dth)",
        "Entries of Mbar and Cbar, row by row, as two 9-tuples.",
        model_body,
        f"({', '.join(mnames)}), ({', '.join(cnames)})",
    )

    dp = sp.Matrix(sp.symbols("dx dy da"))
    rhs = sp.Matrix(sp.symbols("u0 u1 u2")) - cbar * dp + fik.T * sp.Matrix([*sp.symbols("fx fy"), 0])
    ddp = sp.Matrix(sp.symbols("ddx ddy dda"))
    ddphi = iik * ddp + diik * dp
    head = _prologue(mbar_entries + list(rhs) + list(ddphi)) + _block(
        mbar_entries + list(rhs), mnames + ["b0", "b1", "b2"]
    )
    tail = _block(list(ddphi), ["ddphi_r", "ddphi_l", "ddphi_p"], prefix="s")
    accel_fn = _function(
        "accelerations(p, alpha, theta, dx, dy, da, dth, u0, u1, u2, fx, fy)",
        "(ddp, ddphi) under torques u and a pivot force (fx, fy), as a 6-tuple.",
        head + _SOLVE + tail,
        "ddx, ddy, dda, ddphi_r, ddphi_l, ddphi_p",
    )

    header = [
        *_stamp("#", generator_sha256),
        '"""Closed-form task-space model: Mbar, Cbar and the forward accelerations.',
        "",
        "Arguments are the parameter set p, read by attribute, and plain floats:",
        "the platform angle alpha, the chassis heading theta = alpha - phi_p, the",
        "task velocity (dx, dy, da), the heading rate dth = da - dphi_p, the",
        "torques (u0, u1, u2) and the pivot force (fx, fy).",
        "",
        "The state sensitivities are in otbot._task_sensitivity.",
        '"""',
        "",
        "from math import cos, sin",
        "",
        "# the robot parameters a sensitivity lane can follow, by seed row",
        f"SEEDED = {_SEEDED!r}",
        "",
        "",
    ]
    sensitivity_header = [
        *_stamp("#", generator_sha256),
        '"""State sensitivities of the robot of otbot._task_space and of a shaft.',
        "",
        "robot_sensitivity and shaft_sensitivity are the rhs of a robot or shaft",
        "state x and its sensitivities, the tangent transform of the rhs: the",
        "same operations on x, then the derivatives of the rhs in each lane.",
        "Only the Python engine calls them; the compiled loop has its own.",
        '"""',
        "",
        "from math import cos, sin",
        "",
        "",
    ]
    tangents = _tangent_functions(_function_def("\n".join(accel_fn), "accelerations"))
    return tuple("\n".join(lines).rstrip("\n") + "\n"
                 for lines in (header + model_fn + accel_fn, sensitivity_header + tangents))


# ---------------------------------------------------------------- C rollout

# The arguments of ``accelerations`` as dynamics.state_derivative passes
# them, from the 12-state x = (q, dq): q[2], q[2] - q[5], dq[0], dq[1],
# dq[2], dq[2] - dq[5].
_STATE_ARGS = {"alpha": "x[2]", "theta": "(x[2] - x[5])", "dx": "x[6]", "dy": "x[7]", "da": "x[8]",
               "dth": "(x[8] - x[11])"}

# Nonzero statuses, each where the Python engine raises: a zero divisor, sin
# or cos of an infinite angle, a step underflow. The caller reruns the
# rollout in Python, which raises there.
_ZERO_DIVISOR, _INFINITE_ANGLE, _UNDERFLOW = 1, 2, 3

_C_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# names a generated local may not take: the C functions' arguments, the
# stage state and status, and the Bessel functions that math.h declares
_C_RESERVED = {"blk", "x", "k", "m", "c", "ys", "s", "y0", "y1", "yn", "j0", "j1", "jn"}
# the comment above a vector literal of the step source
_VECTOR_COMMENTS = {"y_new": "fifth-order solution", "err": "error estimate"}


class _CExpr:
    """C spelling of the float arithmetic of the generated Python.

    Every operation becomes one parenthesised C operation on doubles, in
    the order the Python evaluates it; integer literals become doubles and
    a name its spelling in ``names``. A division by a non-constant and a
    sin or cos first emit, into ``checks``, the test for the value on which
    Python raises; a variable is tested once per instance.
    """

    def __init__(self, names: dict[str, str], where: str):
        self.names = names
        self.where = where
        self.checks: list[str] = []
        self.checked: set[str] = set()
        self.temporaries = 0
        # the C vector of a pair of lane values, by their names
        self.vectors: dict[tuple[str, str], str] = {}

    def name(self, name: str) -> str:
        if name not in self.names:
            raise ValueError(f"unbound name {name!r} in {self.where}")
        return self.names[name]

    def __call__(self, node) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            value = float(node.value)
            if not math.isfinite(value):
                raise ValueError(f"non-finite literal {node.value!r}")
            return repr(value)
        if isinstance(node, ast.Name):
            return self.name(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return self.name(f"{node.value.id}.{node.attr}")
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and isinstance(node.slice, ast.Constant) and type(node.slice.value) is int):
            return f"{self.name(node.value.id)}[{node.slice.value}]"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self(node.operand)})"
        if isinstance(node, ast.BinOp) and type(node.op) in _C_OPS:
            return self._binary(node, self(node.left), self(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("sin", "cos") and len(node.args) == 1):
            arg = self(node.args[0])
            if not isinstance(node.args[0], ast.Name):
                arg = self._temporary(arg)
            self._check(arg, f"isinf({arg})", _INFINITE_ANGLE)
            return f"{node.func.id}({arg})"
        raise ValueError(f"no C translation for {ast.unparse(node)!r}")

    def _binary(self, node: ast.BinOp, left: str, right: str) -> str:
        if isinstance(node.op, ast.Div) and not isinstance(node.right, ast.Constant):
            if not isinstance(node.right, ast.Name):
                right = self._temporary(right)
            self._check(right, f"{right} == 0.0", _ZERO_DIVISOR)
        return f"({left} {_C_OPS[type(node.op)]} {right})"

    def pair(self, a, b) -> str:
        """C of the lanes a and b, the next lane of a, as one ``lanes2``
        vector: the two trees agree but in their lane leaves, a pair of
        names in ``vectors`` or of neighbouring entries ``v[j]``, ``v[j + 1]``;
        what agrees is a scalar in both lanes."""
        if ast.dump(a) == ast.dump(b):
            return self(a)
        if isinstance(a, ast.Name) and isinstance(b, ast.Name) and (a.id, b.id) in self.vectors:
            return self.vectors[a.id, b.id]
        if (isinstance(a, ast.Subscript) and isinstance(b, ast.Subscript) and ast.unparse(a.value) ==
                ast.unparse(b.value) and b.slice.value == a.slice.value + 1):
            v = self.name(a.value.id)
            return f"(lanes2){{{v}[{a.slice.value}], {v}[{b.slice.value}]}}"
        if isinstance(a, ast.UnaryOp) and isinstance(b, ast.UnaryOp) and isinstance(a.op, ast.USub):
            return f"(-{self.pair(a.operand, b.operand)})"
        if (isinstance(a, ast.BinOp) and isinstance(b, ast.BinOp) and type(a.op) is type(b.op)
                and type(a.op) in _C_OPS and not (isinstance(a.op, ast.Div)
                                                  and ast.dump(a.right) != ast.dump(b.right))):
            return self._binary(a, self.pair(a.left, b.left), self.pair(a.right, b.right))
        raise ValueError(f"lanes {ast.unparse(a)!r} and {ast.unparse(b)!r} do not pair in {self.where}")

    def _check(self, name: str, condition: str, status: int) -> None:
        if name not in self.checked:
            self.checked.add(name)
            self.checks.append(f"if ({condition}) return {status};")

    def _temporary(self, text: str) -> str:
        name = f"tmp{self.temporaries}"
        self.temporaries += 1
        self.checks.append(f"const double {name} = {text};")
        return name

    def statements(self, target, nodes) -> list[str]:
        """Lines that compute node j into ``target(j)``, each one's checks first."""
        lines = []
        for j, node in enumerate(nodes):
            self.checks = []
            text = self(node)
            lines += self.checks + [f"{target(j)} = {text};"]
        return lines


def _function_def(source: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _values(node) -> list:
    """The leaves of a returned tuple or list, nested ones flattened in order."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return [leaf for e in node.elts for leaf in _values(e)]
    return [node]


def _translate(fn: ast.FunctionDef, names: dict[str, str], store=None, lanes: int = 0) -> list[str]:
    """The statements of the float function ``fn`` as C, in its order.

    ``names`` spells its free names: scalars, vectors ``v`` (read as
    ``v[j]``), parameters ``p.<field>`` and a stage's rhs ``f``. It takes the
    docstring, ``name = expr`` (a new C local), ``v_0, ..., v_n = v`` (names
    of v's components), a vector literal ``v = [...]``, a stage ``k = f(t +
    c h, y)`` or ``k_0, ..., k_n = f(...)`` (a literal y first goes into
    ``ys``) and the return, whose j-th value goes into ``store(j)``. With
    ``lanes``, the tangents ``v_d0, ..., v_d<lanes - 1>`` of _Tangent, each
    pair of lanes becomes one ``lanes2`` vector ``v_d01``, ``v_d23``: the
    same operations on the same doubles, two at a time.
    """
    names = dict(names)
    to_c = _CExpr(names, fn.name)
    lines: list[str] = []
    statements = iter(fn.body)
    for stmt in statements:
        if isinstance(stmt, ast.Expr):  # the docstring
            continue
        if lanes and isinstance(stmt, ast.Assign) and stmt.targets[0].id.endswith("_d0"):
            group = [stmt, *itertools.islice(statements, lanes - 1)]
            lines += _lane_pairs(to_c, [(s.targets[0].id, s.value) for s in group])
            continue
        if isinstance(stmt, ast.Return):  # without a store, the values stay where they are
            lines += to_c.statements(store, _values(stmt.value)) if store else []
            continue
        if not isinstance(stmt, ast.Assign):
            raise ValueError(f"no C translation for {ast.unparse(stmt)!r}")
        (target,) = stmt.targets
        value = stmt.value
        split = isinstance(target, ast.Tuple)
        vector = target.elts[0].id.rpartition("_")[0] if split else target.id
        if isinstance(value, ast.Call) and len(value.args) == 2:  # a stage f(t, y)
            y = value.args[1]
            if isinstance(y, ast.List):
                lines += [f"/* stage {vector[1:]} */", *_components(to_c, "ys", y.elts)]
            else:
                lines.append(f"/* stage {vector[1:]}, at the new state */")
            x = "ys" if isinstance(y, ast.List) else to_c(y)
            lines.append(f"if ((s = {to_c(value.func)}(blk, {x}, {to_c.name(vector)}))) return s;")
        elif isinstance(value, ast.List):
            lines.append(f"/* {_VECTOR_COMMENTS.get(vector, vector)} */")
            lines += _components(to_c, to_c.name(vector), value.elts)
        elif split and isinstance(value, ast.Name):
            vector = value.id
        elif split:
            raise ValueError(f"no C translation for {ast.unparse(stmt)!r}")
        elif vector in _C_RESERVED or vector in names or vector.startswith("tmp"):
            raise ValueError(f"local {vector!r} cannot be a C local here")
        else:
            lines += to_c.statements(lambda _: f"const double {vector}", [value])
            names[vector] = vector
        if split:  # v_j is the component j of the vector
            names.update((e.id, f"{to_c.name(vector)}[{j}]") for j, e in enumerate(target.elts))
    return lines


def _components(to_c: _CExpr, vector: str, elts: list) -> list[str]:
    """C of the vector literal ``vector = [e_0, ..., e_n]``: one loop over j
    where each e_j is e_0 on the components j in place of 0, else each one."""
    texts = to_c.statements(f"{vector}[{{}}]".format, elts)
    n = len(elts)
    template = texts[0].replace("[0]", "[j]")
    if n > 1 and texts == [template.replace("[j]", f"[{j}]") for j in range(n)]:
        return [f"for (int j = 0; j < {n}; j++) {template}"]
    return texts


def _lane_pairs(to_c: _CExpr, group: list[tuple[str, ast.expr]]) -> list[str]:
    """C of the lanes ``v_d<l> = e_l`` of one tangent, two lanes to a vector."""
    lines = []
    for (a, ea), (b, eb) in zip(group[::2], group[1::2]):
        if a.rpartition("_d")[0] != b.rpartition("_d")[0] or int(b[-1]) != int(a[-1]) + 1:
            raise ValueError(f"{a!r} and {b!r} are not two lanes of one tangent")
        vector = f"{a}{b[-1]}"
        to_c.checks = []
        text = to_c.pair(ea, eb)
        lines += to_c.checks + [f"const lanes2 {vector} = {text};"]
        to_c.vectors[a, b] = vector
        to_c.names.update({a: f"{vector}[0]", b: f"{vector}[1]"})
    return lines


def _c_function(signature: str, body: list[str]) -> list[str]:
    return [signature, "{"] + [INDENT + line for line in body + ["return 0;"]] + ["}"]


def _rhs_function(fn: ast.FunctionDef, m: _ckernel.Model) -> list[str]:
    """``<m.name>_rhs``: k = fn(...) on the state ``x`` and the hold in blk,
    as C. blk holds fn's parameters (those of ``p`` in PARAM_FIELDS order),
    then the seeds ``dp`` of its lanes, then its arguments after ``x``: the
    held input and the pivot force."""
    args = [a.arg for a in fn.args.args]
    rest = args[args.index("x") + 1 :]
    params = ([f"p.{name}" for name in PARAM_FIELDS] if args[0] == "p"
              else [a for a in args[: args.index("x")] if a != "dp"])
    seeds = m.lanes * (len(_SEEDED) if args[0] == "p" else len(params))
    if (m.params, m.inputs + m.forces, m.lanes > 0) != (len(params) + seeds, len(rest), "dp" in args):
        raise ValueError(f"{fn.name} does not match the model {m.name!r} of _ckernel.MODELS")
    names = {**{a: f"blk[{i}]" for i, a in enumerate(params)},
             **{a: f"blk[{m.params + i}]" for i, a in enumerate(rest)}, "x": "x", "dp": "dp"}
    head = [f"const double *const dp = blk + {len(params)};"] if m.lanes else []
    signature = f"static int {m.name}_rhs(const double *blk, const double *x, double *k)"
    return _c_function(signature, head + _translate(fn, names, "k[{}]".format, m.lanes))


def _model_function(model_fn: ast.FunctionDef) -> list[str]:
    """``task_space_model``: Mbar and Cbar at x, row by row into m and c, as C."""
    args = [a.arg for a in model_fn.args.args[1:]]
    head = [f"const double {a} = {_STATE_ARGS[a]};" for a in args]
    names = {**{f"p.{name}": f"blk[{i}]" for i, name in enumerate(PARAM_FIELDS)}, **{a: a for a in args},
             "x": "x"}
    signature = "static int task_space_model(const double *blk, const double *x, double *m, double *c)"
    return _c_function(signature, head + _translate(model_fn, names, lambda j: f"{'mc'[j // 9]}[{j % 9}]"))


def _attempt_function(m: _ckernel.Model) -> list[str]:
    """``dp5_<name>_attempt``: the DP5 attempt of integrator._step_source(n)
    for the model ``m`` of n states, calling its rhs, then the ratio vector
    of integrator._error_norm over the states ahead of the sensitivities:
    e / (atol + rtol * max(|y|, |y_new|)) with the NaN of either side
    propagated. A zero scale gives an inf or a NaN, so the norm is
    non-finite where Python's is inf."""
    n = m.states
    signature = (
        f"int dp5_{m.name}_attempt(const double *blk, double h, double rtol, double atol,\n"
        "                      const double *y, const double *k1,\n"
        "                      double *y_new, double *k7, double *ratio)"
    )
    vectors = ("h", "y", "y_new", *(f"k{i}" for i in range(1, 8)))
    names = {**{v: v for v in vectors}, "err": "e", "f": f"{m.name}_rhs"}
    step = _function_def(integrator._step_source(n), "step")
    body = [f"double ys[{n}], k2[{n}], k3[{n}], k4[{n}], k5[{n}], k6[{n}], e[{n}];", "int s;"]
    body += _translate(step, names) + [
        "/* error ratios; the caller reduces them to the norm */",
        f"for (int j = 0; j < {n // (m.lanes + 1)}; j++) {{",
        "    const double a = fabs(y[j]);",
        "    const double b = fabs(y_new[j]);",
        "    ratio[j] = (e[j] / (atol + (rtol * ((a > b || a != a) ? a : b))));",
        "}",
    ]
    return _c_function(signature, body)


def _model_table() -> list[str]:
    """``MODELS``, the C of _ckernel.MODELS with each model's rhs and attempt."""
    fields = dict(_ckernel.Rollout._fields_)
    rows = []
    for m in _ckernel.MODELS:
        if m.states > fields["x"]._length_ or m.params + m.inputs + m.forces > fields["blk"]._length_:
            raise ValueError(f"the model {m.name!r} does not fit struct rollout")
        rows.append(f"{{{m.states}, {m.params}, {m.inputs}, {m.forces}, {m.lanes}, {m.name}_rhs, "
                    f"dp5_{m.name}_attempt}},")
    return [
        "/* The models of otbot._ckernel.MODELS, which struct rollout's model",
        "   indexes: the state size, the widths of the parameters (seeds",
        "   included), the held input and the pivot force in blk, the",
        "   sensitivity lanes, the rhs and the DP5 attempt. */",
        "struct model {",
        INDENT + "long states, params, inputs, forces, lanes;",
        INDENT + "int (*rhs)(const double *blk, const double *x, double *k);",
        INDENT + "int (*attempt)(const double *blk, double h, double rtol, double atol, const double *y,",
        INDENT + "               const double *k1, double *y_new, double *k7, double *ratio);",
        "};",
        "",
        "static const struct model MODELS[] = {",
        *(INDENT + row for row in rows),
        "};",
    ]


def _struct() -> list[str]:
    """``struct rollout``, field by field from _ckernel.Rollout."""
    scalars = {ctypes.c_void_p: "void *", ctypes.c_long: "long ", ctypes.c_double: "double "}
    lines = []
    for name, ctype in _ckernel.Rollout._fields_:
        if ctype in scalars:
            lines.append(f"{scalars[ctype]}{name};")
        elif getattr(ctype, "_type_", None) is ctypes.c_double:
            lines.append(f"double {name}[{ctype._length_}];")
        else:
            raise ValueError(f"no C type for the field {name!r}")
    return ["struct rollout {"] + [INDENT + line for line in lines] + ["};"]


def _loop() -> str:
    """The rollout loop: simulate.integrate's event loop and
    integrator.advance_segment's step control, with its constants."""
    constants = "\n".join(
        f"static const double {name} = {getattr(integrator, '_' + name)!r};"
        for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR", "ORDER_EXPONENT",
                     "NONFINITE_FACTOR", "TIME_RESOLUTION")
    )
    return (_LOOP.replace("@CONSTANTS@", constants)
            .replace("@MAX_STATES@", str(dict(_ckernel.Rollout._fields_)["x"]._length_))
            .replace("@UNDERFLOW@", str(_UNDERFLOW))
            .replace("@ZERO_DIVISOR@", str(_ZERO_DIVISOR))
            .replace("@FEEDBACK@", str(_ckernel.FEEDBACK)))


_LOOP = """\
/* BLAS ddot and dgemv with 64-bit integers: numpy's dot of two float64
   vectors and its (3, 3) @ (3,) */
typedef double (*ddot_t)(long long, const double *, long long, const double *, long long);
typedef void (*dgemv_t)(int, int, long long, long long, double, const double *, long long,
                        const double *, long long, double, double *, long long);

@CONSTANTS@

/* Python's min(a, b) and max(a, b): a unless b is smaller (larger) */
static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

static void copy(double *to, const double *from, long n)
{
    for (long c = 0; c < n; c++) to[c] = from[c];
}

/* 1 where the inputs a and b are the same n bit patterns: 0.0 and -0.0 differ */
static int same_bits(const double *a, const double *b, long n)
{
    for (long c = 0; c < n; c++) {
        union { double d; unsigned long long bits; } p = {a[c]}, q = {b[c]};
        if (p.bits != q.bits) return 0;
    }
    return 1;
}

/* numpy's add.reduce of the n (at most @MAX_STATES@) doubles a, its pairwise sum:
   below 8 terms from the left, else eight interleaved partial sums added
   as a tree, then the terms left over (numpy's order up to 128 terms) */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double sum = 0.0;
        for (long c = 0; c < n; c++) sum += a[c];
        return sum;
    }
    double r[8];
    long c;
    copy(r, a, 8);
    for (c = 8; c < n - n % 8; c += 8)
        for (int q = 0; q < 8; q++) r[q] += a[c + q];
    double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; c < n; c++) sum += a[c];
    return sum;
}

/* math.sqrt(np.mean((v / scale) ** 2)) of integrator.initial_step */
static double rms(const double *v, const double *scale, long n)
{
    double sq[@MAX_STATES@];
    for (long c = 0; c < n; c++) {
        const double q = v[c] / scale[c];
        sq[c] = q * q;
    }
    return sqrt(pairwise_sum(sq, n) / (double)n);
}

/* integrator.initial_step, Hairer's guess of the first step, from the state
   r->x and its derivative r->k1 under the hold in r->blk, weighing the ne
   states ahead of the sensitivities: the guess into r->h and its second
   derivative counted in r->fevals, or the status where Python raises (the
   rhs's, a step underflow where h0 is 0, or a zero divisor at
   0.01 / max(d1, d2)). */
int first_step(struct rollout *r)
{
    const struct model *m = &MODELS[r->model];
    const long n = m->states, ne = n / (m->lanes + 1);
    double scale[@MAX_STATES@], y1[@MAX_STATES@], f1[@MAX_STATES@];
    for (long c = 0; c < ne; c++) scale[c] = r->atol + (r->rtol * fabs(r->x[c]));
    const double d0 = rms(r->x, scale, ne), d1 = rms(r->k1, scale, ne);
    const double h0 = (d0 < 1e-05 || d1 < 1e-05) ? 1e-06 : ((0.01 * d0) / d1);
    for (long c = 0; c < n; c++) y1[c] = r->x[c] + (h0 * r->k1[c]);
    const int s = m->rhs(r->blk, y1, f1);
    if (s) return s;
    for (long c = 0; c < ne; c++) f1[c] = f1[c] - r->k1[c];
    if (h0 == 0.0) return @UNDERFLOW@;
    const double d2 = rms(f1, scale, ne) / h0;
    double h1;
    if (d1 <= 1e-15 && d2 <= 1e-15) {
        h1 = py_max(1e-06, h0 * 0.001);
    } else {
        const double d = py_max(d1, d2);
        if (d == 0.0) return @ZERO_DIVISOR@;
        h1 = pow(0.01 / d, 0.2);
    }
    r->h = py_min(100.0 * h0, h1);
    r->fevals += 1;
    return 0;
}

/* integrator.advance_segment of the model m from t to t1 on the hold in
   r->blk, from r->x, r->k1 and r->h, the error norm over the ne states
   ahead of the sensitivities: these and the counts move on, or a nonzero
   status returns. */
static int advance(struct rollout *r, const struct model *m, double t, double t1)
{
    const ddot_t ddot = (ddot_t)r->ddot;
    const long n = m->states, ne = n / (m->lanes + 1);
    double y[2][@MAX_STATES@], k[2][@MAX_STATES@], ratio[@MAX_STATES@];
    int now = 0;
    long accepted = r->accepted, rejected = r->rejected, fevals = r->fevals;
    double h_next = r->h;
    copy(y[0], r->x, n);
    copy(k[0], r->k1, n);
    while (t < t1) {
        const double remaining = t1 - t;
        if (remaining <= TIME_RESOLUTION * py_max(1.0, fabs(t1))) {
            t = t1; /* a sliver below the time resolution */
            break;
        }
        const int clipped = h_next >= remaining;
        const double h = clipped ? remaining : h_next;
        /* written so that a NaN step underflows too */
        if (!(h >= TIME_RESOLUTION * py_max(1.0, fabs(t)))) return @UNDERFLOW@;
        const int s = m->attempt(r->blk, h, r->rtol, r->atol, y[now], k[now], y[!now], k[!now], ratio);
        if (s) return s;
        const double norm = sqrt(ddot(ne, ratio, 1, ratio, 1) / (double)ne);
        fevals += 6;
        if (!isfinite(norm)) {
            rejected += 1;
            h_next = NONFINITE_FACTOR * h;
            continue;
        }
        if (norm <= 1.0) {
            accepted += 1;
            t = clipped ? t1 : t + h;
            now = !now; /* FSAL */
            const double factor = norm == 0.0
                ? MAX_FACTOR : py_min(MAX_FACTOR, SAFETY * pow(norm, ORDER_EXPONENT));
            const double grown = h * factor;
            h_next = clipped ? py_max(h_next, grown) : grown;
        } else {
            rejected += 1;
            h_next = h * py_max(MIN_FACTOR, SAFETY * pow(norm, ORDER_EXPONENT));
        }
    }
    copy(r->x, y[now], n);
    copy(r->k1, k[now], n);
    r->h = h_next;
    r->accepted = accepted;
    r->rejected = rejected;
    r->fevals = fevals;
    return 0;
}

/* y = a @ v for a row-major 3x3 a, through numpy's dgemv: row-major (101),
   no transpose (111), alpha 1, beta 0 */
static void matvec(const struct rollout *r, const double *a, const double *v, double *y)
{
    ((dgemv_t)r->dgemv)(101, 111, 3, 3, 1.0, a, 3, v, 1, 0.0, y, 1);
}

/* control.computed_torque of the robot at the state r->x and the reference
   row r->instant: the torque into u and the row r->instant of u_traj and
   u_corr, with every operation in numpy's order; u_corr is zero without
   feedback. Where r->mbar and r->cbar are set, the task-space model goes
   into their row r->instant too. A nonzero status is where the task-space
   model raises. */
static int computed_torque(struct rollout *r, double *u)
{
    const double *x = r->x, *ref = (const double *)r->reference + 9 * r->instant;
    double *u_traj = (double *)r->u_traj + 3 * r->instant;
    double *u_corr = (double *)r->u_corr + 3 * r->instant;
    double mbar[9], cbar[9], a[3] = {0.0}, b[3] = {0.0}, w[3];
    const int s = task_space_model(r->blk, x, mbar, cbar);
    if (s) return s;
    if (r->mbar) {
        copy((double *)r->mbar + 9 * r->instant, mbar, 9);
        copy((double *)r->cbar + 9 * r->instant, cbar, 9);
    }
    matvec(r, mbar, ref + 6, a);
    matvec(r, cbar, x + 6, b);
    for (int c = 0; c < 3; c++) {
        u_traj[c] = a[c] + b[c];
        u_corr[c] = 0.0;
    }
    if (r->law == @FEEDBACK@) {
        for (int c = 0; c < 3; c++)
            w[c] = ((-r->kp[c]) * (x[c] - ref[c])) - (r->kv[c] * (x[c + 6] - ref[c + 3]));
        matvec(r, mbar, w, u_corr);
    }
    /* + 0.0 without feedback, so that a -0.0 becomes 0.0 as in numpy */
    for (int c = 0; c < 3; c++) u[c] = u_traj[c] + u_corr[c];
    return 0;
}

/* Events [i, j) of simulate.integrate for the model r->model: at each event
   the segment from the one before it (none at event 0; a call that ran
   event 0 first guesses the first step from its hold), the law at a
   control instant (or the torques held from the last one; the robot's
   only), the hold (a fresh first stage where the input bits change or a
   disturbance edge lies), then the output row, its first stage left out
   where derivs is NULL. Returns 0, or the status of where Python raises. */
int rollout(struct rollout *r, long i, long j)
{
    const struct model *m = &MODELS[r->model];
    const long n = m->states, nu = m->inputs, nf = m->forces;
    double *const hold = r->blk + m->params;
    const double *events = r->events, *forces = r->forces;
    const unsigned char *out = r->out, *start = r->start, *brk = r->brk;
    double *held = r->held, *states = r->states, *derivs = r->derivs, *controls = r->controls;
    int s;
    for (long e = i; e < j; e++) {
        double *u = held + nu * e;
        const int instant = r->law && start[e];
        if (e == 1 && i == 0 && (s = first_step(r))) return s;
        if (e > 0 && (s = advance(r, m, events[e - 1], events[e]))) return s;
        if (instant) {
            if ((s = computed_torque(r, u))) return s;
        } else if (r->law) {
            copy(u, u - nu, nu);
        }
        if (e == 0 || brk[e] || !same_bits(u, u - nu, nu)) {
            copy(hold, u, nu);
            copy(hold + nu, forces + nf * e, nf);
            if ((s = m->rhs(r->blk, r->x, r->k1))) return s;
            r->fevals += 1;
        }
        r->instant += instant;
        if (out[e]) {
            copy(states + n * r->row, r->x, n);
            if (derivs) copy(derivs + n * r->row, r->k1, n);
            copy(controls + nu * r->row, u, nu);
            r->row += 1;
        }
    }
    return 0;
}
"""


def render_c(python_source: str, sensitivity_source: str, generator_sha256: str) -> str:
    accel = _function_def(python_source, "accelerations")
    model_fn = _function_def(python_source, "task_space_model")
    header = [
        *_stamp("//", generator_sha256),
        "//",
        "// The rollout loop of the robot and of an isolated shaft: rollout runs",
        "// the event loop of otbot.simulate.integrate, with the computed-torque law",
        "// of otbot.control.computed_torque at each control instant (the robot's",
        "// only), the first-step guess of otbot.integrator.initial_step",
        "// (first_step) and the step control of otbot.integrator.advance_segment",
        "// on a struct rollout (the fields of otbot._ckernel.Rollout), for the",
        "// model of its MODELS row (otbot._ckernel.MODELS), so that one call",
        "// runs a whole rollout. dp5_robot_attempt is one",
        "// Dormand-Prince 5(4) attempt of y' = f(y), with f the rhs of",
        "// otbot.dynamics.state_derivative (robot_rhs, from the accelerations of",
        "// otbot._task_space) under the held torques and pivot force in blk:",
        f"// the parameters ({', '.join(PARAM_FIELDS[:7])},",
        f"// {', '.join(PARAM_FIELDS[7:])}), u0, u1, u2, fx, fy; the law's",
        "// task_space_model is that of otbot._task_space on the same parameters.",
        "// dp5_shaft_attempt is the same attempt of otbot.simulate.shaft_derivative",
        "// (shaft_rhs) with blk holding the inertia, the damping and the torque.",
        "// The _sensitivity models step a state and its sensitivities together:",
        "// their rhs are robot_sensitivity and shaft_sensitivity of",
        "// otbot._task_sensitivity, with the seeds of the lanes in blk after the",
        "// parameters, and only the leading states weigh in the error norm and",
        "// the guess, so those states take the steps of the plain model.",
        "// Every value is bit for bit what the Python code computes; the error",
        "// norm and the law's products reduce through the BLAS ddot and dgemv",
        "// that numpy calls, and the guess's means in numpy's pairwise order.",
        "// A nonzero status stops the loop where Python raises:",
        f"// {_ZERO_DIVISOR} a zero divisor, {_INFINITE_ANGLE} sin or cos of an infinite angle, {_UNDERFLOW} a step",
        "// underflow.",
        "",
        "#include <math.h>",
        "",
        "/* two sensitivity lanes, one SSE2 register on x86-64 */",
        "typedef double lanes2 __attribute__((vector_size(16)));",
        "",
    ]
    rhs = {"robot": _robot_rhs(accel),
           "shaft": _function_def(inspect.getsource(simulate), "shaft_derivative"),
           **{m.name: _function_def(sensitivity_source, m.name) for m in _ckernel.MODELS if m.lanes}}
    lines = header + _struct() + [""]
    for m in _ckernel.MODELS:
        lines += _rhs_function(rhs[m.name], m) + [""]
        if m.name == "robot":
            lines += _model_function(model_fn) + [""]
        lines += _attempt_function(m) + [""]
    lines += _model_table() + [""]
    return "\n".join(lines) + "\n" + _loop()


def generator_sha256() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate in memory and exit 1 if a committed file differs")
    args = ap.parse_args(argv)
    digest = generator_sha256()
    python_source, sensitivity_source = render(digest)
    outputs = {TARGET: python_source, SENSITIVITY_TARGET: sensitivity_source,
               C_TARGET: render_c(python_source, sensitivity_source, digest)}
    status = 0
    for target, text in outputs.items():
        name = target.relative_to(ROOT)
        if not args.check:
            target.write_text(text)
            print(f"wrote {name}")
            continue
        current = target.read_text() if target.exists() else ""
        if current == text:
            print(f"{name} is up to date")
            continue
        sys.stdout.writelines(
            difflib.unified_diff(current.splitlines(True), text.splitlines(True),
                                 f"committed {name}", f"regenerated {name}", n=1)
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
