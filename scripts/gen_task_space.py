#!/usr/bin/env python3
"""Generate ``src/otbot/_task_space.py``, the closed-form task-space model,
and ``src/otbot/_dp5_robot.c``, the rollout loop of the robot and a shaft in C.

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

The C rhs of the robot, the C task-space model and the robot's C
Dormand-Prince attempt are translated from the syntax tree of the generated
``accelerations``, ``task_space_model`` and
``otbot.integrator._step_source(12)``; the shaft's rhs and attempt from
``otbot.simulate.shaft_derivative`` and ``_step_source(2)``. Every
operation is kept in the Python order and fully parenthesised, so they
compute the same bits as the Python code (see ``otbot._ckernel`` for the
compiler flags that this needs). The rollout loop around them, with the
computed-torque law of ``otbot.control.computed_torque`` and the first-step
guess of ``otbot.integrator.initial_step``, is written out below; its step-control constants are printed from ``otbot.integrator``,
its struct from ``otbot._ckernel.Rollout`` and its model table from
``otbot._ckernel.MODELS``, so ``--check`` sees any drift.

    python scripts/gen_task_space.py           # rewrite both files
    python scripts/gen_task_space.py --check   # exit 1 if either is out of date

Both headers record the SHA-256 of this file and the sympy version, so a
stale file is visible without sympy installed.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import difflib
import hashlib
import inspect
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import sympy as sp
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.pycode import PythonCodePrinter

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "otbot" / "_task_space.py"
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


_TRIG = [
    "ca = cos(alpha)",
    "sa = sin(alpha)",
    "ct = cos(theta)",
    "st = sin(theta)",
]

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


def _function(signature: str, doc: str, body: list[str], result: str) -> list[str]:
    return (
        [f"def {signature}:", f'{INDENT}"""{doc}"""']
        + [INDENT + line for line in body]
        + [f"{INDENT}return {result}", "", ""]
    )


def render(generator_sha256: str) -> str:
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

    dx, dy, da = sp.symbols("dx dy da")
    u = sp.symbols("u0 u1 u2")
    fx, fy = sp.symbols("fx fy")
    dp = sp.Matrix([dx, dy, da])
    rhs = sp.Matrix(u) - cbar * dp + fik.T * sp.Matrix([fx, fy, 0])
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
        "# Generated by scripts/gen_task_space.py; do not edit by hand.",
        f"# generator sha256: {generator_sha256}",
        f"# sympy {sp.__version__}",
        '"""Closed-form task-space model: Mbar, Cbar and the forward accelerations.',
        "",
        "Arguments are the parameter set p, read by attribute, and plain floats:",
        "the platform angle alpha, the chassis heading theta = alpha - phi_p, the",
        "task velocity (dx, dy, da), the heading rate dth = da - dphi_p, the",
        "torques (u0, u1, u2) and the pivot force (fx, fy).",
        '"""',
        "",
        "from math import cos, sin",
        "",
        "",
    ]
    return "\n".join(header + model_fn + accel_fn).rstrip("\n") + "\n"


# ---------------------------------------------------------------- C rollout

# Index in the block that the C rhs reads (the ``blk`` of _ckernel.Rollout):
# the parameters in PARAM_FIELDS order, the held torques, then the pivot force.
_BLOCK = {name: i for i, name in enumerate(
    [*(f"p.{name}" for name in PARAM_FIELDS), "u0", "u1", "u2", "fx", "fy"])}
assert len(_BLOCK) == dict(_ckernel.Rollout._fields_)["blk"]._length_
_ROBOT, _SHAFT = (_ckernel.MODELS[_ckernel.MODEL_INDEX[name]] for name in ("robot", "shaft"))

# The arguments of ``accelerations`` as dynamics.state_derivative passes
# them, from the 12-state x = (q, dq): q[2], q[2] - q[5], dq[0], dq[1],
# dq[2], dq[2] - dq[5].
_STATE_ARGS = {
    "alpha": "{x}[2]",
    "theta": "({x}[2] - {x}[5])",
    "dx": "{x}[6]",
    "dy": "{x}[7]",
    "da": "{x}[8]",
    "dth": "({x}[8] - {x}[11])",
}

# Nonzero statuses, each where the Python engine raises: a zero divisor, sin
# or cos of an infinite angle, a step underflow. The caller reruns the
# rollout in Python, which raises there.
_ZERO_DIVISOR, _INFINITE_ANGLE, _UNDERFLOW = 1, 2, 3

_C_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# names a generated local may not take: the C functions' arguments and the
# Bessel functions that math.h declares
_C_RESERVED = {"blk", "x", "k", "m", "c", "y0", "y1", "yn", "j0", "j1", "jn"}


class _CExpr:
    """C spelling of the float arithmetic of the generated Python.

    Every operation becomes one parenthesised C operation on doubles, in
    the order the Python evaluates it; integer literals become doubles.
    A division by a non-constant and a sin or cos first emit, into
    ``checks``, the test for the value on which Python raises; a variable
    is tested once per instance.
    """

    def __init__(self, rename):
        self.rename = rename
        self.checks: list[str] = []
        self.checked: set[str] = set()
        self.temporaries = 0

    def __call__(self, node) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            value = float(node.value)
            if not math.isfinite(value):
                raise ValueError(f"non-finite literal {node.value!r}")
            return repr(value)
        if isinstance(node, ast.Name):
            return self.rename(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return self.rename(f"{node.value.id}.{node.attr}")
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and isinstance(node.slice, ast.Constant) and type(node.slice.value) is int):
            return f"{self.rename(node.value.id)}[{node.slice.value}]"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self(node.operand)})"
        if isinstance(node, ast.BinOp) and type(node.op) in _C_OPS:
            left = self(node.left)
            right = self(node.right)
            if isinstance(node.op, ast.Div) and not isinstance(node.right, ast.Constant):
                if not isinstance(node.right, ast.Name):
                    right = self._temporary(right)
                self._check(right, f"{right} == 0.0", _ZERO_DIVISOR)
            return f"({left} {_C_OPS[type(node.op)]} {right})"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("sin", "cos") and len(node.args) == 1):
            arg = self(node.args[0])
            if not isinstance(node.args[0], ast.Name):
                arg = self._temporary(arg)
            self._check(arg, f"isinf({arg})", _INFINITE_ANGLE)
            return f"{node.func.id}({arg})"
        raise ValueError(f"no C translation for {ast.unparse(node)!r}")

    def _check(self, name: str, condition: str, status: int) -> None:
        if name not in self.checked:
            self.checked.add(name)
            self.checks.append(f"if ({condition}) return {status};")

    def _temporary(self, text: str) -> str:
        name = f"tmp{self.temporaries}"
        self.temporaries += 1
        self.checks.append(f"const double {name} = {text};")
        return name

    def statement(self, target: str, node) -> list[str]:
        """Lines that compute ``node`` into ``target``, checks first."""
        self.checks = []
        text = self(node)
        return self.checks + [f"{target} = {text};"]


def _function_def(source: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _values(node) -> list:
    """The leaves of a returned tuple, nested tuples flattened in order."""
    if isinstance(node, ast.Tuple):
        return [leaf for e in node.elts for leaf in _values(e)]
    return [node]


def _c_function(fn: ast.FunctionDef, signature: str, store) -> list[str]:
    """C of a generated float function of ``p`` and the state arguments
    (read from ``x``) or the hold's torques and force (read from ``blk``):
    its statements in order, then ``store(values)``, the lines that store
    the returned values."""
    args = [a.arg for a in fn.args.args[1:]]
    lines = [
        f"const double {a} = {_STATE_ARGS[a].format(x='x') if a in _STATE_ARGS else f'blk[{_BLOCK[a]}]'};"
        for a in args
    ]
    locals_ = set(args)

    def rename(name):
        if name in _BLOCK and "." in name:
            return f"blk[{_BLOCK[name]}]"
        if name not in locals_:
            raise ValueError(f"unbound name {name!r} in {fn.name}")
        return name

    to_c = _CExpr(rename)
    for stmt in fn.body:
        if isinstance(stmt, ast.Expr):  # the docstring
            continue
        if isinstance(stmt, ast.Assign):
            (target,) = stmt.targets
            if target.id in _C_RESERVED or target.id in locals_ or target.id.startswith("tmp"):
                raise ValueError(f"local {target.id!r} cannot be a C local here")
            lines += to_c.statement(f"const double {target.id}", stmt.value)
            locals_.add(target.id)
        elif isinstance(stmt, ast.Return):
            lines += store([to_c(e) for e in _values(stmt.value)])
            lines.append("return 0;")
        else:
            raise ValueError(f"no C translation for {ast.unparse(stmt)!r}")
    return [signature, "{"] + [INDENT + line for line in lines] + ["}"]


def _rhs_function(accel: ast.FunctionDef) -> list[str]:
    """``robot_rhs``: k = f(x) for the robot on the hold in blk, as C."""

    def store(values):
        # state_derivative returns (dq, ddq)
        return [f"k[{j}] = x[{j + 6}];" for j in range(6)] + [
            f"k[{j + 6}] = {v};" for j, v in enumerate(values)]

    signature = "static int robot_rhs(const double *blk, const double *x, double *k)"
    return _c_function(accel, signature, store)


def _shaft_function() -> list[str]:
    """``shaft_rhs``: k = f(x) of simulate.shaft_derivative on the hold in
    blk (its parameters, then the torque), as C."""
    fn = _function_def(inspect.getsource(simulate), "shaft_derivative")
    *params, state, torque = [a.arg for a in fn.args.args]
    if len(params) != _SHAFT.params or _SHAFT.inputs != 1:
        raise ValueError("shaft_derivative does not match _ckernel.MODELS")
    names = {**{p: f"blk[{i}]" for i, p in enumerate(params)}, torque: f"blk[{len(params)}]",
             state: "x"}

    def rename(name):
        if name not in names:
            raise ValueError(f"unbound name {name!r} in {fn.name}")
        return names[name]

    (ret,) = [stmt for stmt in fn.body if isinstance(stmt, ast.Return)]
    to_c = _CExpr(rename)
    lines = [line for j, e in enumerate(ret.value.elts) for line in to_c.statement(f"k[{j}]", e)]
    signature = "static int shaft_rhs(const double *blk, const double *x, double *k)"
    return [signature, "{"] + [INDENT + line for line in lines + ["return 0;"]] + ["}"]


def _model_function(model_fn: ast.FunctionDef) -> list[str]:
    """``task_space_model``: Mbar and Cbar at x, row by row into m and c, as C."""

    def store(values):
        return [f"{'mc'[j // 9]}[{j % 9}] = {v};" for j, v in enumerate(values)]

    signature = "static int task_space_model(const double *blk, const double *x, double *m, double *c)"
    return _c_function(model_fn, signature, store)


def _vector_name(name: str) -> str:
    """``y_3`` -> ``y[3]``, ``k2_5`` -> ``k2[5]``, ``h`` -> ``h``."""
    stem, _, index = name.rpartition("_")
    if stem in ("y", "k1", "k2", "k3", "k4", "k5", "k6", "k7") and index.isdigit():
        return f"{stem}[{index}]"
    if name == "h":
        return name
    raise ValueError(f"unexpected name {name!r} in the step source")


def _attempt_body(m: _ckernel.Model) -> list[str]:
    """The DP5 attempt of integrator._step_source(n) for the model ``m`` of
    n states, calling its rhs."""
    step = _function_def(integrator._step_source(m.states), "step")
    to_c = _CExpr(_vector_name)
    lines: list[str] = []
    for stmt in step.body:
        if isinstance(stmt, ast.Return):
            continue
        (target,) = stmt.targets
        value = stmt.value
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Name):
            continue  # unpacking a vector into components
        if isinstance(value, ast.Call):  # a stage: k_i = f(t + c h, state)
            _, state = value.args
            out = target.elts[0].id.split("_")[0] if isinstance(target, ast.Tuple) else target.id
            x = "ys"
            if isinstance(state, ast.List):
                lines.append(f"/* stage {out[1:]} */")
                for j, e in enumerate(state.elts):
                    lines += to_c.statement(f"ys[{j}]", e)
            else:
                x = state.id
                lines.append(f"/* stage {out[1:]}, at the new state */")
            lines.append(f"if ((s = {m.name}_rhs(blk, {x}, {out}))) return s;")
        elif isinstance(value, ast.List):  # y_new or the error vector
            vector = {"y_new": "y_new", "err": "e"}[target.id]
            lines.append(f"/* {'fifth-order solution' if vector == 'y_new' else 'error estimate'} */")
            for j, e in enumerate(value.elts):
                lines += to_c.statement(f"{vector}[{j}]", e)
        else:
            raise ValueError(f"no C translation for {ast.unparse(stmt)!r}")
    return lines


def _attempt_function(m: _ckernel.Model) -> list[str]:
    """``dp5_<name>_attempt``: one DP5 attempt of the model ``m``, then the
    ratio vector of integrator._error_norm: e / (atol + rtol * max(|y|,
    |y_new|)) with the NaN of either side propagated. A zero scale gives an
    inf or a NaN, so the norm is non-finite where Python's is inf."""
    n = m.states
    signature = (
        f"int dp5_{m.name}_attempt(const double *blk, double h, double rtol, double atol,\n"
        "                      const double *y, const double *k1,\n"
        "                      double *y_new, double *k7, double *ratio)"
    )
    body = [f"double ys[{n}], k2[{n}], k3[{n}], k4[{n}], k5[{n}], k6[{n}], e[{n}];", "int s;"]
    body += _attempt_body(m) + [
        "/* error ratios; the caller reduces them to the norm */",
        f"for (int j = 0; j < {n}; j++) {{",
        "    const double a = fabs(y[j]);",
        "    const double b = fabs(y_new[j]);",
        "    ratio[j] = (e[j] / (atol + (rtol * ((a > b || a != a) ? a : b))));",
        "}",
        "return 0;",
    ]
    return [signature, "{"] + [INDENT + line for line in body] + ["}"]


def _model_table() -> list[str]:
    """``MODELS``, the C of _ckernel.MODELS with each model's rhs and attempt."""
    fields = dict(_ckernel.Rollout._fields_)
    rows = []
    for m in _ckernel.MODELS:
        if m.states > fields["x"]._length_ or m.params + m.inputs + m.forces > fields["blk"]._length_:
            raise ValueError(f"the model {m.name!r} does not fit struct rollout")
        rows.append(f"{{{m.states}, {m.params}, {m.inputs}, {m.forces}, {m.name}_rhs, dp5_{m.name}_attempt}},")
    return [
        "/* The models of otbot._ckernel.MODELS, which struct rollout's model",
        "   indexes: the state size, the widths of the parameters, the held input",
        "   and the pivot force in blk, the rhs and the DP5 attempt. */",
        "struct model {",
        INDENT + "long states, params, inputs, forces;",
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
    lines = []
    for name, ctype in _ckernel.Rollout._fields_:
        if ctype is ctypes.c_void_p:
            lines.append(f"void *{name};")
        elif ctype in (ctypes.c_long, ctypes.c_double):
            lines.append(f"{'long' if ctype is ctypes.c_long else 'double'} {name};")
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
   r->x and its derivative r->k1 under the hold in r->blk: the guess into
   r->h and its second derivative counted in r->fevals, or the status where
   Python raises (the rhs's, or a zero divisor at d2 / h0 or at
   0.01 / max(d1, d2)). */
int first_step(struct rollout *r)
{
    const struct model *m = &MODELS[r->model];
    const long n = m->states;
    double scale[@MAX_STATES@], y1[@MAX_STATES@], f1[@MAX_STATES@];
    for (long c = 0; c < n; c++) scale[c] = r->atol + (r->rtol * fabs(r->x[c]));
    const double d0 = rms(r->x, scale, n), d1 = rms(r->k1, scale, n);
    const double h0 = (d0 < 1e-05 || d1 < 1e-05) ? 1e-06 : ((0.01 * d0) / d1);
    for (long c = 0; c < n; c++) y1[c] = r->x[c] + (h0 * r->k1[c]);
    const int s = m->rhs(r->blk, y1, f1);
    if (s) return s;
    for (long c = 0; c < n; c++) f1[c] = f1[c] - r->k1[c];
    if (h0 == 0.0) return @ZERO_DIVISOR@;
    const double d2 = rms(f1, scale, n) / h0;
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
   r->blk, from r->x, r->k1 and r->h: these and the counts move on, or a
   nonzero status returns. */
static int advance(struct rollout *r, const struct model *m, double t, double t1)
{
    const ddot_t ddot = (ddot_t)r->ddot;
    const long n = m->states;
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
        const double norm = sqrt(ddot(n, ratio, 1, ratio, 1) / (double)n);
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
   feedback. A nonzero status is where the task-space model raises. */
static int computed_torque(struct rollout *r, double *u)
{
    const double *x = r->x, *ref = (const double *)r->reference + 9 * r->instant;
    double *u_traj = (double *)r->u_traj + 3 * r->instant;
    double *u_corr = (double *)r->u_corr + 3 * r->instant;
    double mbar[9], cbar[9], a[3] = {0.0}, b[3] = {0.0}, w[3];
    const int s = task_space_model(r->blk, x, mbar, cbar);
    if (s) return s;
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
   disturbance edge lies), then the output row. Returns 0, or the status of
   where Python raises. */
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
            copy(derivs + n * r->row, r->k1, n);
            copy(controls + nu * r->row, u, nu);
            r->row += 1;
        }
    }
    return 0;
}
"""


def render_c(python_source: str, generator_sha256: str) -> str:
    accel = _function_def(python_source, "accelerations")
    model_fn = _function_def(python_source, "task_space_model")
    header = [
        "// Generated by scripts/gen_task_space.py; do not edit by hand.",
        f"// generator sha256: {generator_sha256}",
        f"// sympy {sp.__version__}",
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
        "// Every value is bit for bit what the Python code computes; the error",
        "// norm and the law's products reduce through the BLAS ddot and dgemv",
        "// that numpy calls, and the guess's means in numpy's pairwise order.",
        "// A nonzero status stops the loop where Python raises:",
        f"// {_ZERO_DIVISOR} a zero divisor, {_INFINITE_ANGLE} sin or cos of an infinite angle, {_UNDERFLOW} a step",
        "// underflow.",
        "",
        "#include <math.h>",
        "",
    ]
    lines = (
        header + _struct() + [""] + _rhs_function(accel) + [""] + _model_function(model_fn) + [""]
        + _attempt_function(_ROBOT) + [""] + _shaft_function() + [""] + _attempt_function(_SHAFT)
        + [""] + _model_table() + [""]
    )
    return "\n".join(lines) + "\n" + _loop()


def generator_sha256() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate in memory and exit 1 if a committed file differs")
    args = ap.parse_args(argv)
    digest = generator_sha256()
    python_source = render(digest)
    outputs = {TARGET: python_source, C_TARGET: render_c(python_source, digest)}
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
