#!/usr/bin/env python3
"""Generate ``src/otbot/_task_space.py``, the closed-form task-space model.

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

    python scripts/gen_task_space.py           # rewrite the module
    python scripts/gen_task_space.py --check   # exit 1 if it is out of date

The module header records the SHA-256 of this file and the sympy version,
so a stale module is visible without sympy installed.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
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
sys.path.insert(0, str(ROOT / "src"))

from otbot import dynamics, model  # noqa: E402
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


def generator_sha256() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate in memory and exit 1 if the committed module differs")
    args = ap.parse_args(argv)
    text = render(generator_sha256())
    if args.check:
        current = TARGET.read_text() if TARGET.exists() else ""
        if current == text:
            print(f"{TARGET.relative_to(ROOT)} is up to date")
            return 0
        sys.stdout.writelines(
            difflib.unified_diff(current.splitlines(True), text.splitlines(True),
                                 "committed", "regenerated", n=1)
        )
        return 1
    TARGET.write_text(text)
    print(f"wrote {TARGET.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
