"""Embedded Dormand-Prince 5(4) stepper with hard segment boundaries.

Control inputs are zero-order held, so the right-hand side is only smooth
inside a control interval. Callers therefore advance segment by segment,
supplying the rhs valid for that segment, and the stepper clips its step to
the segment end. The step size survives across segments; the FSAL stage
survives where the caller passes it on as the next segment's ``k1``, which
is valid when the rhs does not change at the boundary. The pair propagates
the fifth-order solution and controls the error with the embedded
fourth-order one, i.e. the usual ode45 behaviour.

The rhs contract is ``f(t, y) -> sequence of floats`` with ``t`` a Python
float and ``y`` a list of Python floats. One attempted step runs in a kernel
generated from the tableau for the state size at hand (``<dp5 step n=12>``
for the robot, ``n=2`` for a shaft): list literals with the coefficients
inlined, each component summing its terms in the tableau's order. The error
norm reduces its ratios with numpy's dot, which is BLAS ``ddot``: a Python
sum would change the last bit of the norm, and with it the step sizes, on
about a fifth of the steps.

This module is the source and the oracle of the compiled rollout loop of
the robot and a shaft (``rollout`` in ``_dp5_robot.c``, driven by
``otbot.simulate``): ``scripts/gen_task_space.py`` translates the attempt,
:func:`initial_step` (``first_step``) and the step loop of
:func:`advance_segment` (``advance``), with these constants, into its C,
which reduces the norm through the ``ddot`` that numpy calls. A rollout
where the C stops, which is where this module raises, is rerun here.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass

import numpy as np

# Butcher tableau (Dormand & Prince 1980), FSAL form. Stage i is taken at
# t + c_i h from y + h * (a_i1 k1 + ... + a_i,i-1 k_i-1), summed in this order.
_STAGES = (  # (c_i, (a_i1, ..., a_i,i-1)) of stages 2 to 6
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
)
# Fifth-order weights as (stage, weight); stage 2 has weight zero.
_B = ((1, 35 / 384), (3, 500 / 1113), (4, 125 / 192), (5, -2187 / 6784), (6, 11 / 84))
# Difference between the 5th and the embedded 4th order weights.
_E = (
    (1, 71 / 57600),
    (3, -71 / 16695),
    (4, 71 / 1920),
    (5, -17253 / 339200),
    (6, 22 / 525),
    (7, -1 / 40),
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXPONENT = -0.2  # 1 / (4 + 1)
_NONFINITE_FACTOR = 0.1  # step shrink after a non-finite error norm
# A gap to t1 of at most this times max(1, |t1|) is absorbed into t1, and a
# step below this times max(1, |t|) underflows.
_TIME_RESOLUTION = 1e-14


class IntegrationError(RuntimeError):
    """Raised when the step size underflows (stiffness, discontinuity, NaNs)."""

    def __init__(self, message: str, t: float, h: float, rejected: int):
        super().__init__(message)
        self.t = t
        self.h = h
        self.rejected = rejected


@dataclass
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-12


@dataclass
class IntegratorStats:
    accepted: int = 0
    rejected: int = 0
    fevals: int = 0


def _error_norm(err, y0, y1, rtol: float, atol: float) -> float:
    """RMS of err over the mixed tolerance atol + rtol * max(|y0|, |y1|).

    Takes float sequences. The max propagates a NaN from either side, as
    np.maximum does; a zero scale gives inf where numpy's division would
    give inf or nan, so every non-finite norm stays non-finite.
    """
    n = len(err)
    try:
        # ndarray.dot is the same BLAS reduction as ``@`` at less call overhead
        ratio = np.fromiter(
            [
                e / (atol + rtol * (a if a > b or a != a else b))
                for e, a, b in zip(err, map(abs, y0), map(abs, y1))
            ],
            float,
            n,
        )
    except ZeroDivisionError:
        return math.inf
    return math.sqrt(float(ratio.dot(ratio)) / n)


def _step_source(n: int) -> str:
    """Python source of one DP5 attempt on n-vectors, unrolled per component.

    ``step(f, t, h, y, k1)`` returns ``(y_new, k7, err)``: the fifth-order
    solution, the rhs value there (the next step's k1) and the error vector,
    with every sum in the tableau's order and the coefficients as literals.
    """

    def names(vector_name):
        return ", ".join(f"{vector_name}_{j}" for j in range(n)) + ("," if n == 1 else "")

    def combo(weights, j):
        return " + ".join(f"{w!r} * k{i}_{j}" for i, w in weights)

    def vector(terms):
        return "[\n" + "".join(f"        {term},\n" for term in terms) + "    ]"

    lines = [
        "def step(f, t, h, y, k1):",
        f"    {names('y')} = y",
        f"    {names('k1')} = k1",
    ]
    for i, (c, row) in enumerate(_STAGES, start=2):
        weights = tuple(enumerate(row, start=1))
        at = "t + h" if c == 1.0 else f"t + {c!r} * h"
        arg = vector(f"y_{j} + h * ({combo(weights, j)})" for j in range(n))
        lines.append(f"    {names(f'k{i}')} = f({at}, {arg})")
    lines += [
        "    y_new = " + vector(f"y_{j} + h * ({combo(_B, j)})" for j in range(n)),
        "    k7 = f(t + h, y_new)",
        f"    {names('k7')} = k7",
        "    err = " + vector(f"h * ({combo(_E, j)})" for j in range(n)),
        "    return y_new, k7, err",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _step_kernel(n: int):
    """The DP5 attempt of :func:`_step_source`, compiled on first use."""
    source = _step_source(n)
    filename = f"<dp5 step n={n}>"
    # lets tracebacks through the kernel show its lines
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["step"]


def _rms(v, scale, n) -> float:
    """``math.sqrt(np.mean((v[:n] / scale) ** 2))``, in numpy's pairwise order.

    Overflows and zero scales give infs and NaNs without a warning.
    """
    with np.errstate(all="ignore"):
        return math.sqrt(float(np.mean((np.asarray(v[:n], dtype=float) / scale) ** 2)))


def initial_step(f, t0: float, y0, f0, rtol: float, atol: float, error_states: int | None = None) -> float:
    """Cheap two-evaluation guess of a sensible first step (Hairer's rule)
    from y0 and f0 = f(t0, y0), weighing their first ``error_states``
    states (default all).

    A guess h0 of 0 (a first stage that overflows) is a step size underflow.
    """
    scale = [atol + rtol * abs(v) for v in y0[:error_states]]
    d0 = _rms(y0, scale, error_states)
    d1 = _rms(f0, scale, error_states)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = f(t0 + h0, [a + h0 * b for a, b in zip(y0, f0)])
    if h0 == 0.0:
        raise IntegrationError(f"step size underflow at t = {t0:.6e} (first step guess h = 0)",
                               t=t0, h=h0, rejected=0)
    change = [b - a for a, b in zip(f0[:error_states], f1)]
    d2 = _rms(change, scale, error_states) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def advance_segment(
    f,
    t0: float,
    t1: float,
    y0: np.ndarray,
    opts: IntegratorOptions,
    stats: IntegratorStats,
    h_start: float | None = None,
    k1=None,
    error_states: int | None = None,
):
    """Integrate y' = f(t, y) from t0 to exactly t1 (t1 > t0).

    ``y0`` is an ndarray; ``k1``, if given, is f(t0, y0) as an ndarray or a
    float sequence. Only the first ``error_states`` states (default all)
    weigh in the error norm and the first-step guess; the rest (the
    sensitivities of an augmented model) ride along on their steps.
    Returns (y(t1), k_end, h_next): y(t1) as an ndarray,
    k_end = f(t1, y(t1)) as returned by THIS segment's rhs (left limit at a
    control boundary) and h_next, the unclipped step-size suggestion to
    carry into the next segment.
    """
    rtol, atol = opts.rtol, opts.atol
    # numpy scalar times would turn every stage value into a numpy scalar and
    # slow the float code of the rhs down
    t, t1 = float(t0), float(t1)
    y = y0.tolist()
    if k1 is None:
        k1 = f(t, y)
        stats.fevals += 1
    if isinstance(k1, np.ndarray):
        k1 = k1.tolist()
    if h_start is None:
        h_next = initial_step(f, t, y, k1, rtol, atol, error_states)
        stats.fevals += 1
    else:
        h_next = h_start
    step = _step_kernel(len(y))
    n = error_states

    while t < t1:
        remaining = t1 - t
        if remaining <= _TIME_RESOLUTION * max(1.0, abs(t1)):
            # a step that lands an ulp short of t1 leaves a sliver narrower
            # than the time resolution; absorb it into the boundary
            t = t1
            break
        clipped = h_next >= remaining
        h = remaining if clipped else h_next
        if not h >= _TIME_RESOLUTION * max(1.0, abs(t)):  # a NaN step underflows too
            raise IntegrationError(
                f"step size underflow at t = {t:.6e} (h = {h:.3e}, "
                f"{stats.rejected} rejected steps so far)",
                t=t,
                h=h,
                rejected=stats.rejected,
            )

        y_new, k7, err = step(f, t, h, y, k1)
        norm = _error_norm(err[:n], y[:n], y_new[:n], rtol, atol)
        stats.fevals += 6

        if not math.isfinite(norm):
            stats.rejected += 1
            h_next = _NONFINITE_FACTOR * h
            continue
        if norm <= 1.0:
            stats.accepted += 1
            t = t1 if clipped else t + h
            y, k1 = y_new, k7  # FSAL
            factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm**_ORDER_EXPONENT)
            grown = h * factor
            # a clipped step can be arbitrarily short (end-of-segment sliver);
            # growing from it would poison the carried suggestion
            h_next = max(h_next, grown) if clipped else grown
        else:
            stats.rejected += 1
            h_next = h * max(_MIN_FACTOR, _SAFETY * norm**_ORDER_EXPONENT)

    return np.array(y), k1, h_next
