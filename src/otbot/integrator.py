"""Embedded Dormand-Prince 5(4) stepper with hard segment boundaries.

Control inputs are zero-order held, so the right-hand side is only smooth
inside a control interval. The driver therefore never steps across a segment
boundary: callers advance segment by segment (supplying the rhs valid for
that segment) and the stepper clips its step to the segment end. The step
size survives across segments. The FSAL stage survives only where the caller
passes it on as the next segment's ``k1``, which is valid when the rhs does
not change at the boundary.

The pair propagates the fifth-order solution and uses the embedded
fourth-order one for error control, i.e. the usual ode45 behaviour.

The right-hand side contract is ``f(t, y) -> sequence of floats`` with ``t``
a Python float and ``y`` a list of Python floats. Inside a segment the state
and the seven stages are float lists. One attempted step runs in a kernel
generated from the tableau for the state size at hand (``<dp5 step n=12>``
for the robot, ``n=2`` for a shaft), built on first use and cached: it
unpacks the state and each stage into locals and spells every stage
argument, the new state and the error vector as list literals with the
coefficients inlined. That removes the zip, unpack and append work a generic
loop or comprehension pays per component, while each component still sums
its terms in the tableau's order, so the results are the same bits as the
ndarray formulas. The segment ends are cast with ``float()``, because a
numpy scalar time would turn every stage value into a numpy scalar and slow
the float code of the rhs down. The error norm builds its ratios in Python
but keeps the final reduction, the dot product of the ratios, in numpy:
numpy's dot does not sum left to right, and a Python sum would change the
last bit of the norm, and with it the adaptive step sizes, on about a fifth
of the steps.

The robot's rhs (a 12-state ``f`` that carries a ``block``, see
:data:`RobotBlock`) runs instead on ``dp5_robot_attempt``, C generated by
``scripts/gen_task_space.py`` from the same tableau and the same generated
accelerations, and compiled on first use (``otbot._ckernel``). It computes
the same bits as the Python kernel and hands back the ratio vector of the
error norm; numpy still does the dot. Where the Python kernel would raise (a
zero divisor, sin or cos of an infinite angle) the C attempt returns a
nonzero status and the attempt is rerun in Python, which raises the same
exception. Without a C compiler every attempt runs in Python, with the
same results.
"""

from __future__ import annotations

import ctypes
import functools
import linecache
import math
from dataclasses import dataclass, field

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


class IntegrationError(RuntimeError):
    """Raised when the step size underflows (stiffness, discontinuity, NaNs)."""

    def __init__(self, message: str, t: float, h: float, rejected: int):
        super().__init__(message)
        self.t = t
        self.h = h
        self.rejected = rejected


# The robot rhs as data, for the C attempt: the 14 parameters in
# otbot.params.PARAM_FIELDS order, the held torques u0, u1, u2 and the
# pivot force fx, fy.
RobotBlock = ctypes.c_double * 19
_ROBOT_STATES = 12
# y, k1, y_new, k7 and the error ratios of one segment's compiled attempts
_RobotBuffers = ctypes.c_double * (5 * _ROBOT_STATES)

# Robot segments advanced by each kernel in this process ("c" or "python");
# the CLI manifest reports which one ran.
robot_segments = {"c": 0, "python": 0}


@dataclass
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-12
    max_step: float = math.inf
    first_step: float | None = None


@dataclass
class IntegratorStats:
    accepted: int = 0
    rejected: int = 0
    fevals: int = 0
    min_step: float = math.inf
    max_step: float = 0.0

    def note(self, h: float) -> None:
        self.accepted += 1
        if h < self.min_step:
            self.min_step = h
        if h > self.max_step:
            self.max_step = h

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "fevals": self.fevals,
            "min_step": self.min_step,
            "max_step": self.max_step,
        }


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


@functools.cache
def _compiled_robot_attempt():
    """The C attempt of the robot (``otbot._ckernel.load``), or None."""
    from . import _ckernel

    return _ckernel.load()


class _PythonAttempt:
    """DP5 attempts of the generated Python kernel on float lists."""

    __slots__ = ("f", "step", "y", "k1", "y_new", "k7", "rtol", "atol")

    def __init__(self, f, y: np.ndarray, k1, rtol: float, atol: float):
        self.f, self.rtol, self.atol = f, rtol, atol
        self.y = y.tolist()
        self.k1 = k1.tolist() if isinstance(k1, np.ndarray) else k1
        self.step = _step_kernel(len(self.y))

    def __call__(self, t: float, h: float) -> float:
        """Attempt a step of size h from (t, y); returns its error norm."""
        self.y_new, self.k7, err = self.step(self.f, t, h, self.y, self.k1)
        return _error_norm(err, self.y, self.y_new, self.rtol, self.atol)

    def accept(self) -> None:
        self.y, self.k1 = self.y_new, self.k7  # FSAL

    def result(self):
        """The state as an ndarray and the derivative there."""
        return np.array(self.y), self.k1


class _CompiledAttempt:
    """The robot's C attempt on five buffers of this segment.

    y and y_new, k1 and k7 swap places on accept, so only addresses move.
    The buffers belong to one call of :func:`advance_segment`: rollouts may
    run on threads, and the foreign call releases the GIL.
    """

    __slots__ = ("run", "f", "block", "rtol", "atol", "rows", "orders", "order", "ratio", "ratio_at")

    def __init__(self, run, f, y: np.ndarray, k1, rtol: float, atol: float):
        self.run, self.f, self.block, self.rtol, self.atol = run, f, f.block, rtol, atol
        raw = _RobotBuffers()
        # rows y, k1, y_new, k7, ratio; the view keeps raw alive
        self.rows = rows = np.frombuffer(raw).reshape(5, _ROBOT_STATES)
        rows[0] = y
        rows[1] = k1
        a, n = ctypes.addressof(raw), 8 * _ROBOT_STATES
        # addresses of (y, k1, y_new, k7) before and after an accept
        self.orders = ((a, a + n, a + 2 * n, a + 3 * n), (a + 2 * n, a + 3 * n, a, a + n))
        self.order = 0
        self.ratio = rows[4]
        self.ratio_at = a + 4 * n

    def __call__(self, t: float, h: float) -> float:
        y, k1, y_new, k7 = self.orders[self.order]
        if self.run(self.block, h, self.rtol, self.atol, y, k1, y_new, k7, self.ratio_at):
            # the Python kernel raises where the C attempt stopped
            i = 2 * self.order
            y, k1 = self.rows[i].tolist(), self.rows[i + 1].tolist()
            y_new, k7 = self.rows[2 - i], self.rows[3 - i]
            y_new[:], k7[:], err = _step_kernel(_ROBOT_STATES)(self.f, t, h, y, k1)
            return _error_norm(err, y, y_new.tolist(), self.rtol, self.atol)
        ratio = self.ratio
        return math.sqrt(float(ratio.dot(ratio)) / _ROBOT_STATES)

    def accept(self) -> None:
        self.order ^= 1

    def result(self):
        i = 2 * self.order
        return self.rows[i].copy(), self.rows[i + 1].copy()


def _attempt(f, y: np.ndarray, k1, rtol: float, atol: float):
    """The DP5 attempt for this rhs: the C one for the robot, if it builds."""
    if getattr(f, "block", None) is not None and len(y) == _ROBOT_STATES:
        run = _compiled_robot_attempt()
        kernel = "python" if run is None else "c"
        robot_segments[kernel] += 1
        if run is not None:
            return _CompiledAttempt(run, f, y, k1, rtol, atol)
    return _PythonAttempt(f, y, k1, rtol, atol)


def initial_step(f, t0: float, y0, f0, rtol: float, atol: float) -> float:
    """Cheap two-evaluation guess of a sensible first step (Hairer's rule)."""
    y0 = np.asarray(y0, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = np.asarray(f(t0 + h0, y1.tolist()), dtype=float)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
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
):
    """Integrate y' = f(t, y) from t0 to exactly t1 (t1 > t0).

    ``y0`` is an ndarray; ``k1``, if given, is f(t0, y0) as an ndarray or a
    float sequence. Returns (y(t1), k_end, h_next): y(t1) as an ndarray,
    k_end = f(t1, y(t1)) as returned by THIS segment's rhs (left limit at a
    control boundary) and h_next, the unclipped step-size suggestion to
    carry into the next segment.
    """
    rtol, atol = opts.rtol, opts.atol
    t, t1 = float(t0), float(t1)
    if k1 is None:
        k1 = f(t, y0.tolist())
        stats.fevals += 1
    if h_start is None:
        h_next = initial_step(f, t, y0, k1, rtol, atol)
        stats.fevals += 1
    else:
        h_next = h_start
    h_next = min(h_next, opts.max_step)
    attempt = _attempt(f, y0, k1, rtol, atol)

    while t < t1:
        remaining = t1 - t
        if remaining <= 1e-14 * max(1.0, abs(t1)):
            # a step that lands an ulp short of t1 leaves a sliver narrower
            # than the time resolution; absorb it into the boundary
            t = t1
            break
        clipped = h_next >= remaining
        h = remaining if clipped else h_next
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(
                f"step size underflow at t = {t:.6e} (h = {h:.3e}, "
                f"{stats.rejected} rejected steps so far)",
                t=t,
                h=h,
                rejected=stats.rejected,
            )

        norm = attempt(t, h)
        stats.fevals += 6

        if not math.isfinite(norm):
            stats.rejected += 1
            h_next = 0.1 * h
            continue
        if norm <= 1.0:
            stats.note(h)
            t = t1 if clipped else t + h
            attempt.accept()
            factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm**_ORDER_EXPONENT)
            grown = min(h * factor, opts.max_step)
            # a clipped step can be arbitrarily short (end-of-segment sliver);
            # growing from it would poison the carried suggestion
            h_next = max(h_next, grown) if clipped else grown
        else:
            stats.rejected += 1
            h_next = h * max(_MIN_FACTOR, _SAFETY * norm**_ORDER_EXPONENT)

    y, k1 = attempt.result()
    return y, k1, h_next
