"""Embedded Dormand-Prince 5(4) stepper with hard segment boundaries.

Control inputs are zero-order held, so the right-hand side is only smooth
inside a control interval. The driver therefore never steps across a segment
boundary: callers advance segment by segment (supplying the rhs valid for
that segment) and the stepper clips its step to the segment end. The step
size survives across segments, the FSAL stage does not (the rhs changes at
the boundary).

The pair propagates the fifth-order solution and uses the embedded
fourth-order one for error control, i.e. the usual ode45 behaviour.

The right-hand side contract is ``f(t, y) -> sequence of floats`` with ``t``
a Python float and ``y`` a list of Python floats. Inside a segment the state
and the seven stages are float lists: on a 12-vector, one list comprehension
per stage costs less than the handful of small-array numpy operations it
replaces, and it performs the same IEEE operations in the same order, so the
results are bit-identical. The segment ends are cast with ``float()``,
because a numpy scalar time would turn every stage value into a numpy scalar
and slow the float code of the rhs down. The error norm builds its ratios as
a list but keeps the final reduction ``ratio @ ratio`` in numpy: numpy's dot
does not sum left to right, and a Python sum would change the last bit of
the norm, and with it the adaptive step sizes, on about a fifth of the
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Butcher tableau (Dormand & Prince 1980), FSAL form.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Difference between the 5th and the embedded 4th order weights.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
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
    try:
        ratio = np.array([
            e / (atol + rtol * (a if a > b or a != a else b))
            for e, a, b in zip(err, map(abs, y0), map(abs, y1))
        ])
    except ZeroDivisionError:
        return math.inf
    return math.sqrt(float(ratio @ ratio) / ratio.size)


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
    y = y0.tolist()
    if k1 is None:
        k1 = f(t, y)
        stats.fevals += 1
    elif isinstance(k1, np.ndarray):
        k1 = k1.tolist()
    if h_start is None:
        h_next = initial_step(f, t, y, k1, rtol, atol)
        stats.fevals += 1
    else:
        h_next = h_start
    h_next = min(h_next, opts.max_step)

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

        # sN is one component of stage kN; each stage sums its terms in the
        # order the tableau lists them
        k2 = f(t + _C2 * h, [yi + h * (_A21 * s1) for yi, s1 in zip(y, k1)])
        k3 = f(
            t + _C3 * h,
            [yi + h * (_A31 * s1 + _A32 * s2) for yi, s1, s2 in zip(y, k1, k2)],
        )
        k4 = f(
            t + _C4 * h,
            [
                yi + h * (_A41 * s1 + _A42 * s2 + _A43 * s3)
                for yi, s1, s2, s3 in zip(y, k1, k2, k3)
            ],
        )
        k5 = f(
            t + _C5 * h,
            [
                yi + h * (_A51 * s1 + _A52 * s2 + _A53 * s3 + _A54 * s4)
                for yi, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4)
            ],
        )
        k6 = f(
            t + h,
            [
                yi + h * (_A61 * s1 + _A62 * s2 + _A63 * s3 + _A64 * s4 + _A65 * s5)
                for yi, s1, s2, s3, s4, s5 in zip(y, k1, k2, k3, k4, k5)
            ],
        )
        y_new = [
            yi + h * (_B1 * s1 + _B3 * s3 + _B4 * s4 + _B5 * s5 + _B6 * s6)
            for yi, s1, s3, s4, s5, s6 in zip(y, k1, k3, k4, k5, k6)
        ]
        k7 = f(t + h, y_new)
        stats.fevals += 6

        err = [
            h * (_E1 * s1 + _E3 * s3 + _E4 * s4 + _E5 * s5 + _E6 * s6 + _E7 * s7)
            for s1, s3, s4, s5, s6, s7 in zip(k1, k3, k4, k5, k6, k7)
        ]
        norm = _error_norm(err, y, y_new, rtol, atol)

        if not math.isfinite(norm):
            stats.rejected += 1
            h_next = 0.1 * h
            continue
        if norm <= 1.0:
            stats.note(h)
            t = t1 if clipped else t + h
            y = y_new
            k1 = k7  # FSAL
            factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm**_ORDER_EXPONENT)
            grown = min(h * factor, opts.max_step)
            # a clipped step can be arbitrarily short (end-of-segment sliver);
            # growing from it would poison the carried suggestion
            h_next = max(h_next, grown) if clipped else grown
        else:
            stats.rejected += 1
            h_next = h * max(_MIN_FACTOR, _SAFETY * norm**_ORDER_EXPONENT)

    return np.array(y), k1, h_next
