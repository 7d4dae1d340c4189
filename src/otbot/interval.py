"""Elementwise interval arithmetic for torque-bound checks.

Only the operations the feasibility check needs: interval sums, products
by (scalar or elementwise) constants, point matrix times interval vector,
and containment queries. Intervals are closed boxes stored as lo/hi arrays
of equal shape; scalars broadcast like numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Closed interval box [lo, hi], elementwise over an array shape."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError(f"shape mismatch {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("interval needs lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value) -> "Interval":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(v, v.copy())

    @classmethod
    def symmetric(cls, radius) -> "Interval":
        """[-radius, radius] around zero; radius must be non-negative."""
        r = np.atleast_1d(np.asarray(radius, dtype=float))
        if np.any(r < 0.0):
            raise ValueError("radius must be non-negative")
        return cls(-r, r)

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, other) -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-other if isinstance(other, Interval) else -np.asarray(other))

    def scale(self, k) -> "Interval":
        """Product with a constant, elementwise; negative factors swap ends."""
        k = np.asarray(k, dtype=float)
        a, b = k * self.lo, k * self.hi
        return Interval(np.minimum(a, b), np.maximum(a, b))

    def __mul__(self, k) -> "Interval":
        return self.scale(k)

    __rmul__ = __mul__

    def contains(self, value, slack: float = 0.0) -> bool:
        v = np.asarray(value, dtype=float)
        return bool(np.all(v >= self.lo - slack) and np.all(v <= self.hi + slack))

    def encloses(self, other: "Interval", slack: float = 0.0) -> bool:
        return bool(np.all(other.lo >= self.lo - slack) and np.all(other.hi <= self.hi + slack))


def matvec(matrix, box: Interval) -> Interval:
    """Hull of ``matrix @ v`` for v in the box (matrix is a point matrix).

    Stacked (n, 3, 3) matrices give the hulls of each ``matrix[k] @ v``, over
    one box or each of n boxes. Each output component is a sum of scalar
    products, so the exact hull follows from the sum and constant-product rules.
    """
    a = np.asarray(matrix, dtype=float)
    lo, hi = box.lo[..., None, :], box.hi[..., None, :]
    lo_term = np.where(a >= 0.0, lo, hi)
    hi_term = np.where(a >= 0.0, hi, lo)
    return Interval((a * lo_term).sum(axis=-1), (a * hi_term).sum(axis=-1))
