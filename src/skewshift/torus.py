"""Skew-shift dynamics on the two-torus and Diophantine frequency checks.

The torus map is T(x, y) = (x + y, y + omega) with the closed-form iterate
T^k(x, y) = (x + k*y + k(k-1)*omega/2, y + k*omega), all mod 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

_RATIONAL_TOL = 1e-14


def mod1(x: float) -> float:
    """Reduce into [0, 1) with x - floor(x) semantics."""
    return x - math.floor(x)


def mod1_array(z: np.ndarray) -> np.ndarray:
    """The array form of `mod1`: z - floor(z), elementwise.

    For finite z this is bitwise np.mod(z, 1.0), -0.0 included (both give
    +0.0, and both round -1e-20 up to 1.0), at a fraction of its cost.
    """
    return z - np.floor(z)


def circle_dist(x: float) -> float:
    """Distance to the nearest integer, min(frac, 1 - frac)."""
    f = mod1(x)
    return min(f, 1.0 - f)


@dataclass(frozen=True)
class TorusPoint:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", mod1(self.x))
        object.__setattr__(self, "y", mod1(self.y))


def skew_shift(p: TorusPoint, omega: float) -> TorusPoint:
    """One application of T(x, y) = (x + y, y + omega)."""
    return TorusPoint(p.x + p.y, p.y + omega)


def _iterate_signed(p: TorusPoint, k: int, omega: float) -> TorusPoint:
    # closed form valid for any integer k; k(k-1)/2 is always an integer
    if k == 0:
        return p
    fx = (Fraction(p.x) + k * Fraction(p.y) + (k * (k - 1) // 2) * Fraction(omega)) % 1
    fy = (Fraction(p.y) + k * Fraction(omega)) % 1
    return TorusPoint(float(fx), float(fy))


def skew_shift_iterate(p: TorusPoint, k: int, omega: float) -> TorusPoint:
    """k-th iterate via the closed form, exact in rational arithmetic.

    k*y and k(k-1)/2 * omega exceed 2^53 well before k ~ 1e8, so the
    accumulation is done on the exact binary fractions of the float inputs
    and reduced mod 1 before conversion back to float.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _iterate_signed(p, k, omega)


def continued_fraction(omega: float, depth: int) -> list[int]:
    """First `depth` partial quotients of omega in (0, 1).

    Terminates early when the remainder drops below 1e-14 (rational input).
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must be in (0, 1)")
    if depth < 1:
        raise ValueError("depth must be positive")
    terms: list[int] = []
    z = omega
    for _ in range(depth):
        if z < _RATIONAL_TOL:
            break
        z = 1.0 / z
        a = int(math.floor(z))
        if a < 1:
            break
        terms.append(a)
        z -= a
    return terms


def convergent(terms: list[int]) -> Fraction:
    """p/q reconstructed from partial quotients [a1, a2, ...]."""
    if not terms:
        raise ValueError("empty partial-quotient list")
    frac = Fraction(0)
    for a in reversed(terms):
        frac = Fraction(1, 1) / (a + frac)
    return frac


@dataclass
class Frequency:
    """A frequency omega in (0, 1) with a Diophantine margin epsilon."""

    omega: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError("omega must be in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


def diophantine_check(f: Frequency, n_max: int) -> tuple[bool, int, float]:
    """Scan n = 2..n_max for the bound ||n*omega|| > eps / (n (log n)^2).

    The n = 1 bound has log(1) = 0 in the denominator and is vacuous, so
    the scan starts at n = 2.  Returns (passes, worst_n, worst_margin)
    where worst_n minimizes ||n*omega|| * n (log n)^2 and worst_margin is
    that minimum (the check passes iff worst_margin > epsilon, except that
    an exact hit ||n*omega|| = 0 always fails).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    n = np.arange(2, n_max + 1, dtype=np.float64)
    frac = mod1_array(n * f.omega)
    dist = np.minimum(frac, 1.0 - frac)
    weight = n * np.log(n) ** 2
    margin = dist * weight
    i = int(np.argmin(margin))
    worst_n = int(n[i])
    worst_margin = float(margin[i])
    passes = bool(np.all(dist > f.epsilon / weight))
    return passes, worst_n, worst_margin
