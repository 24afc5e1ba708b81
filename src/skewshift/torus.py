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


def mod1(x: float) -> float:
    """Reduce into [0, 1) with x - floor(x) semantics."""
    return x - math.floor(x)


def mod1_array(z: np.ndarray) -> np.ndarray:
    """The array form of `mod1`: z - floor(z), elementwise.

    For finite z this is bitwise np.mod(z, 1.0), -0.0 included (both give
    +0.0, and both round -1e-20 up to 1.0), at a fraction of its cost.
    """
    return z - np.floor(z)


_TWO64 = 2.0**64


def q64(z) -> np.ndarray:
    """z mod 1 as uint64 Q0.64 fixed point, rounded to the nearest 2^-64."""
    t = np.rint(mod1_array(np.asarray(z, dtype=np.float64)) * _TWO64)
    return np.where(t < _TWO64, t, 0.0).astype(np.uint64)


def orbit_offsets(Y, W, s):
    """(Phi_s(y), theta_s) in Q0.64, with T^s(x, y) = (x + Phi_s, y + theta_s).

    Y and W are y and omega from `q64`; Phi_s = s*Y + s(s-1)/2 * W and
    theta_s = s*W wrap exactly mod 2^64, i.e. mod 1.  s(s-1)/2 is formed by
    parity, (s // 2)(s - 1) or s (s // 2), so the halving precedes the wrap.
    `s` is an integer or integer array of either sign, |s| <= 2^62, that
    broadcasts against Y; theta_s has the shape of s.
    """
    s = np.asarray(s, dtype=np.int64)
    step = s.astype(np.uint64)
    with np.errstate(over="ignore"):
        tri = (s >> 1).astype(np.uint64) * (s - 1 + (s & 1)).astype(np.uint64)
        return step * Y + tri * W, step * W


def exact_orbit_phases(x, y, s, omega: float):
    """T^s(x, y) mod 1, exact up to the final rounding to floats.

    x, y and omega are carried as uint64 Q0.64 fixed point (`q64`) and
    moved by the exact offsets of `orbit_offsets`.  `s` is as there.  Each
    phase is X_s / 2^64 rounded to the nearest float (1.0 becomes 0.0),
    which is bitwise `skew_shift_iterate` whenever the inputs are multiples
    of 2^-64.  Every float in [2^-11, 1), and so every sampler point, is
    one; a base coordinate below 2^-11 is first rounded to the 2^-64 grid.
    """
    X, Y = q64(x), q64(y)
    phi, theta = orbit_offsets(Y, q64(omega), s)
    with np.errstate(over="ignore"):
        return _from_q64(X + phi), _from_q64(Y + theta)


def _from_q64(q: np.ndarray) -> np.ndarray:
    f = q.astype(np.float64) / _TWO64
    return np.where(f < 1.0, f, 0.0)


def circle_dist(x: float) -> float:
    """Distance to the nearest integer, min(frac, 1 - frac)."""
    f = mod1(x)
    return min(f, 1.0 - f)


@dataclass(frozen=True)
class TorusPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"torus coordinates must be finite, got ({self.x!r}, {self.y!r})")
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
    and reduced mod 1 before conversion back to float.  At about 45 us a
    call this is the oracle of `exact_orbit_phases`, which the program uses.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _iterate_signed(p, k, omega)


@dataclass
class Frequency:
    """A frequency omega in (0, 1) with a Diophantine margin epsilon."""

    omega: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError("omega must be in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")


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
