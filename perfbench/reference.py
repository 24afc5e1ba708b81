"""Exact-phase reference for the skew-shift Jacobi cocycle.

Independent of the ``skewshift`` package: the benchmark checks the program
against it.  Base points and the frequency are floats, hence dyadic
rationals, so x, y and omega are carried as integers over one common
denominator 2**K.  The skew shift T(x, y) = (x + y, y + omega) is then an
exact integer update reduced mod 2**K, and a harmonic k*x is reduced
exactly before its cosine is taken.  The 2x2 factors

    A_j = (1/a_{j+1}) [[lam*v_j - E, -a_j], [a_{j+1}, 0]]

are multiplied in plain Python floats with Frobenius renormalization after
every step, so the only error left is ordinary rounding of the products.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# The built-in theorem model, written out here so the reference does not
# read it from the program: a = 1.5 + 0.4 cos 2 pi y, v = cos 2 pi x,
# lambda = 1e6, golden-mean frequency.
THEOREM_MODEL = {
    "a_coeffs": [[0, 1.5, 0.0], [1, 0.4, 0.0]],
    "v_coeffs": [[1, 0, 1.0, 0.0, 0.0, 0.0]],
    "lambda": 1e6,
    "omega": (math.sqrt(5.0) - 1.0) / 2.0,
    "epsilon": 0.01,
    "theorem_mode": True,
}


def _dyadic(value: float) -> tuple[int, int]:
    """(numerator, k) with value == numerator / 2**k exactly."""
    num, den = float(value).as_integer_ratio()
    return num, den.bit_length() - 1


class ExactModel:
    """Trigonometric data a(y), v(x, y) evaluated at exact dyadic phases."""

    def __init__(self, spec: dict):
        self.a_terms = [(int(k), float(c), float(s)) for k, c, s in spec["a_coeffs"]]
        self.v_terms = [(int(k1), int(k2), *map(float, coeffs))
                        for k1, k2, *coeffs in spec["v_coeffs"]]
        self.lam = float(spec["lambda"])
        self.omega = float(spec["omega"])

    def _angle(self, k: int, phase: int, bits: int) -> float:
        # 2 pi * frac(k * phase / 2**bits), with the reduction done exactly
        return TWO_PI * (((k * phase) & ((1 << bits) - 1)) / (1 << bits))

    def a(self, Y: int, bits: int) -> float:
        acc = 0.0
        for k, c, s in self.a_terms:
            ang = self._angle(k, Y, bits)
            acc += c * math.cos(ang) + s * math.sin(ang)
        return acc

    def v(self, X: int, Y: int, bits: int) -> float:
        acc = 0.0
        for k1, k2, cc, cs, sc, ss in self.v_terms:
            a1 = self._angle(k1, X, bits)
            a2 = self._angle(k2, Y, bits)
            c1, s1, c2, s2 = math.cos(a1), math.sin(a1), math.cos(a2), math.sin(a2)
            acc += cc * c1 * c2 + cs * c1 * s2 + sc * s1 * c2 + ss * s1 * s2
        return acc


def log_norms(model: ExactModel, x: float, y: float, E: float,
              checkpoints: list[int]) -> dict[int, dict[str, float]]:
    """log||M_n||_2 and log|a_1|, log|a_{n+1}| at each checkpoint n.

    One pass of max(checkpoints) steps; the unimodular log-norm is
    log||M_n|| - (log|a_1| - log|a_{n+1}|) / 2 since det M_n = a_1/a_{n+1}.
    """
    points = sorted(set(int(n) for n in checkpoints))
    if not points or points[0] < 1:
        raise ValueError("checkpoints must be positive")
    (X, kx), (Y, ky), (W, kw) = _dyadic(x % 1.0), _dyadic(y % 1.0), _dyadic(model.omega)
    bits = max(kx, ky, kw, 1)
    X <<= bits - kx
    Y <<= bits - ky
    W <<= bits - kw
    mask = (1 << bits) - 1
    lam = model.lam
    # unit-Frobenius identity
    r = math.sqrt(2.0)
    u00, u01, u10, u11 = 1.0 / r, 0.0, 0.0, 1.0 / r
    log_scale = math.log(r)
    a_next = model.a((Y + W) & mask, bits)  # a_1 = a(y + omega)
    log_a1 = math.log(abs(a_next))
    out: dict[int, dict[str, float]] = {}
    want = iter(points)
    target = next(want)
    for j in range(1, points[-1] + 1):
        X = (X + Y) & mask
        Y = (Y + W) & mask
        a_j, a_next = a_next, model.a((Y + W) & mask, bits)
        d = lam * model.v(X, Y, bits) - E
        t00 = (d * u00 - a_j * u10) / a_next
        t01 = (d * u01 - a_j * u11) / a_next
        t10, t11 = u00, u01
        fro = math.sqrt(t00 * t00 + t01 * t01 + t10 * t10 + t11 * t11)
        u00, u01, u10, u11 = t00 / fro, t01 / fro, t10 / fro, t11 / fro
        log_scale += math.log(fro)
        if j == target:
            det_u = u00 * u11 - u01 * u10
            unit2 = 0.5 * (1.0 + math.sqrt(max(1.0 - 4.0 * det_u * det_u, 0.0)))
            log_norm = log_scale + 0.5 * math.log(unit2)
            log_an1 = math.log(abs(a_next))
            out[j] = {
                "log_norm": log_norm,
                "log_norm_u": log_norm - 0.5 * (log_a1 - log_an1),
                "log_a1": log_a1,
                "log_an1": log_an1,
            }
            target = next(want, None)
    return out


def grid_mean(model: ExactModel, gx: int, gy: int, E: float, n: int) -> float:
    """Midpoint-grid mean of the unimodular (1/n) log||M_n^u||."""
    vals = []
    for i in range(gx):
        for k in range(gy):
            rec = log_norms(model, (i + 0.5) / gx, (k + 0.5) / gy, E, [n])[n]
            vals.append(rec["log_norm_u"] / n)
    return math.fsum(vals) / len(vals)
