"""The Jacobi model (a, v, lambda, omega) and its derived constants.

a and v are finite real trigonometric polynomials on T and T^2; the model
admission rule requires 1 <= |a(y)| <= 2.  Derived quantities: sup norms
with Lipschitz padding, the mean log-magnitude of a, the scaling constant
feeding S(lambda, E) = log(C + lambda + |E|), and the energy window bound.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .torus import Frequency, TorusPoint

TWO_PI = 2.0 * math.pi

GRID_1D = 1 << 14
GRID_2D = 1024


class ModelAdmissionError(ValueError):
    """Raised when (a, v, lambda) violates the model admission rules."""


@dataclass(frozen=True)
class TrigPoly1:
    """Finite Fourier series on T: sum_k c_k cos(2 pi k t) + s_k sin(2 pi k t)."""

    terms: tuple[tuple[int, float, float], ...]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for k, c, s in self.terms:
            ang = TWO_PI * k * t
            if c:
                out = out + c * np.cos(ang)
            if s:
                out = out + s * np.sin(ang)
        return out if out.ndim else float(out)

    def eval_scalar(self, t: float) -> float:
        # hot path for the scalar cocycle loops; avoids ndarray overhead
        acc = 0.0
        for k, c, s in self.terms:
            ang = TWO_PI * k * t
            if c:
                acc += c * math.cos(ang)
            if s:
                acc += s * math.sin(ang)
        return acc

    def deriv_bound(self) -> float:
        return sum(TWO_PI * abs(k) * (abs(c) + abs(s)) for k, c, s in self.terms)

    @classmethod
    def constant(cls, value: float) -> "TrigPoly1":
        return cls(((0, float(value), 0.0),))


@dataclass(frozen=True)
class TrigPoly2:
    """Finite Fourier series on T^2 in the cos/sin product basis."""

    terms: tuple[tuple[int, int, float, float, float, float], ...]

    def __call__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.float64)
        for k1, k2, cc, cs, sc, ss in self.terms:
            a1 = TWO_PI * k1 * x
            a2 = TWO_PI * k2 * y
            c1, s1 = np.cos(a1), np.sin(a1)
            c2, s2 = np.cos(a2), np.sin(a2)
            out += cc * c1 * c2 + cs * c1 * s2 + sc * s1 * c2 + ss * s1 * s2
        return out if out.ndim else float(out)

    def eval_scalar(self, x: float, y: float) -> float:
        acc = 0.0
        for k1, k2, cc, cs, sc, ss in self.terms:
            a1 = TWO_PI * k1 * x
            a2 = TWO_PI * k2 * y
            c1, s1 = math.cos(a1), math.sin(a1)
            c2, s2 = math.cos(a2), math.sin(a2)
            acc += cc * c1 * c2 + cs * c1 * s2 + sc * s1 * c2 + ss * s1 * s2
        return acc

    def grad_bound(self) -> float:
        # bound on |grad v| from the coefficients, used for sup-norm padding
        total = 0.0
        for k1, k2, cc, cs, sc, ss in self.terms:
            amp = abs(cc) + abs(cs) + abs(sc) + abs(ss)
            total += TWO_PI * (abs(k1) + abs(k2)) * amp
        return total

    def is_constant(self) -> bool:
        return all(
            (k1 == 0 and k2 == 0) or (abs(cc) + abs(cs) + abs(sc) + abs(ss) == 0.0)
            for k1, k2, cc, cs, sc, ss in self.terms
        )

    @classmethod
    def constant(cls, value: float) -> "TrigPoly2":
        return cls(((0, 0, float(value), 0.0, 0.0, 0.0),))

    @classmethod
    def cos_x(cls, amplitude: float = 1.0) -> "TrigPoly2":
        return cls(((1, 0, float(amplitude), 0.0, 0.0, 0.0),))


@dataclass(frozen=True)
class JacobiModel:
    a: TrigPoly1
    v: TrigPoly2
    lam: float
    frequency: Frequency
    sup_norm_v: float
    inf_abs_a: float
    sup_abs_a: float
    constant_cva: float
    log_avg_a: float
    energy_bound: float
    theorem_mode: bool
    model_hash: str

    @property
    def omega(self) -> float:
        return self.frequency.omega

    def eval_a(self, y: float) -> float:
        return self.a.eval_scalar(y)

    def eval_v(self, p: TorusPoint) -> float:
        return self.v.eval_scalar(p.x, p.y)

    def scaling_factor(self, E: float) -> float:
        """S(lambda, E) = log(C + lambda + |E|), >= 1 by the admission rule."""
        return math.log(self.constant_cva + self.lam + abs(E))

    @property
    def lipschitz_base(self) -> float:
        """A constant dominating sup ||A'_n||, for the energy-Lipschitz bound.

        |lambda v - E| + 2 sup|a| <= lambda ||v|| + E0 + 2 sup|a|, which is
        below constant_cva + lambda + E0 since constant_cva >= 4(1 + sup|a|).
        """
        return self.constant_cva + self.lam + self.energy_bound


def _coeffs_canonical(a: TrigPoly1, v: TrigPoly2) -> dict:
    return {
        "a_coeffs": [[int(k), float(c), float(s)] for k, c, s in a.terms],
        "v_coeffs": [
            [int(k1), int(k2), float(cc), float(cs), float(sc), float(ss)]
            for k1, k2, cc, cs, sc, ss in v.terms
        ],
    }


def _hash_model(a: TrigPoly1, v: TrigPoly2, lam: float, freq: Frequency) -> str:
    payload = dict(_coeffs_canonical(a, v))
    payload["lambda"] = float(lam)
    payload["omega"] = float(freq.omega)
    payload["epsilon"] = float(freq.epsilon)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def derive_constants(
    a: TrigPoly1,
    v: TrigPoly2,
    lam: float,
    freq: Frequency,
    theorem_mode: bool = False,
) -> JacobiModel:
    """Admit a model and compute its derived constants.

    Sup/inf norms come from dense grids (2^14 points in 1-D, 1024^2 in 2-D)
    padded by grid-spacing times a derivative bound; the mean of log|a| uses
    the same 1-D grid (trapezoid = plain mean for periodic integrands).
    Rejects a violating 1 <= |a| <= 2 on the grid, and constant v in
    theorem mode.
    """
    if lam < 0:
        raise ModelAdmissionError("lambda must be nonnegative")
    ys = np.arange(GRID_1D) / GRID_1D
    abs_a = np.abs(a(ys))
    pad_a = 0.5 * a.deriv_bound() / GRID_1D
    inf_a = float(abs_a.min())
    sup_a = float(abs_a.max())
    if inf_a < 1.0 or sup_a > 2.0:
        raise ModelAdmissionError(
            f"|a| must stay in [1, 2]; grid range [{inf_a:.6g}, {sup_a:.6g}]"
        )
    if theorem_mode and v.is_constant():
        raise ModelAdmissionError("theorem mode requires a nonconstant potential")

    xs = np.arange(GRID_2D) / GRID_2D
    vals = v(xs[:, None], xs[None, :])  # broadcast axes, no 1024^2 meshgrid
    sup_v = float(np.abs(vals).max()) + 0.5 * v.grad_bound() / GRID_2D

    log_avg = float(np.mean(np.log(abs_a)))
    sup_a_pad = min(2.0, sup_a + pad_a)
    inf_a_pad = max(1.0, inf_a - pad_a)
    cva = max(math.e, 4.0 * (1.0 + sup_v) * (1.0 + sup_a_pad))
    e0 = lam * sup_v + 2.0 * sup_a_pad + 1.0
    return JacobiModel(
        a=a,
        v=v,
        lam=float(lam),
        frequency=freq,
        sup_norm_v=sup_v,
        inf_abs_a=inf_a_pad,
        sup_abs_a=sup_a_pad,
        constant_cva=cva,
        log_avg_a=log_avg,
        energy_bound=e0,
        theorem_mode=theorem_mode,
        model_hash=_hash_model(a, v, lam, freq),
    )


def model_to_dict(m: JacobiModel) -> dict:
    d = _coeffs_canonical(m.a, m.v)
    d["lambda"] = m.lam
    d["omega"] = m.frequency.omega
    d["epsilon"] = m.frequency.epsilon
    d["theorem_mode"] = m.theorem_mode
    return d


def model_from_dict(d: dict) -> JacobiModel:
    try:
        a = TrigPoly1(tuple((int(k), float(c), float(s)) for k, c, s in d["a_coeffs"]))
        v = TrigPoly2(
            tuple(
                (int(k1), int(k2), float(cc), float(cs), float(sc), float(ss))
                for k1, k2, cc, cs, sc, ss in d["v_coeffs"]
            )
        )
        lam = float(d["lambda"])
        freq = Frequency(float(d["omega"]), float(d["epsilon"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelAdmissionError(f"malformed model description: {exc}") from exc
    return derive_constants(a, v, lam, freq, theorem_mode=bool(d.get("theorem_mode", False)))


def load_model(path) -> JacobiModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(m: JacobiModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_theorem_model(lam: float = 1e6, epsilon: float = 0.01) -> JacobiModel:
    """v = cos(2 pi x), a = 1.5 + 0.4 cos(2 pi y), golden-mean frequency."""
    from .torus import GOLDEN_MEAN

    a = TrigPoly1(((0, 1.5, 0.0), (1, 0.4, 0.0)))
    v = TrigPoly2.cos_x()
    return derive_constants(a, v, lam, Frequency(GOLDEN_MEAN, epsilon), theorem_mode=True)
