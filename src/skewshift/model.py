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
from functools import cached_property

import numpy as np

from .torus import Frequency

TWO_PI = 2.0 * math.pi

GRID_1D = 1 << 14
GRID_2D = 1024
# rows of the 2-D grid per block of admission's sup|v| (2 MiB at 1024
# columns).  Not smaller: freeing a 2 MiB block raises glibc's dynamic mmap
# and trim thresholds for the rest of the process, and without that the
# later narrow sweeps page-fault on their scratch arrays
_ROWS = GRID_2D // 4


_ONE, _COS, _SIN = 0, 1, 2  # factors of a TrigPoly2 product: 1, cos, sin


class ModelAdmissionError(ValueError):
    """Raised when (a, v, lambda) violates the model admission rules."""


def _quarter(w: float, s):
    # (cos w s, sin w s) from a quarter angle doubled twice: for |w s| <= pi
    # libm's cos and sin then see arguments within pi/4, costing about half
    h = 0.25 * w * s
    cs, ss = np.cos(h), np.sin(h)
    for _ in range(2):
        ss, cs = 2.0 * ss * cs, 1.0 - 2.0 * ss * ss
    return cs, ss


def _turn(table, q, want_cos: bool, want_sin: bool):
    """(cos w (t + s), sin w (t + s)) from table = (cos w t, sin w t) and
    q = _quarter(w, s) by angle addition, each formed only if wanted."""
    if table is None:
        return None, None
    (ct, st), (cs, ss) = table, q
    cos = sin = None  # formed in place: fewer full-size temporaries
    if want_cos:
        cos = ct * cs
        cos -= st * ss
    if want_sin:
        sin = st * cs
        sin += ct * ss
    return cos, sin


def _products(prods, fx, fy):
    """The sum of coefficient * x factor * y factor over one TrigPoly2 term's
    products, in order; fx and fy are indexed by _ONE, _COS, _SIN."""
    term = None
    for coef, i, j in prods:
        p = (fx[i] if coef == 1.0 else coef * fx[i]) if i else coef
        if j:
            p = p * fy[j]
        term = p if term is None else term + p
    return term


@dataclass(frozen=True)
class TrigPoly1:
    """Finite Fourier series on T: sum_k c_k cos(2 pi k t) + s_k sin(2 pi k t).

    Evaluated as the `TrigPoly2` of the same series in the second variable.
    """

    terms: tuple[tuple[int, float, float], ...]

    @cached_property
    def _in_y(self) -> "TrigPoly2":
        # a cos term and a sin term per harmonic, so c cos and s sin join the
        # sum one after the other, bitwise the textbook sum
        return TrigPoly2(tuple(term for k, c, s in self.terms
                               for term in ((0, k, c, 0.0, 0.0, 0.0), (0, k, 0.0, s, 0.0, 0.0))))

    def __call__(self, t):
        # _eval, not TrigPoly2.__call__: a tracer wrapping both classes'
        # __call__ (perfbench/tracing.py) then counts each evaluation once
        return self._in_y._eval(np, 0.0, t)

    def eval_scalar(self, t: float) -> float:
        return self._in_y._eval(math, 0.0, t)

    def along(self, t):
        """The evaluator s -> self(t + s): `TrigPoly2.along` in y."""
        at = self._in_y.along(0.0, t)
        return lambda s: at(0.0, s)

    def deriv_bound(self) -> float:
        return sum(TWO_PI * abs(k) * (abs(c) + abs(s)) for k, c, s in self.terms)

    @classmethod
    def constant(cls, value: float) -> "TrigPoly1":
        return cls(((0, float(value), 0.0),))


@dataclass(frozen=True)
class TrigPoly2:
    """Finite Fourier series on T^2 in the cos/sin product basis.

    Evaluation costs one trig call per live harmonic and axis (see `_live`).
    """

    terms: tuple[tuple[int, int, float, float, float, float], ...]

    @cached_property
    def _live(self):
        # Per term that can be nonzero: (k1, cos x used, sin x used, k2, cos y
        # used, sin y used, products).  A product is
        # (coefficient, x factor, y factor) in cc, cs, sc, ss order.  For a
        # finite phase, cos(0 t) = 1 and sin(0 t) = 0 exactly, so a k = 0 axis
        # has the factor 1 (no multiply) and no sin products; a zero
        # coefficient adds a signed zero to a sum that starts at +0.0, which
        # leaves every bit unchanged, so it drops too.
        live = []
        for k1, k2, cc, cs, sc, ss in self.terms:
            fx = (_COS, _SIN) if k1 else (_ONE, None)
            fy = (_COS, _SIN) if k2 else (_ONE, None)
            prods = tuple(
                (coef, fx[i], fy[j])
                for coef, i, j in ((cc, 0, 0), (cs, 0, 1), (sc, 1, 0), (ss, 1, 1))
                if coef and fx[i] is not None and fy[j] is not None
            )
            if prods:
                xf = {i for _, i, _ in prods}
                yf = {j for _, _, j in prods}
                live.append((k1, _COS in xf, _SIN in xf, k2, _COS in yf, _SIN in yf, prods))
        return tuple(live)

    def __call__(self, x, y):
        return self._eval(np, x, y)

    def eval_scalar(self, x: float, y: float) -> float:
        return self._eval(math, x, y)

    def _eval(self, lib, x, y):
        # the one evaluation loop, with cos and sin from lib: numpy for
        # arrays (a float at 0-d), or math for floats
        acc = 0.0
        if lib is np:
            x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
            acc = np.zeros(np.broadcast(x, y).shape)
        for k1, cos1, sin1, k2, cos2, sin2, prods in self._live:
            w1, w2 = TWO_PI * k1, TWO_PI * k2
            fx = (1.0, lib.cos(w1 * x) if cos1 else None, lib.sin(w1 * x) if sin1 else None)
            fy = (1.0, lib.cos(w2 * y) if cos2 else None, lib.sin(w2 * y) if sin2 else None)
            acc += _products(prods, fx, fy)
        return acc if np.ndim(acc) else float(acc)

    @cached_property
    def x_frequencies(self) -> tuple[int, ...]:
        """The distinct frequencies k1 of the live terms that have an x factor."""
        return tuple(sorted({k1 for k1, cos1, sin1, *_ in self._live if cos1 or sin1}))

    def along(self, x, y, scale=1.0, shift=0.0):
        """The evaluator at(sx, sy) = scale * self(x + sx, y + sy) + shift by
        angle addition: cos and sin of x and y are tabulated once, and a call
        takes trig only at the offsets' shapes (per step, for a column of step
        offsets), within a few ulp of sum |coef| of the direct call.  In two
        stages: `at.offsets(sx, sy)` takes that trig, completing the y
        factors, and returns `rows(sl, out)`, which sums the rows `sl` of the
        offsets' leading (step) axis into `out`, bitwise the one-shot call.
        `at.offsets(None, sy, x_turns)` takes the x offsets' trig from x_turns
        instead, a map from each of `x_frequencies` k1 to (cos 2 pi k1 sx,
        sin 2 pi k1 sx).  The map costs no pass of its own: scale sits in the
        x tables (in the coefficients of a term constant in x) and the sum
        starts at shift; at (1, 0) it changes no bit."""
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        terms = [(prods if cos1 or sin1 else tuple((scale * c, i, j) for c, i, j in prods),
                  (scale * np.cos(TWO_PI * k1 * x), scale * np.sin(TWO_PI * k1 * x))
                  if cos1 or sin1 else None,
                  (np.cos(TWO_PI * k2 * y), np.sin(TWO_PI * k2 * y)) if cos2 or sin2 else None)
                 for k1, cos1, sin1, k2, cos2, sin2, prods in self._live]

        def offsets(sx, sy, x_turns=None):
            staged = [(prods, tx, cos1, sin1,
                       tx and (_quarter(TWO_PI * k1, sx) if x_turns is None else x_turns[k1]),
                       _turn(ty, ty and _quarter(TWO_PI * k2, sy), cos2, sin2))
                      for (k1, cos1, sin1, k2, cos2, sin2, _), (prods, tx, ty)
                      in zip(self._live, terms)]

            def rows(sl, out):
                # rows sl of the staged arrays' leading (step) axis, from shift
                sums = (_products(prods, (1.0, *_turn(tx, q and (q[0][sl], q[1][sl]), c1, s1)),
                                  (1.0, *[None if f is None else f[sl] for f in fy]))
                        for prods, tx, c1, s1, q, fy in staged)
                np.add(next(sums, 0.0), shift, out=out)
                for term in sums:
                    out += term
                return out
            return rows

        def at(sx, sy):
            return offsets(sx, sy)(..., np.empty(np.broadcast(x, y, sx, sy).shape))
        at.offsets = offsets
        return at

    def grad_bound(self) -> float:
        # bound on |grad v| from the live coefficients, for sup-norm padding
        return sum(TWO_PI * (abs(k1) + abs(k2)) * sum(abs(c) for c, _, _ in prods)
                   for k1, _, _, k2, _, _, prods in self._live)

    def is_constant(self) -> bool:
        # a coefficient on sin(0 t) is dead, however large
        return not any(k1 or k2 for k1, _, _, k2, *_ in self._live)

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
    Rejects a non-finite lambda or coefficient, a violating 1 <= |a| <= 2 on
    the grid, and constant v in theorem mode.
    """
    if not all(map(math.isfinite, (lam, *(c for t in a.terms + v.terms for c in t)))):
        raise ModelAdmissionError("lambda and the coefficients of a and v must be finite")
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
    sup_v = 0.0
    for i in range(0, GRID_2D, _ROWS):  # broadcast axes, no 1024^2 meshgrid
        block = v(xs[i:i + _ROWS, None], xs[None, :])
        sup_v = max(sup_v, float(np.abs(block, out=block).max()))
    sup_v += 0.5 * v.grad_bound() / GRID_2D

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
