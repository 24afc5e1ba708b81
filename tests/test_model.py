import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewshift.model import (
    JacobiModel,
    ModelAdmissionError,
    TrigPoly1,
    TrigPoly2,
    default_theorem_model,
    derive_constants,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from skewshift.torus import GOLDEN_MEAN, Frequency

from conftest import constant_model, make_model


def test_trigpoly1_eval():
    a = TrigPoly1(((0, 1.5, 0.0), (1, 0.4, 0.0)))
    assert a(0.0) == pytest.approx(1.9)
    assert a(0.5) == pytest.approx(1.1)
    assert a.eval_scalar(0.25) == pytest.approx(1.5)
    ys = np.linspace(0, 1, 7)
    assert np.allclose(a(ys), 1.5 + 0.4 * np.cos(2 * np.pi * ys))


def test_trigpoly1_deriv_bound():
    a = TrigPoly1(((1, 0.4, 0.3),))
    assert a.deriv_bound() == pytest.approx(2 * math.pi * 0.7)


def test_trigpoly2_eval():
    v = TrigPoly2.cos_x()
    assert v(0.0, 0.37) == pytest.approx(1.0)
    assert v(0.5, 0.0) == pytest.approx(-1.0)
    xs = np.linspace(0, 1, 5)
    assert np.allclose(v(xs, np.zeros(5)), np.cos(2 * np.pi * xs))


def test_trigpoly2_mixed_term():
    v = TrigPoly2(((1, 2, 0.0, 0.0, 0.0, 0.7),))
    x, y = 0.13, 0.29
    want = 0.7 * math.sin(2 * math.pi * x) * math.sin(4 * math.pi * y)
    assert v(x, y) == pytest.approx(want)
    assert v.eval_scalar(x, y) == pytest.approx(want)


def _textbook1(terms, t, lib):
    """sum_k c cos(2 pi k t) + s sin(2 pi k t), every term and product
    evaluated: the reference that skipping dead harmonics must match."""
    acc = np.zeros_like(t) if lib is np else 0.0
    for k, c, s in terms:
        ang = 2.0 * math.pi * k * t
        if c:
            acc = acc + c * lib.cos(ang)
        if s:
            acc = acc + s * lib.sin(ang)
    return acc


def _textbook2(terms, x, y, lib):
    acc = np.zeros(np.broadcast(x, y).shape) if lib is np else 0.0
    for k1, k2, cc, cs, sc, ss in terms:
        a1 = 2.0 * math.pi * k1 * x
        a2 = 2.0 * math.pi * k2 * y
        c1, s1 = lib.cos(a1), lib.sin(a1)
        c2, s2 = lib.cos(a2), lib.sin(a2)
        acc = acc + (cc * c1 * c2 + cs * c1 * s2 + sc * s1 * c2 + ss * s1 * s2)
    return acc


_freq = st.integers(-3, 3)
_coef = st.one_of(st.just(0.0), st.just(1.0),
                  st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))
_phase = st.one_of(st.just(-0.0), st.floats(-2.0, 2.0, allow_nan=False))
_phases = st.lists(_phase, min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_freq, _coef, _coef), min_size=1, max_size=4), _phases)
def test_trigpoly1_bitwise_textbook(terms, ts):
    a = TrigPoly1(tuple(terms))
    t = np.array(ts)
    assert np.asarray(a(t)).tobytes() == _textbook1(terms, t, np).tobytes()
    for ti in ts:
        want = _textbook1(terms, ti, math)
        assert math.copysign(1.0, a.eval_scalar(ti)) == math.copysign(1.0, want)
        assert a.eval_scalar(ti) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_freq, _freq, _coef, _coef, _coef, _coef),
                min_size=1, max_size=4), _phases, _phases)
def test_trigpoly2_bitwise_textbook(terms, xs, ys):
    v = TrigPoly2(tuple(terms))
    size = min(len(xs), len(ys))
    x, y = np.array(xs[:size]), np.array(ys[:size])
    assert np.asarray(v(x, y)).tobytes() == _textbook2(terms, x, y, np).tobytes()
    grid = v(x[:, None], y[None, :])
    assert grid.tobytes() == _textbook2(terms, x[:, None], y[None, :], np).tobytes()
    for xi, yi in zip(x, y):
        want = _textbook2(terms, float(xi), float(yi), math)
        assert math.copysign(1.0, v.eval_scalar(xi, yi)) == math.copysign(1.0, want)
        assert v.eval_scalar(xi, yi) == want


# phases on a 2^-20 grid and offsets on a 2^-32 grid, so t + s is exact
_base = st.integers(0, 2**20 - 1).map(lambda i: i * 2.0**-20)
_offset = st.integers(-2**31, 2**31 - 1).map(lambda i: i * 2.0**-32)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_freq, _coef, _coef), min_size=1, max_size=4),
       st.lists(_base, min_size=1, max_size=6), st.lists(_offset, min_size=1, max_size=6))
def test_trigpoly1_along_matches_call(terms, ts, ss):
    # a column of offsets against a row of bases, as the sweep kernel uses it
    a = TrigPoly1(tuple(terms))
    t, s = np.array(ts)[None, :], np.array(ss)[:, None]
    tol = 1e-14 * sum(abs(c) + abs(sn) for _, c, sn in terms)
    assert np.all(np.abs(a.along(t)(s) - a(t + s)) <= tol)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_freq, _freq, _coef, _coef, _coef, _coef), min_size=1, max_size=4),
       st.lists(st.tuples(_base, _base, _offset, _offset), min_size=1, max_size=6))
def test_trigpoly2_along_matches_call(terms, pts):
    v = TrigPoly2(tuple(terms))
    x, y, sx, sy = (np.array(c) for c in zip(*pts))
    tol = 1e-14 * sum(abs(cc) + abs(cs) + abs(sc) + abs(ss) for _, _, cc, cs, sc, ss in terms)
    assert np.all(np.abs(v.along(x, y)(sx, sy) - v(x + sx, y + sy)) <= tol)
    # grid axes with per-row offsets, the kernel's shapes
    got = v.along(x[:, None], y[None, :])(sx[:, None, None], sy[:, None, None])
    want = v(x[:, None] + sx[:, None, None], y[None, :] + sy[:, None, None])
    assert np.all(np.abs(got - want) <= tol)


def test_trigpoly2_is_constant():
    assert TrigPoly2.constant(3.0).is_constant()
    assert not TrigPoly2.cos_x().is_constant()


def test_derive_constants_default():
    m = default_theorem_model()
    assert m.lam == 1e6
    assert m.sup_norm_v == pytest.approx(1.0, abs=5e-3)  # includes Lipschitz padding
    assert 1.0 <= m.inf_abs_a <= m.sup_abs_a <= 2.0
    assert m.inf_abs_a == pytest.approx(1.1, abs=1e-3)
    assert m.sup_abs_a == pytest.approx(1.9, abs=1e-3)
    # C >= max(e, 4(1+||v||)(1+sup|a|))
    assert m.constant_cva == pytest.approx(4 * 2.0 * 2.9, rel=1e-2)
    assert m.scaling_factor(0.0) == pytest.approx(math.log(m.constant_cva + 1e6))
    assert m.scaling_factor(0.0) >= 1.0


def test_log_avg_a_quadrature_oracle():
    # mean of log(1.5 + 0.4 cos) = log((1.5 + sqrt(1.5^2 - 0.4^2)) / 2)
    m = make_model()
    want = math.log((1.5 + math.sqrt(1.5**2 - 0.4**2)) / 2.0)
    assert m.log_avg_a == pytest.approx(want, abs=1e-10)


def test_admission_rejects_small_a():
    with pytest.raises(ModelAdmissionError):
        make_model(a=TrigPoly1.constant(0.9))


def test_admission_rejects_large_a():
    with pytest.raises(ModelAdmissionError):
        make_model(a=TrigPoly1(((0, 1.5, 0.0), (1, 0.8, 0.0))))


def test_admission_rejects_negative_lambda():
    with pytest.raises(ModelAdmissionError):
        make_model(lam=-1.0)


def test_theorem_mode_rejects_constant_v():
    with pytest.raises(ModelAdmissionError):
        make_model(v=TrigPoly2.constant(1.0), theorem_mode=True)
    # fine outside theorem mode
    make_model(v=TrigPoly2.constant(1.0), theorem_mode=False)


def test_lipschitz_base_dominates():
    m = make_model(lam=5.0)
    # must dominate |lam v - E| + 2 sup|a| for |E| <= energy_bound
    assert m.lipschitz_base >= m.lam * m.sup_norm_v + m.energy_bound + 2 * m.sup_abs_a


def test_energy_bound():
    m = default_theorem_model()
    assert m.energy_bound == pytest.approx(1e6 * m.sup_norm_v + 2 * m.sup_abs_a + 1.0)


def test_roundtrip_dict():
    m = default_theorem_model()
    m2 = model_from_dict(model_to_dict(m))
    assert m2.model_hash == m.model_hash
    assert m2.lam == m.lam
    assert m2.constant_cva == m.constant_cva


def test_roundtrip_file(tmp_path):
    m = make_model(lam=3.0)
    path = tmp_path / "m.json"
    save_model(m, str(path))
    m2 = load_model(str(path))
    assert m2.model_hash == m.model_hash
    raw = json.loads(path.read_text())
    assert set(raw) >= {"a_coeffs", "v_coeffs", "lambda", "omega", "epsilon"}


def test_hash_sensitive_to_lambda():
    assert make_model(lam=2.0).model_hash != make_model(lam=3.0).model_hash


def test_constant_model_admitted():
    m = constant_model(a0=1.0, v0=0.0, lam=0.0)
    assert m.log_avg_a == pytest.approx(0.0)
    assert m.a.eval_scalar(0.42) == 1.0
