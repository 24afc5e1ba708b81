import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from skewshift import cocycle
from skewshift.cocycle import (
    CocycleProduct,
    LogScaledMatrix,
    batched_log_norm_checkpoints,
    batched_log_norms,
    f_determinant,
    fundamental_matrix,
    fundamental_matrix_a,
    fundamental_matrix_via_f,
    inverse_transfer_matrix,
    normalize_unimodular,
    orbit_values,
    solve_difference_equation,
    spectral_norm,
    transfer_matrix,
    wronskian,
)
from skewshift.lyapunov import Sampler
from skewshift.model import (
    ModelAdmissionError,
    TrigPoly1,
    TrigPoly2,
    model_from_dict,
    model_to_dict,
)
from skewshift.avalanche import cocycle_blocks
from skewshift.torus import TorusPoint, mod1, q64, skew_shift_iterate

from conftest import constant_model, dense_product, make_model, random_points, tridiag_det


# ---------------------------------------------------------------- log-scaled


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mat = rng.normal(size=(2, 2))
        assert spectral_norm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12)


def test_log_scaled_roundtrip():
    mat = np.array([[3.0, -1.0], [1.0, 0.0]])
    ls = LogScaledMatrix.from_matrix(mat)
    assert np.allclose(ls.to_matrix(), mat)
    assert ls.log_norm2 == pytest.approx(math.log(np.linalg.norm(mat, 2)))


def test_log_scaled_product_avoids_overflow():
    # 400 factors of norm e^10 each: plain floats would overflow at ~e^709
    f = LogScaledMatrix.from_matrix(np.diag([math.e**10, math.e**-10]))
    acc = LogScaledMatrix.identity()
    for _ in range(400):
        acc = f @ acc
    assert acc.log_norm2 == pytest.approx(4000.0, rel=1e-12)
    # the unit determinant cancels entirely at this conditioning; the
    # representation reports -inf rather than a garbage value
    assert acc.log_det == -math.inf


def test_log_scaled_group_law():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    prod = LogScaledMatrix.from_matrix(a) @ LogScaledMatrix.from_matrix(b)
    assert np.allclose(prod.to_matrix(), a @ b, rtol=1e-12)


# ---------------------------------------------------------------- one step


def test_transfer_matrix_entries(tame_model):
    m = tame_model
    p = TorusPoint(0.2, 0.7)
    a_vals, v_vals = orbit_values(m, p, 1)
    E = 0.45
    A = transfer_matrix(m, p, E, 1)
    assert A[0, 0] == pytest.approx((m.lam * v_vals[1] - E) / a_vals[2])
    assert A[0, 1] == pytest.approx(-a_vals[1] / a_vals[2])
    assert A[1, 0] == pytest.approx(1.0)
    assert A[1, 1] == 0.0


def test_inverse_transfer_matrix(tame_model):
    m = tame_model
    p = TorusPoint(0.31, 0.17)
    for j in (1, 2, 5):
        A = transfer_matrix(m, p, 0.3, j)
        B = inverse_transfer_matrix(m, p, 0.3, j)
        assert np.allclose(B @ A, np.eye(2), atol=1e-12)


def test_orbit_values_track_iterates(tame_model):
    m = tame_model
    p = TorusPoint(0.11, 0.83)
    a_vals, v_vals = orbit_values(m, p, 6)
    for j in range(1, 7):
        q = skew_shift_iterate(p, j, m.omega)
        assert a_vals[j] == pytest.approx(m.a.eval_scalar(q.y), abs=1e-12)
        assert v_vals[j] == pytest.approx(m.v.eval_scalar(q.x, q.y), abs=1e-12)
    q7 = skew_shift_iterate(p, 7, m.omega)
    assert a_vals[7] == pytest.approx(m.a.eval_scalar(q7.y), abs=1e-12)


# ---------------------------------------------------------------- products


def test_product_matches_dense_oracle(tame_model):
    rng = np.random.default_rng(7)
    for p in random_points(rng, 10):
        E = float(rng.normal())
        n = int(rng.integers(1, 40))
        cp = fundamental_matrix(tame_model, p, E, n)
        dense = dense_product(tame_model, p, E, n)
        assert cp.log_norm == pytest.approx(
            math.log(np.linalg.norm(dense, 2)), rel=1e-10, abs=1e-10)


def test_determinant_identity_exact(tame_model):
    m = tame_model
    rng = np.random.default_rng(11)
    for p in random_points(rng, 10):
        n = int(rng.integers(1, 200))
        cp = fundamental_matrix(m, p, float(rng.normal()), n)
        a_vals, _ = orbit_values(m, p, n)
        want = math.log(abs(a_vals[1] / a_vals[n + 1]))
        assert cp.log_det == pytest.approx(want, abs=1e-10)


def test_a_product_identity(tame_model):
    # log||M^a|| = log||M|| + sum log|a_{j+1}|
    m = tame_model
    p = TorusPoint(0.123, 0.456)
    E, n = 0.3, 30
    cp = fundamental_matrix(m, p, E, n)
    ca = fundamental_matrix_a(m, p, E, n)
    a_vals, _ = orbit_values(m, p, n)
    offset = float(np.sum(np.log(np.abs(a_vals[2:n + 2]))))
    assert ca.log_norm == pytest.approx(cp.log_norm + offset, abs=1e-8)


def test_product_refuses_small_a_along_orbit(tame_model):
    # models built past admission: |a| below the floor raises the admission
    # error at the step that first meets it, never a math domain error from
    # log 0; n = 0 meets no a_j and raises nothing
    zero = dataclasses.replace(tame_model, a=TrigPoly1.constant(0.0))
    p = TorusPoint(0.3, 0.2)
    assert fundamental_matrix(zero, p, 0.0, 0).n == 0
    # a = 1.2 + 0.5 cos(2 pi y) from y_1 = 0.1: a_1, a_2 >= 1 > a_3
    dip = dataclasses.replace(tame_model, a=TrigPoly1(((0, 1.2, 0.0), (1, 0.5, 0.0))))
    q = TorusPoint(0.3, mod1(0.1 - dip.omega))
    for f in (fundamental_matrix, fundamental_matrix_a):
        with pytest.raises(ModelAdmissionError, match="step 1$"):
            f(zero, p, 0.0, 1)
        f(dip, q, 0.0, 1)
        with pytest.raises(ModelAdmissionError, match="step 2$"):
            f(dip, q, 0.0, 2)


def test_unimodular_normalization(tame_model):
    m = tame_model
    p = TorusPoint(0.9, 0.05)
    cp = fundamental_matrix(m, p, -0.7, 25)
    cu = normalize_unimodular(cp)
    assert cu.log_det == pytest.approx(0.0, abs=1e-10)
    assert cu.log_norm == pytest.approx(cp.log_norm - 0.5 * cp.log_det, abs=1e-10)
    # unimodular norm is at least 1
    assert cu.log_norm >= -1e-12


def test_huge_lambda_no_overflow(theorem_model):
    # lambda = 1e6, n = 500: entries ~ e^{6900}, far beyond float range
    cp = fundamental_matrix(theorem_model, TorusPoint(0.2, 0.3), 0.0, 500)
    assert math.isfinite(cp.log_norm)
    assert cp.log_norm > 500 * 0.5 * math.log(1e6)


# ---------------------------------------------------------------- long orbits


def _product_loop(m, base, E, checkpoints, divide=True):
    """Ordered product A_n...A_1 (divide) or A'_n...A'_1 one factor at a
    time, renormalized to unit Frobenius norm after every factor, read out
    at each of the ascending `checkpoints`.  The phases step exactly: x, y
    and omega are integers over 2^64, added mod 2^64, and each phase is
    rounded to a float once.  The textbook oracle of `orbit_product`."""
    mask = (1 << 64) - 1
    X, Y, W = (Fraction(v) * 2**64 for v in (base.x, base.y, m.omega))
    assert X.denominator == Y.denominator == W.denominator == 1
    X, Y, W = int(X), int(Y), int(W)

    def phase(q):
        return (q / 2**64) % 1.0

    r = math.sqrt(2.0)
    u00, u01, u10, u11 = 1.0 / r, 0.0, 0.0, 1.0 / r
    log_scale, log_det = math.log(r), 0.0
    a_eval, v_eval = m.a.eval_scalar, m.v.eval_scalar
    Y_next = (Y + W) & mask
    a_next = a_eval(phase(Y_next))
    out = {}
    for j in range(1, checkpoints[-1] + 1):
        X = (X + Y) & mask
        Y, Y_next = Y_next, (Y_next + W) & mask
        a_j, a_next = a_next, a_eval(phase(Y_next))
        d = m.lam * v_eval(phase(X), phase(Y)) - E
        if divide:
            t00 = (d * u00 - a_j * u10) / a_next
            t01 = (d * u01 - a_j * u11) / a_next
            t10, t11 = u00, u01
            log_det += math.log(abs(a_j)) - math.log(abs(a_next))
        else:
            t00 = d * u00 - a_j * u10
            t01 = d * u01 - a_j * u11
            t10, t11 = a_next * u00, a_next * u01
            log_det += math.log(abs(a_j)) + math.log(abs(a_next))
        fro = math.sqrt(t00 * t00 + t01 * t01 + t10 * t10 + t11 * t11)
        u00, u01, u10, u11 = t00 / fro, t01 / fro, t10 / fro, t11 / fro
        log_scale += math.log(fro)
        if j in checkpoints:
            unit = np.array([[u00, u01], [u10, u11]])
            out[j] = CocycleProduct(LogScaledMatrix(unit, log_scale), log_det, j)
    return out


N_LONG = 2**20  # n0^5 for n0 = 16, the longest scale of the paper's schedule
LONG_BASES = ((0.31, 0.17), (0.7, 0.42))


@pytest.fixture(scope="module")
def long_oracle(theorem_model):
    (x0, y0), (x1, y1) = LONG_BASES
    first = _product_loop(theorem_model, TorusPoint(x0, y0), 0.0, [10**5, N_LONG])
    return [first, _product_loop(theorem_model, TorusPoint(x1, y1), 0.0, [10**5])]


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_long_orbit_agreement_at_n0_to_the_fifth(theorem_model, long_oracle, monkeypatch):
    # scalar products at two segment lengths, the batched view and the
    # exact-phase oracle agree at n = 2^20
    p = TorusPoint(*LONG_BASES[0])
    want = long_oracle[0][N_LONG]
    got = [fundamental_matrix(theorem_model, p, 0.0, N_LONG)]
    b = batched_log_norms(theorem_model, np.array([p.x]), np.array([p.y]), 0.0, N_LONG)
    monkeypatch.setattr(cocycle, "_SEGMENT", 100)
    got.append(fundamental_matrix(theorem_model, p, 0.0, N_LONG))
    for c in got:
        assert _rel(c.log_norm, want.log_norm) < 1e-9
        assert abs(c.log_det - want.log_det) < 1e-9
        assert np.allclose(c.m.unit, want.m.unit, rtol=0.0, atol=1e-9)
    assert _rel(got[0].log_norm, got[1].log_norm) < 1e-9
    assert b["log_norm"][0] == got[0].log_norm
    assert _rel(float(b["log_norm"][0]), want.log_norm) < 1e-9


def test_long_via_f_at_n0_to_the_fifth(theorem_model, long_oracle):
    # the f-recurrence product, the transfer-matrix product and the
    # exact-phase oracle agree at n = 2^20
    p = TorusPoint(*LONG_BASES[0])
    want = long_oracle[0][N_LONG]
    cf = fundamental_matrix_via_f(theorem_model, p, 0.0, N_LONG)
    cp = fundamental_matrix(theorem_model, p, 0.0, N_LONG)
    assert _rel(cf.log_norm, cp.log_norm) < 1e-9
    assert _rel(cf.log_norm, want.log_norm) < 1e-9
    assert abs(cf.log_det - want.log_det) < 1e-9
    assert np.allclose(cf.m.unit, want.m.unit, rtol=0.0, atol=1e-9)


def test_batched_width_two_long_orbit(theorem_model, long_oracle):
    # the width-2 call at n = 1e5 whose float closed-form phases once drifted
    xs, ys = (np.array(v) for v in zip(*LONG_BASES))
    out = batched_log_norms(theorem_model, xs, ys, 0.0, 10**5)
    for i, oracle in enumerate(long_oracle):
        want = oracle[10**5]
        assert _rel(float(out["log_norm"][i]), want.log_norm) < 1e-9
        assert abs(float(out["log_det"][i]) - want.log_det) < 1e-9
        assert _rel(float(out["log_norm_u"][i]), normalize_unimodular(want).log_norm) < 1e-9


def test_orbit_product_matches_oracle_across_segments(tame_model, monkeypatch):
    # n = 3 segments + 5 steps; last segment shorter, longer or equal
    rng = np.random.default_rng(41)
    for seg in (1, 4, 5, 7):
        monkeypatch.setattr(cocycle, "_SEGMENT", seg)
        for p in random_points(rng, 3):
            n = 3 * seg + 5
            for divide, f in ((True, fundamental_matrix), (False, fundamental_matrix_a)):
                want = _product_loop(tame_model, p, 0.3, [n], divide)[n]
                got = f(tame_model, p, 0.3, n)
                assert got.log_norm == pytest.approx(want.log_norm, rel=1e-12)
                assert got.log_det == pytest.approx(want.log_det, rel=1e-12, abs=1e-12)
                assert np.allclose(got.m.unit, want.m.unit, rtol=0.0, atol=1e-12)


def test_tree_fold_matches_oracle(tame_model, monkeypatch):
    # K = 1..9 segments of 3 steps, the last one short or full: the pairwise
    # fold carries an odd segment at one or more of its levels
    monkeypatch.setattr(cocycle, "_SEGMENT", 3)
    rng = np.random.default_rng(59)
    for K in (1, 2, 3, 4, 5, 7, 8, 9):
        for p in random_points(rng, 2):
            for n in (3 * K - 1, 3 * K):
                for divide, f in ((True, fundamental_matrix), (False, fundamental_matrix_a)):
                    want = _product_loop(tame_model, p, 0.3, [n], divide)[n]
                    got = f(tame_model, p, 0.3, n)
                    assert got.log_norm == pytest.approx(want.log_norm, rel=1e-12)
                    assert np.allclose(got.m.unit, want.m.unit, rtol=0.0, atol=1e-12)


def test_negative_a_products(monkeypatch):
    # a <= -1 everywhere: the divided product carries the sign of
    # prod a_{j+1} = sign(a)^n, checked on both parities of n across segments
    m = make_model(a=TrigPoly1(((0, -1.5, 0.0), (1, -0.3, 0.0))))
    monkeypatch.setattr(cocycle, "_SEGMENT", 6)
    rng = np.random.default_rng(43)
    for p in random_points(rng, 4):
        E = float(rng.normal())
        for n in (3 * 6 + 5, 3 * 6 + 6):
            dense = dense_product(m, p, E, n)
            a_vals, _ = orbit_values(m, p, n)
            dense_a = dense * np.prod(a_vals[2:n + 2])
            for got, want in ((fundamental_matrix(m, p, E, n), dense),
                              (fundamental_matrix_a(m, p, E, n), dense_a)):
                assert np.allclose(got.m.unit, want / np.linalg.norm(want), rtol=0.0, atol=1e-10)
                assert got.log_norm == pytest.approx(math.log(np.linalg.norm(want, 2)), rel=1e-12)
                assert got.log_det == pytest.approx(math.log(abs(np.linalg.det(want))),
                                                    rel=1e-9, abs=1e-9)


def test_product_refuses_small_a_across_segments(tame_model, monkeypatch):
    # a = 1.099 + 0.1 cos(2 pi y) dips below 1 on 4.5 % of the circle: the
    # first step that meets it (a_1 and a_2 enter step 1, a_{j+1} step j)
    # is named whatever segment it falls in
    dip = dataclasses.replace(tame_model, a=TrigPoly1(((0, 1.099, 0.0), (1, 0.1, 0.0))))
    rng = np.random.default_rng(47)
    n, steps = 60, set()
    for p in random_points(rng, 12):
        a_vals, _ = orbit_values(dip, p, n)
        low = np.flatnonzero(np.abs(a_vals[1:]) < 1.0 - 1e-9)
        for seg in (2, 3, 5, 128):
            monkeypatch.setattr(cocycle, "_SEGMENT", seg)
            for f in (fundamental_matrix, fundamental_matrix_a):
                if low.size == 0:
                    f(dip, p, 0.0, n)
                    continue
                step = max(1, int(low[0]))  # a_vals[1:][i] is a_{i+1}
                steps.add(step)
                with pytest.raises(ModelAdmissionError, match=f"step {step}$"):
                    f(dip, p, 0.0, n)
    assert len(steps) >= 4  # several segments and offsets were exercised


def test_batched_long_view_per_point(theorem_model, monkeypatch):
    # beyond _SEGMENT the batched view gives each point bitwise its
    # fundamental_matrix log-norm, however the points are chunked
    monkeypatch.setattr(cocycle, "_SEGMENT", 8)
    rng = np.random.default_rng(53)
    x, y = rng.random(5), rng.random(5)
    n = 3 * 8 + 5
    wide = batched_log_norms(theorem_model, x, y, 0.35, n)
    monkeypatch.setattr(cocycle, "_BLOCK", 7)  # one point per kernel call
    narrow = batched_log_norms(theorem_model, x, y, 0.35, n)
    for key in wide:
        assert wide[key].tobytes() == narrow[key].tobytes(), key
    for i in range(5):
        p = TorusPoint(float(x[i]), float(y[i]))
        cp = fundamental_matrix(theorem_model, p, 0.35, n)
        ca = fundamental_matrix_a(theorem_model, p, 0.35, n)
        assert wide["log_norm"][i] == cp.log_norm
        assert wide["log_det"][i] == cp.log_det
        assert wide["log_norm_a"][i] == pytest.approx(ca.log_norm, rel=1e-14)
        assert wide["log_norm_u"][i] == pytest.approx(
            normalize_unimodular(cp).log_norm, rel=1e-14)


def test_cocycle_blocks_lie_on_the_orbit(theorem_model):
    # block j is bitwise the product at T^{jn}(base) from the rational
    # closed form, and the blocks multiply to the full product
    p, n, count = TorusPoint(0.31, 0.17), 300, 5
    blocks = cocycle_blocks(theorem_model, p, 0.0, n, count)
    for j, b in enumerate(blocks):
        q = skew_shift_iterate(p, j * n, theorem_model.omega)
        want = normalize_unimodular(fundamental_matrix(theorem_model, q, 0.0, n)).m
        assert b.unit.tobytes() == want.unit.tobytes()
        assert b.log_scale == want.log_scale
    full = blocks[0]
    for b in blocks[1:]:
        full = b @ full
    whole = normalize_unimodular(fundamental_matrix(theorem_model, p, 0.0, n * count))
    assert full.log_norm2 == pytest.approx(whole.log_norm, rel=1e-12)


# ---------------------------------------------------------------- f recurrence


def _f_loop(a_vals, v_vals, lam, E, n):
    """Signed-log values of f_0..f_n by the three-term recurrence
    f_j = (lam*v_j - E) f_{j-1} - a_j^2 f_{j-2}, one step at a time,
    rescaled to avoid overflow; an exact zero has sign 0 and log -inf.  The
    textbook oracle of `f_determinant` and `fundamental_matrix_via_f`."""
    signs = np.zeros(n + 1, dtype=np.int8)
    logs = np.full(n + 1, -np.inf)
    f_prev, f_cur = 0.0, 1.0  # f_{-1}, f_0
    offset = 0.0
    signs[0], logs[0] = 1, 0.0
    for j in range(1, n + 1):
        d = lam * v_vals[j] - E
        f_next = d * f_cur - a_vals[j] * a_vals[j] * f_prev
        f_prev, f_cur = f_cur, f_next
        if max(abs(f_prev), abs(f_cur)) > 1e100:
            f_prev /= 1e100
            f_cur /= 1e100
            offset += math.log(1e100)
        if f_cur != 0.0:
            signs[j] = 1 if f_cur > 0 else -1
            logs[j] = math.log(abs(f_cur)) + offset
    return signs, logs


def _via_f_oracle(m, p, E, n):
    """M_n from the entry layout of `fundamental_matrix_via_f`, with f and
    the shifted-base f' from `_f_loop`, as (unit, log scale)."""
    a_vals, v_vals = orbit_values(m, p, n)
    s, lg = _f_loop(a_vals, v_vals, m.lam, E, n)
    s2, lg2 = _f_loop(a_vals[1:], v_vals[1:], m.lam, E, n - 1)
    log_a = np.log(np.abs(a_vals))  # index j is log|a_j|
    ratio_log = log_a[1] - log_a[2]
    ratio_sign = -np.sign(a_vals[1] * a_vals[2])
    entries = [  # (sign, log) of the four entries, numerator over prod a_j
        (s[n] * np.prod(np.sign(a_vals[2:n + 2])), lg[n] - log_a[2:n + 2].sum()),
        (ratio_sign * s2[n - 1] * np.prod(np.sign(a_vals[3:n + 2])),
         ratio_log + lg2[n - 1] - log_a[3:n + 2].sum()),
        (s[n - 1] * np.prod(np.sign(a_vals[2:n + 1])), lg[n - 1] - log_a[2:n + 1].sum()),
        (ratio_sign * s2[n - 2] * np.prod(np.sign(a_vals[3:n + 1])) if n >= 2 else 0.0,
         ratio_log + lg2[n - 2] - log_a[3:n + 1].sum() if n >= 2 else -np.inf),
    ]
    signs, logs = (np.array(v, dtype=float) for v in zip(*entries))
    top = logs.max()
    vals = np.where(signs != 0, signs * np.exp(logs - top), 0.0).reshape(2, 2)
    fro = np.linalg.norm(vals)
    return vals / fro, top + math.log(fro)


def test_f_product_matches_recurrence_oracle(tame_model, theorem_model, monkeypatch):
    # the segmented product of the F_j against the step-by-step recurrence,
    # across segment lengths and with n short of, at and past a segment
    rng = np.random.default_rng(61)
    seen_signs = set()
    for seg in (1, 4, 5, 7, cocycle._SEGMENT):
        monkeypatch.setattr(cocycle, "_SEGMENT", seg)
        for m in (tame_model, theorem_model):
            for p in random_points(rng, 2):
                E = float(rng.normal())
                for n in sorted({1, seg - 1, seg, seg + 1, 3 * seg + 5} - {0}):
                    a_vals, v_vals = orbit_values(m, p, n)
                    s, lg = _f_loop(a_vals, v_vals, m.lam, E, n)
                    log_f, sign = f_determinant(m, p, E, n)
                    # f_n relative to the size of (f_n, f_{n-1})
                    top = max(lg[n], lg[n - 1])
                    want = s[n] * math.exp(lg[n] - top)
                    assert sign * math.exp(log_f - top) == pytest.approx(want, abs=1e-10)
                    if abs(want) > 1e-6:
                        assert sign == s[n]
                    seen_signs.add(sign)
                    unit, log_scale = _via_f_oracle(m, p, E, n)
                    cf = fundamental_matrix_via_f(m, p, E, n)
                    assert np.allclose(cf.m.unit, unit, rtol=0.0, atol=1e-10)
                    assert cf.m.log_scale == pytest.approx(log_scale, rel=1e-12, abs=1e-12)
                    want_det = math.log(abs(a_vals[1] / a_vals[n + 1]))
                    assert cf.log_det == pytest.approx(want_det, abs=1e-12)
    assert seen_signs == {-1, 1}


def test_f_matches_cofactor_oracle(tame_model):
    rng = np.random.default_rng(13)
    for p in random_points(rng, 8):
        E = float(rng.normal())
        for n in range(1, 9):
            log_f, sign = f_determinant(tame_model, p, E, n)
            want = tridiag_det(tame_model, p, E, n)
            got = sign * math.exp(log_f)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_f_zero_order(tame_model):
    log_f, sign = f_determinant(tame_model, TorusPoint(0.1, 0.2), 0.0, 0)
    assert sign * math.exp(log_f) == 1.0


def test_via_f_matches_product(tame_model):
    rng = np.random.default_rng(17)
    for p in random_points(rng, 8):
        E = float(rng.normal())
        n = int(rng.integers(1, 120))
        cp = fundamental_matrix(tame_model, p, E, n)
        cf = fundamental_matrix_via_f(tame_model, p, E, n)
        assert cf.log_norm == pytest.approx(cp.log_norm, rel=1e-9, abs=1e-9)
        assert cf.log_det == pytest.approx(cp.log_det, rel=1e-9, abs=1e-9)
        assert np.allclose(cf.m.unit, cp.m.unit, atol=1e-8)


def test_via_f_n1(tame_model):
    p = TorusPoint(0.77, 0.13)
    cp = fundamental_matrix(tame_model, p, 0.5, 1)
    cf = fundamental_matrix_via_f(tame_model, p, 0.5, 1)
    assert np.allclose(cf.m.unit, cp.m.unit, atol=1e-12)


# ---------------------------------------------------------------- solutions


def test_difference_solution_satisfies_recurrence(tame_model):
    m = tame_model
    p = TorusPoint(0.25, 0.65)
    E = 0.4
    sol = solve_difference_equation(m, p, E, -10, 15, (1.0, 0.5))
    a_vals, v_vals = orbit_values(m, p, 15)
    for j in range(1, 15):
        lhs = (-a_vals[j + 1] * sol.value(j + 1) - a_vals[j] * sol.value(j - 1)
               + m.lam * v_vals[j] * sol.value(j))
        assert lhs == pytest.approx(E * sol.value(j), rel=1e-9, abs=1e-9)


def test_difference_solution_initial_data(tame_model):
    sol = solve_difference_equation(tame_model, TorusPoint(0.2, 0.3), 0.1,
                                    0, 5, (2.0, -3.0))
    assert sol.value(0) == pytest.approx(2.0)
    assert sol.value(1) == pytest.approx(-3.0)


def test_wronskian_constant(tame_model):
    m = tame_model
    p = TorusPoint(0.4, 0.8)
    E = -0.2
    phi = solve_difference_equation(m, p, E, -5, 20, (1.0, 0.0))
    psi = solve_difference_equation(m, p, E, -5, 20, (0.0, 1.0))
    w0 = wronskian(m, p, phi, psi, 0)
    for n in (-4, 1, 5, 10, 18):
        assert wronskian(m, p, phi, psi, n) == pytest.approx(w0, rel=1e-8)


def test_backward_solution_matches_inverse_product(tame_model):
    # phi(-k) from the backward sweep equals applying inverse one-step maps
    m = tame_model
    p = TorusPoint(0.15, 0.85)
    E = 0.25
    sol = solve_difference_equation(m, p, E, -6, 2, (1.3, 0.7))
    vec = np.array([sol.value(1), sol.value(0)])
    for k in range(0, 6):
        vec = inverse_transfer_matrix(m, p, E, -k) @ vec
        assert vec[1] == pytest.approx(sol.value(-k - 1), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------- batched


def test_batched_matches_scalar(tame_model):
    m = tame_model
    rng = np.random.default_rng(19)
    pts = rng.random((12, 2))
    E, n = 0.35, 20
    out = batched_log_norms(m, pts[:, 0], pts[:, 1], E, n)
    for i, (x, y) in enumerate(pts):
        p = TorusPoint(float(x), float(y))
        cp = fundamental_matrix(m, p, E, n)
        ca = fundamental_matrix_a(m, p, E, n)
        cu = normalize_unimodular(cp)
        assert out["log_norm"][i] == pytest.approx(cp.log_norm, abs=1e-8)
        assert out["log_norm_a"][i] == pytest.approx(ca.log_norm, abs=1e-8)
        assert out["log_norm_u"][i] == pytest.approx(cu.log_norm, abs=1e-8)
        assert out["log_det"][i] == pytest.approx(cp.log_det, abs=1e-8)


def test_checkpoints_match_separate_sweeps(theorem_model, tame_model):
    # checkpoint 0, a repeated checkpoint, and a read-out mid-sweep must be
    # bitwise the values of a sweep that stops there
    rng = np.random.default_rng(23)
    pts = rng.random((17, 2))
    for m in (tame_model, theorem_model):
        out = batched_log_norm_checkpoints(m, pts[:, 0], pts[:, 1], 0.35,
                                           [0, 1, 4, 4, 9])
        assert sorted(out) == [0, 1, 4, 9]
        for n, got in out.items():
            want = batched_log_norms(m, pts[:, 0], pts[:, 1], 0.35, n)
            for key in ("log_norm", "log_norm_u", "log_norm_a", "log_det"):
                assert np.array_equal(got[key], want[key]), (n, key)
    assert np.array_equal(out[0]["log_norm"], np.zeros(17))


def _textbook_sweep(m, x, y, E, checkpoints):
    """The batched sweep one step at a time.  Every step moves the exact
    Q0.64 offsets by integers, Phi_{j+1} = Phi_j + Y + theta_j and
    theta_{j+1} = theta_j + W (mod 2^64), evaluates a_{j+1} and v_j through
    `along` at the signed offsets (a_j and log|a_j| carried from the step
    before) and adds each log to its running sum; the state is
    renormalized after every step j with j % r == 0, and a read-out
    normalizes a copy.  The reference the block kernel must match bitwise."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    shape = np.broadcast_shapes(x.shape, y.shape)
    x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
    y = y.reshape((1,) * (len(shape) - y.ndim) + y.shape)
    every = cocycle._renorm_every(m, E)
    a_at, v_at = m.a.along(y), m.v.along(x, y)

    def signed(q):
        return q.view(np.int64) * 2.0**-64

    Y, W = q64(y), q64(m.omega)
    phi, theta = Y.copy(), np.full((1,) * len(shape), W)  # Phi_1, theta_1
    r = math.sqrt(2.0)
    m00, m01 = np.full(shape, 1.0 / r), np.zeros(shape)
    m10, m11 = np.zeros(shape), np.full(shape, 1.0 / r)
    log_scale = np.full(shape, math.log(r))
    sum_log_a_next, log_det = np.zeros(y.shape), np.zeros(y.shape)
    a_next = a_at(signed(theta))
    log_a_next = np.log(np.abs(a_next))
    out, j = {}, 0
    for n in checkpoints:
        while j < n:
            j += 1
            a_j, log_a_j = a_next, log_a_next
            theta_next = theta + W
            a_next = a_at(signed(theta_next))
            log_a_next = np.log(np.abs(a_next))
            d = m.lam * v_at(signed(phi), signed(theta)) - E
            phi, theta = phi + Y + theta, theta_next
            t00 = d * m00 - a_j * m10
            t01 = d * m01 - a_j * m11
            m00, m01, m10, m11 = t00, t01, a_next * m00, a_next * m01
            if j % every == 0:
                fro = np.sqrt(m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11)
                inv = 1.0 / fro
                m00, m01, m10, m11 = m00 * inv, m01 * inv, m10 * inv, m11 * inv
                log_scale += np.log(fro)
            sum_log_a_next += log_a_next
            log_det += log_a_j - log_a_next
        if n == 0:
            z = np.zeros(math.prod(shape))
            out[0] = {"log_norm": z, "log_norm_u": z, "log_norm_a": z, "log_det": z}
            continue
        fro = np.sqrt(m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11)
        inv = 1.0 / fro
        u00, u01, u10, u11 = m00 * inv, m01 * inv, m10 * inv, m11 * inv
        det_u = u00 * u11 - u01 * u10
        disc = np.maximum(1.0 - 4.0 * det_u * det_u, 0.0)
        log_norm_a = (log_scale + np.log(fro)) + 0.5 * np.log(0.5 * (1.0 + np.sqrt(disc)))
        log_norm = log_norm_a - sum_log_a_next
        out[n] = {"log_norm": log_norm.ravel(),
                  "log_norm_u": (log_norm - 0.5 * log_det).ravel(),
                  "log_norm_a": log_norm_a.ravel(),
                  "log_det": np.broadcast_to(log_det, shape).flatten()}
    return out


def _y_dependent_model():
    # a and v depend on y, with zero-frequency and zero-coefficient terms
    a = TrigPoly1(((0, 1.5, 0.0), (1, 0.3, 0.1), (2, 0.0, 0.05), (3, 0.0, 0.0)))
    v = TrigPoly2(((1, 0, 1.0, 0.0, 0.0, 0.0), (1, 1, 0.3, 0.2, 0.0, 0.1),
                   (0, 2, 0.0, 0.4, 0.0, 0.0), (0, 0, 0.25, 0.0, 0.0, 0.0),
                   (2, 1, 0.0, 0.0, 0.0, 0.0)))
    return make_model(lam=3.0, a=a, v=v)


def _block_checkpoints(width):
    # read-outs at 0, 1, T, T + 1 and 3T - 1 cross block edges for every
    # block length T tried (T = 1 included)
    out = {}
    for block in (1, 2, 3, 7, cocycle._BLOCK):
        t = max(1, block // width)
        out[block] = sorted({0, 1, t, t + 1, 3 * t - 1})
    return out


def _assert_matches_textbook(m, x, y, monkeypatch, widths=(None,)):
    """The kernel at every block length against one textbook sweep; a width
    w compares the first w samples of 1-D inputs (values are per sample)."""
    sizes = {w: np.broadcast(x[:w], y[:w]).size for w in widths}
    wanted = {w: _block_checkpoints(size) for w, size in sizes.items()}
    union = sorted({n for cps in wanted.values() for ns in cps.values() for n in ns})
    want = _textbook_sweep(m, x, y, 0.35, union)
    for w, by_block in wanted.items():
        for block, cps in by_block.items():
            monkeypatch.setattr(cocycle, "_BLOCK", block)
            got = batched_log_norm_checkpoints(m, x[:w], y[:w], 0.35, cps)
            assert list(got) == cps
            for n in cps:
                for key, val in got[n].items():
                    assert val.tobytes() == want[n][key][:sizes[w]].tobytes(), \
                        (w, block, n, key)


def test_block_sweep_bitwise_textbook_narrow(theorem_model, monkeypatch):
    # widths 1, 2 and 5 share one textbook sweep over five samples
    rng = np.random.default_rng(31)
    x, y = rng.random(5), rng.random(5)
    _assert_matches_textbook(theorem_model, x, y, monkeypatch, widths=(1, 2, 5))


def test_block_sweep_bitwise_textbook_wide(theorem_model, monkeypatch):
    gx, gy = Sampler.grid(4, 6).axes()
    inputs = [Sampler.monte_carlo(40, 3).points(),   # MC points
              (gx, gy),                               # grid axes, x of shape (R, 1)
              (np.mod(gx + 0.3 * gy, 1.0), gy)]       # x of shape (R, C)
    for m in (theorem_model, _y_dependent_model()):
        for x, y in inputs:
            _assert_matches_textbook(m, x, y, monkeypatch)


def _assert_matches_oracle(m, x, y, E, n):
    """The kernel's four outputs at n against `_product_loop` at every
    point: log-norms to 1e-12 relative, log det to 1e-12."""
    got = batched_log_norm_checkpoints(m, x, y, E, [n])[n]
    xs, ys = (v.ravel() for v in np.broadcast_arrays(x, y))
    for key in got:
        assert np.all(np.isfinite(got[key])), key
    for i, (px, py) in enumerate(zip(xs, ys)):
        p = TorusPoint(float(px), float(py))
        cp = _product_loop(m, p, E, [n])[n]
        ca = _product_loop(m, p, E, [n], divide=False)[n]
        assert _rel(got["log_norm"][i], cp.log_norm) < 1e-12, (i, "log_norm")
        assert _rel(got["log_norm_a"][i], ca.log_norm) < 1e-12, (i, "log_norm_a")
        assert _rel(got["log_norm_u"][i], normalize_unimodular(cp).log_norm) < 1e-12, i
        assert abs(got["log_det"][i] - cp.log_det) < 1e-12, (i, "log_det")


def test_kernel_matches_exact_oracle_at_1024(theorem_model):
    # exact offsets: the float closed form was 1.5e-11 off here
    gx, gy = Sampler.grid(8).axes()
    mc = Sampler.monte_carlo(12, 5).points()
    for m in (theorem_model, _y_dependent_model()):
        _assert_matches_oracle(m, gx, gy, 0.3, 1024)
        _assert_matches_oracle(m, *mc, 0.3, 1024)


def test_kernel_range_at_extreme_lambda_and_energy():
    # the renormalization schedule keeps every output finite and exact at
    # the edges of the energy window; the constant potential grows by the
    # full bound G every step, so a schedule one step longer overflows
    x, y = Sampler.monte_carlo(4, 9).points()
    models = (make_model(lam=1e12), make_model(lam=1e-2),
              constant_model(a0=1.0, v0=1.0, lam=1e31))
    for m in models:
        for E in (0.999 * m.energy_bound, -0.999 * m.energy_bound):
            _assert_matches_oracle(m, x, y, E, 1000)


def test_checkpoints_must_ascend(tame_model):
    xs = np.array([0.1, 0.2])
    for bad in ([4, 2], [-1, 3]):
        with pytest.raises(ValueError):
            batched_log_norm_checkpoints(tame_model, xs, xs, 0.0, bad)


def test_batched_huge_lambda_finite(theorem_model):
    xs = np.linspace(0.05, 0.95, 9)
    out = batched_log_norms(theorem_model, xs, xs[::-1], 0.0, 300)
    assert np.all(np.isfinite(out["log_norm"]))
    assert np.all(out["log_norm"] > 300 * 10.0)


def test_constant_zero_potential_oracle():
    # a=1, v=0, E=1, lam=0: A = [[-1, -1], [1, 0]], rotation-like, det 1
    m = constant_model(a0=1.0, v0=0.0, lam=0.0)
    cp = fundamental_matrix(m, TorusPoint(0.3, 0.4), 1.0, 6)
    dense = np.linalg.matrix_power(np.array([[-1.0, -1.0], [1.0, 0.0]]), 6)
    assert np.allclose(cp.m.to_matrix(), dense, atol=1e-9)
    assert cp.log_det == pytest.approx(0.0, abs=1e-12)
    assert cp.log_norm == pytest.approx(math.log(np.linalg.norm(dense, 2)), abs=1e-9)
