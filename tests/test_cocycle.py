import dataclasses
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewshift import cocycle, torus
from skewshift.cocycle import (
    CocycleProduct,
    batched_log_norm_checkpoints,
    batched_log_norms,
    f_determinants,
    fundamental_matrix,
    fundamental_matrix_a,
    fundamental_matrix_via_f,
    normalize_unimodular,
    orbit_values,
)
from skewshift.lyapunov import Sampler
from skewshift.model import (
    ModelAdmissionError,
    _quarter,
    TrigPoly1,
    TrigPoly2,
    default_theorem_model,
    model_from_dict,
    model_to_dict,
)
from skewshift.avalanche import avalanche_check, cocycle_blocks
from skewshift.torus import TorusPoint, mod1, q64, skew_shift_iterate

from conftest import (constant_model, dense_product, make_model, random_points,
                      transfer_matrix, tridiag_det, y_dependent_model)


# ---------------------------------------------------------------- log-scaled


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(0)
    mats = rng.normal(size=(50, 2, 2))
    norms = np.exp(CocycleProduct.from_matrices(mats).log_norm)
    for mat, norm in zip(mats, norms):
        assert norm == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12)


def _svd_log_norm(u):
    """log of the largest singular value of the float matrix u, by a
    50-digit SVD."""
    with mpmath.workdps(50):
        return float(mpmath.log(max(mpmath.svd_r(mpmath.matrix(u.tolist()), compute_uv=False))))


def test_log_norm_near_conformal():
    # sigma_1 ~ sigma_2: 1 - 4 det(u)^2 in the plain form kept half the
    # digits (5.6e-17 read where log||M_1||_2 = 3.85e-9)
    m = make_model(lam=1.0, a=TrigPoly1.constant(1.3))
    p = TorusPoint(0.3, 0.2)
    v_1 = float(orbit_values(m, p, 1)[1][1])
    for gap in (-1e-12, -1e-8):
        E = m.lam * v_1 - gap
        want = _svd_log_norm(np.array([[gap / 1.3, -1.0], [1.0, 0.0]]))
        got = (fundamental_matrix(m, p, E, 1).log_norm,
               batched_log_norm_checkpoints(m, [p.x], [p.y], E, [1])[1]["log_norm"][0])
        for val in got:
            assert abs(val - want) <= 1e-15, (gap, val, want)
    # random units R(s) diag(1 + eps, +-1) R(t): near-rotations (det(u) ~
    # 1/2) and near-reflections (det(u) ~ -1/2)
    rng = np.random.default_rng(71)
    s, t = rng.random((2, 400)) * 2.0 * math.pi
    eps = 10.0 ** rng.uniform(-14, -4, 400)

    def rot(a):
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]).transpose(2, 0, 1)
    sv = np.zeros((400, 2, 2))
    sv[:, 0, 0], sv[:, 1, 1] = 1.0 + eps, np.resize([1.0, -1.0], 400)
    units = CocycleProduct.from_matrices(rot(s) @ sv @ rot(t)).unit
    got = cocycle._log_unit_norm(*units.reshape(400, 4).T)
    for u, val in zip(units, got):
        assert abs(val - _svd_log_norm(u)) <= 1e-15


def test_log_scaled_roundtrip():
    mat = np.array([[3.0, -1.0], [1.0, 0.0]])
    ls = CocycleProduct.from_matrices(mat)
    assert np.allclose(math.exp(ls.log_scale) * ls.unit, mat)
    assert ls.log_norm == pytest.approx(math.log(np.linalg.norm(mat, 2)))


def test_log_scaled_product_avoids_overflow():
    # 400 factors of norm e^10 each: plain floats would overflow at ~e^709
    d = np.diag([math.e**10, math.e**-10])
    f = CocycleProduct.from_matrices(d)
    stack = CocycleProduct.from_matrices(np.tile(d, (400, 1, 1)))
    assert avalanche_check(stack, log_mu=1.0).log_norm_product == pytest.approx(4000.0, rel=1e-12)
    # the unit determinant cancels entirely at this conditioning; the
    # representation reports -inf rather than a garbage value
    acc = CocycleProduct.from_matrices(np.linalg.matrix_power(f.unit, 400), 400 * f.log_scale)
    assert acc.log_det == -math.inf


def test_log_scaled_group_law():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    fa, fb = CocycleProduct.from_matrices(a), CocycleProduct.from_matrices(b)
    prod = CocycleProduct.from_matrices(fa.unit @ fb.unit, fa.log_scale + fb.log_scale)
    assert np.allclose(math.exp(prod.log_scale) * prod.unit, a @ b, rtol=1e-12)


def test_from_matrices_beyond_squared_range():
    # entries past ~1.3e154 overflow a plain sum of squares
    c = CocycleProduct.from_matrices(np.diag([1e160, 1e-160]))
    assert c.log_norm == pytest.approx(math.log(1e160), rel=0.0, abs=1e-12)
    # the unit entry 1e-320 is subnormal; det m = 1 comes from the entries
    assert abs(c.log_det) <= 1e-9
    for bad in (np.zeros((2, 2)), np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0])):
        with pytest.raises(ValueError, match="nonzero with finite entries"):
            CocycleProduct.from_matrices(bad)


def test_from_matrices_frobenius_is_bitwise_the_sum_of_squares():
    # dividing by a power of two before squaring changes no bit in range
    rng = np.random.default_rng(11)
    mats = rng.normal(size=(200, 2, 2)) * 10.0 ** rng.integers(-150, 150, size=(200, 1, 1))
    c = CocycleProduct.from_matrices(mats, 0.5)
    for i, mat in enumerate(mats):
        fro = math.sqrt(float(np.sum(mat * mat)))
        assert c[i].unit.tobytes() == (mat / fro).tobytes()
        assert c[i].log_scale == 0.5 + math.log(fro)


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
    # log 0; products start at n = 1
    zero = dataclasses.replace(tame_model, a=TrigPoly1.constant(0.0))
    p = TorusPoint(0.3, 0.2)
    with pytest.raises(ValueError, match="n must be >= 1"):
        fundamental_matrix(zero, p, 0.0, 0)
    # a = 1.2 + 0.5 cos(2 pi y) from y_1 = 0.1: a_1, a_2 >= 1 > a_3
    dip = dataclasses.replace(tame_model, a=TrigPoly1(((0, 1.2, 0.0), (1, 0.5, 0.0))))
    q = TorusPoint(0.3, mod1(0.1 - dip.omega))
    for f in (fundamental_matrix, fundamental_matrix_a, _f_at):
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
            out[j] = CocycleProduct(unit, log_scale, log_det, j)
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
        assert np.allclose(c.unit, want.unit, rtol=0.0, atol=1e-9)
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
    assert np.allclose(cf.unit, want.unit, rtol=0.0, atol=1e-9)


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
                assert np.allclose(got.unit, want.unit, rtol=0.0, atol=1e-12)


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
                    assert np.allclose(got.unit, want.unit, rtol=0.0, atol=1e-12)


def _broadcast_fold(U, S):
    # the fold as (K, 2, 2, c) broadcast products, the bitwise oracle of the
    # named-row form (same products, sums and divisions per element)
    U = U.reshape(len(U), 2, 2, -1)
    while len(U) > 1:
        h = len(U) // 2
        left, right = U[1:2 * h:2], U[0:2 * h:2]
        p = left[:, :, :1] * right[:, :1] + left[:, :, 1:] * right[:, 1:]
        sq = p * p
        fro = np.sqrt(sq[:, 0, 0] + sq[:, 0, 1] + sq[:, 1, 0] + sq[:, 1, 1])
        p /= fro[:, None, None]
        s = S[0:2 * h:2] + S[1:2 * h:2] + np.log(fro)
        U, S = np.concatenate((p, U[2 * h:])), np.concatenate((s, S[2 * h:]))
    return U[0].reshape(4, -1), S[0]


@pytest.mark.parametrize("K, c", [(1, 1), (2, 1), (3, 1), (157, 1), (20000, 1),
                                  (2344, 7), (8, 2048), (4, 64)])
def test_tree_fold_bitwise_broadcast_oracle(K, c):
    # one-column stacks (via_f, one-point products, avalanche) and wide ones;
    # the rows may come in as a strided view, as the avalanche check passes them
    rng = np.random.default_rng(7 * K + c)
    U = rng.normal(size=(K, 4, c))
    U /= np.sqrt(np.sum(U * U, axis=1))[:, None]
    S = rng.normal(size=(K, c))
    want_unit, want_scale = _broadcast_fold(U, S)
    for rows in (np.ascontiguousarray(U.transpose(1, 0, 2)), U.transpose(1, 0, 2)):
        unit, log_scale = cocycle._tree_fold(rows, S)
        assert unit.shape == (4, c) and log_scale.shape == (c,)
        assert np.array_equal(unit, want_unit) and np.array_equal(log_scale, want_scale)


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
                assert np.allclose(got.unit, want / np.linalg.norm(want), rtol=0.0, atol=1e-10)
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


def test_orbit_product_stacks_are_the_one_point_products(theorem_model, tame_model):
    # point i of each stack is bitwise the one-point product there
    rng = np.random.default_rng(61)
    x, y = rng.random(4), rng.random(4)
    for m in (theorem_model, tame_model):
        for n in (1, 50, 129, 300):
            stacks = cocycle.orbit_product(m, x, y, 0.2, n)
            for k, f in ((0, fundamental_matrix), (1, fundamental_matrix_a)):
                for i in range(4):
                    got = stacks[k][i]
                    want = f(m, TorusPoint(float(x[i]), float(y[i])), 0.2, n)
                    assert got.unit.tobytes() == want.unit.tobytes()
                    assert (got.log_scale, got.log_det, got.n) == (want.log_scale, want.log_det, n)


def test_cocycle_blocks_lie_on_the_orbit(theorem_model):
    # block j is bitwise the product at T^{jn}(base) from the rational
    # closed form, and the blocks multiply to the full product
    p, n, count = TorusPoint(0.31, 0.17), 300, 5
    blocks = cocycle_blocks(theorem_model, p, 0.0, n, count)
    for j, b in enumerate(blocks):
        q = skew_shift_iterate(p, j * n, theorem_model.omega)
        want = normalize_unimodular(fundamental_matrix(theorem_model, q, 0.0, n))
        assert b.unit.tobytes() == want.unit.tobytes()
        assert b.log_scale == want.log_scale
    full = avalanche_check(blocks, log_mu=1.0).log_norm_product
    whole = normalize_unimodular(fundamental_matrix(theorem_model, p, 0.0, n * count))
    assert full == pytest.approx(whole.log_norm, rel=1e-12)


# ---------------------------------------------------------------- f recurrence


def _f_at(m, p, E, n):
    """(log|f_n|, sign) at one base point, from `f_determinants`."""
    log_f, sign = f_determinants(m, [p.x], [p.y], E, n)
    return float(log_f[0]), int(sign[0])


def _f_loop(a_vals, v_vals, lam, E, n):
    """Signed-log values of f_0..f_n by the three-term recurrence
    f_j = (lam*v_j - E) f_{j-1} - a_j^2 f_{j-2}, one step at a time,
    rescaled to avoid overflow; an exact zero has sign 0 and log -inf.  The
    textbook oracle of `f_determinants` and `fundamental_matrix_via_f`."""
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
    # f_n from the segmented kernel product and M_n from the folded F_j
    # against the step-by-step recurrence, across segment lengths and with n
    # short of, at and past a segment
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
                    log_f, sign = _f_at(m, p, E, n)
                    # f_n relative to the size of (f_n, f_{n-1})
                    top = max(lg[n], lg[n - 1])
                    want = s[n] * math.exp(lg[n] - top)
                    assert sign * math.exp(log_f - top) == pytest.approx(want, abs=1e-10)
                    if abs(want) > 1e-6:
                        assert sign == s[n]
                    seen_signs.add(sign)
                    unit, log_scale = _via_f_oracle(m, p, E, n)
                    cf = fundamental_matrix_via_f(m, p, E, n)
                    assert np.allclose(cf.unit, unit, rtol=0.0, atol=1e-10)
                    assert cf.log_scale == pytest.approx(log_scale, rel=1e-12, abs=1e-12)
                    want_det = math.log(abs(a_vals[1] / a_vals[n + 1]))
                    assert cf.log_det == pytest.approx(want_det, abs=1e-12)
    assert seen_signs == {-1, 1}


def test_f_matches_cofactor_oracle(tame_model):
    rng = np.random.default_rng(13)
    for p in random_points(rng, 8):
        E = float(rng.normal())
        for n in range(1, 9):
            log_f, sign = _f_at(tame_model, p, E, n)
            want = tridiag_det(tame_model, p, E, n)
            got = sign * math.exp(log_f)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_f_zero_order(tame_model):
    # products start at n = 1
    with pytest.raises(ValueError, match="n must be >= 1"):
        f_determinants(tame_model, [0.1], [0.2], 0.0, 0)


def test_via_f_matches_product(tame_model):
    # n drawn below one kernel segment, then n across segment edges
    rng = np.random.default_rng(17)
    cases = [(p, float(rng.normal()), int(rng.integers(1, 120))) for p in random_points(rng, 8)]
    cases += [(random_points(rng, 1)[0], float(rng.normal()), n)
              for n in (127, 128, 129, 256, 257, 1000)]
    for p, E, n in cases:
        cp = fundamental_matrix(tame_model, p, E, n)
        cf = fundamental_matrix_via_f(tame_model, p, E, n)
        assert cf.log_norm == pytest.approx(cp.log_norm, rel=1e-9, abs=1e-9)
        assert cf.log_det == pytest.approx(cp.log_det, rel=1e-9, abs=1e-9)
        assert np.allclose(cf.unit, cp.unit, atol=1e-8)


def test_via_f_is_apart_from_the_kernel(tame_model, monkeypatch):
    # the cross-check never runs the sweep kernel it checks
    def refuse(*args, **kwargs):
        raise AssertionError("fundamental_matrix_via_f called the kernel")
    want = fundamental_matrix_via_f(tame_model, TorusPoint(0.3, 0.2), 0.1, 300)
    monkeypatch.setattr(cocycle, "_sweep", refuse)
    got = fundamental_matrix_via_f(tame_model, TorusPoint(0.3, 0.2), 0.1, 300)
    assert got.unit.tobytes() == want.unit.tobytes()
    assert (got.log_scale, got.log_det) == (want.log_scale, want.log_det)
    with pytest.raises(AssertionError):
        fundamental_matrix(tame_model, TorusPoint(0.3, 0.2), 0.1, 300)


def test_via_f_n1(tame_model):
    p = TorusPoint(0.77, 0.13)
    cp = fundamental_matrix(tame_model, p, 0.5, 1)
    cf = fundamental_matrix_via_f(tame_model, p, 0.5, 1)
    assert np.allclose(cf.unit, cp.unit, atol=1e-12)


# ---------------------------------------------------------------- solutions


def test_fundamental_matrix_steps_a_solution(tame_model):
    # a solution of -a_{k+1} phi(k+1) - a_k phi(k-1) + lam v_k phi(k) =
    # E phi(k), stepped forward from (phi(0), phi(1)): M_n maps (phi(1),
    # phi(0)) to (phi(n+1), phi(n))
    m = tame_model
    p = TorusPoint(0.25, 0.65)
    E, N = 0.4, 15
    a_vals, v_vals = orbit_values(m, p, N)
    phi = [0.5, 1.0]
    for k in range(1, N + 1):
        phi.append(((m.lam * v_vals[k] - E) * phi[k] - a_vals[k] * phi[k - 1]) / a_vals[k + 1])
    for n in (1, 2, 7, N):
        c = fundamental_matrix(m, p, E, n)
        got = math.exp(c.log_scale) * c.unit @ np.array([phi[1], phi[0]])
        assert got == pytest.approx(np.array([phi[n + 1], phi[n]]), rel=1e-9, abs=1e-9)


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


def test_batched_log_norms_is_the_product_view_at_every_n(tame_model):
    # one path on either side of _SEGMENT: each point's log-norm is bitwise
    # fundamental_matrix's, and the dip model is refused at n = 100 as at
    # n = 129 (n = 100 returned 1292.997 on a kernel branch of its own);
    # both refuse n = 0
    rng = np.random.default_rng(61)
    x, y = rng.random(4), rng.random(4)
    for f in (lambda n: batched_log_norms(tame_model, x, y, -0.4, n),
              lambda n: fundamental_matrix(tame_model, TorusPoint(0.3, 0.2), -0.4, n)):
        with pytest.raises(ValueError, match="n must be >= 1"):
            f(0)
    for n in (1, 20, 128, 129):
        out = batched_log_norms(tame_model, x, y, -0.4, n)
        for i in range(4):
            c = fundamental_matrix(tame_model, TorusPoint(float(x[i]), float(y[i])), -0.4, n)
            assert out["log_norm"][i] == c.log_norm, (n, i)
            assert out["log_det"][i] == c.log_det, (n, i)
    dip = dataclasses.replace(tame_model, a=TrigPoly1(((0, 1.099, 0.0), (1, 0.1, 0.0))))
    for n in (100, 129):
        with pytest.raises(ModelAdmissionError, match="step 27$"):
            fundamental_matrix(dip, TorusPoint(0.3, 0.2), 0.0, n)
        with pytest.raises(ModelAdmissionError, match="step 27$"):
            batched_log_norms(dip, np.array([0.3]), np.array([0.2]), 0.0, n)


def test_checkpoints_match_separate_sweeps(theorem_model, tame_model):
    # a repeated checkpoint and a read-out mid-sweep must be bitwise the
    # values of a sweep that stops there; checkpoint 0 is refused
    rng = np.random.default_rng(23)
    pts = rng.random((17, 2))
    for m in (tame_model, theorem_model):
        with pytest.raises(ValueError, match="positive and ascending"):
            batched_log_norm_checkpoints(m, pts[:, 0], pts[:, 1], 0.35, [0, 1])
        out = batched_log_norm_checkpoints(m, pts[:, 0], pts[:, 1], 0.35, [1, 4, 4, 9])
        assert sorted(out) == [1, 4, 9]
        for n, got in out.items():
            want = batched_log_norm_checkpoints(m, pts[:, 0], pts[:, 1], 0.35, [n])[n]
            for key in ("log_norm", "log_norm_u", "log_norm_a", "log_det"):
                assert np.array_equal(got[key], want[key]), (n, key)


def _textbook_sweep(m, x, y, E, checkpoints):
    """The batched sweep one step at a time, in three-term form.  Every step
    moves the exact Q0.64 offsets by integers, Phi_{j+1} = Phi_j + Y +
    theta_j and theta_{j+1} = theta_j + W (mod 2^64).  For each x-frequency
    k of v, (cos, sin) of 2 pi k Phi_j is taken from k Phi_j mod 2^64 through
    `_quarter` at steps j with (j - 1) % _ANCHOR == 0, and is step j - 1's
    turned by F_{j-1} = e^{2 pi i k Y} e^{2 pi i k theta_{j-1}} otherwise (two
    complex multiplies in real arithmetic).  a_{j+1} and lam*v_j - E come
    through `along` at the signed offsets (a_j carried from the step before),
    and |a_{j+1}| multiplies into a running product whose log joins the sum
    after every step j with j % _PRODUCT == 0.  The top rows
    t_j = (lam*v_j - E) t_{j-1} - a_j^2 t_{j-2} of P_j = [t_j; a_{j+1} t_{j-1}]
    start at t_0 = (1, 0) / sqrt 2 and t_{-1} = (0, 1 / sqrt 2) / a_1.
    (t_j, t_{j-1}) is divided by its Frobenius norm after every step j with
    j % r == 0, and a read-out normalizes a copy of [t_n; a_{n+1} t_{n-1}],
    with log det = log|a_1| - log|a_{n+1}|.  The reference the block kernel
    must match bitwise."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    shape = np.broadcast_shapes(x.shape, y.shape)
    x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
    y = y.reshape((1,) * (len(shape) - y.ndim) + y.shape)
    every = cocycle._renorm_every(m, E)
    a_at, d_at = m.a.along(y), m.v.along(x, y, m.lam, -E)

    def signed(q):
        return q.view(np.int64) * 2.0**-64

    def trig(q):
        ang = 2.0 * math.pi * signed(q)
        return np.cos(ang), np.sin(ang)

    Y, W = q64(y), q64(m.omega)
    ks = {k: np.uint64(k % 2**64) for k in m.v.x_frequencies}
    tables = {k: trig(q * Y) for k, q in ks.items()}
    turns = {}
    phi, theta = Y.copy(), np.full((1,) * len(shape), W)  # Phi_1, theta_1
    a_next = a_at(signed(theta))
    log_a_1 = np.log(np.abs(a_next))
    r = math.sqrt(2.0)
    t0, t1 = np.full(shape, 1.0 / r), np.zeros(shape)
    s0, s1 = np.zeros(shape) / a_next, np.full(shape, 1.0 / r) / a_next
    log_scale = np.full(shape, math.log(r))
    sum_log_a_next, product = np.zeros(y.shape), np.ones(y.shape)
    out, j = {}, 0
    for n in checkpoints:
        while j < n:
            j += 1
            for k, q in ks.items():
                if (j - 1) % cocycle._ANCHOR == 0:
                    turns[k] = _quarter(2.0 * math.pi, signed(q * phi))
                else:
                    (tc, ts), (ec, es), (rc, rs) = tables[k], trig(q * (theta - W)), turns[k]
                    fc, fs = tc * ec - ts * es, ts * ec + tc * es
                    turns[k] = rc * fc - rs * fs, rs * fc + rc * fs
            a_j = a_next
            theta_next = theta + W
            a_next = a_at(signed(theta_next))
            d = d_at.offsets(None, signed(theta), turns)(..., np.empty(shape))
            phi, theta = phi + Y + theta, theta_next
            a_sq = a_j * a_j
            t0, t1, s0, s1 = d * t0 - a_sq * s0, d * t1 - a_sq * s1, t0, t1
            if j % every == 0:
                fro = np.sqrt(t0 * t0 + t1 * t1 + s0 * s0 + s1 * s1)
                inv = 1.0 / fro
                t0, t1, s0, s1 = t0 * inv, t1 * inv, s0 * inv, s1 * inv
                log_scale += np.log(fro)
            product = product * np.abs(a_next)
            if j % cocycle._PRODUCT == 0:
                sum_log_a_next, product = sum_log_a_next + np.log(product), np.ones(y.shape)
        b0, b1 = a_next * s0, a_next * s1
        fro = np.sqrt(t0 * t0 + t1 * t1 + b0 * b0 + b1 * b1)
        inv = 1.0 / fro
        u00, u01, u10, u11 = t0 * inv, t1 * inv, b0 * inv, b1 * inv
        disc = ((u00 - u11) ** 2 + (u01 + u10) ** 2) * ((u00 + u11) ** 2 + (u01 - u10) ** 2)
        log_norm_a = (log_scale + np.log(fro)) + 0.5 * np.log(0.5 * (1.0 + np.sqrt(disc)))
        log_norm = log_norm_a - (sum_log_a_next + np.log(product))
        log_det = log_a_1 - np.log(np.abs(a_next))
        out[n] = {"log_norm": log_norm.ravel(),
                  "log_norm_u": (log_norm - 0.5 * log_det).ravel(),
                  "log_norm_a": log_norm_a.ravel(),
                  "log_det": np.broadcast_to(log_det, shape).flatten()}
    return out


def test_staged_along_is_the_one_shot_call(theorem_model):
    # the offset stage, then the row stage into a reused buffer over any split
    # of the steps, is bitwise the one-shot evaluator at the kernel's shapes
    rng = np.random.default_rng(43)
    x, y = rng.random((6, 1)), rng.random((1, 5))
    sx, sy = rng.random((9, 1, 5)) - 0.5, rng.random((9, 1, 1)) - 0.5
    for m in (theorem_model, y_dependent_model()):
        at = m.v.along(x, y)
        want = at(sx, sy)
        for cuts in ([0, 9], [0, 1, 9], [0, 4, 5, 9], list(range(10))):
            rows, out = at.offsets(sx, sy), np.full((9, 6, 5), np.nan)
            buf = np.full((max(np.diff(cuts)), 6, 5), np.nan)
            for i0, i1 in zip(cuts, cuts[1:]):
                out[i0:i1] = rows(slice(i0, i1), buf[:i1 - i0])
            assert out.tobytes() == want.tobytes(), cuts


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.floats(-3.0, 12.0), st.floats(-1.0, 1.0),
       st.lists(st.integers(1, 8), max_size=4), st.integers(0, 2**32 - 1))
def test_folded_row_stage_is_lam_v_minus_E(y_dependent, log_lam, e_frac, cuts, seed):
    # along(x, y, lam, -E) over any split of the steps is lam*v - E at the
    # moved points within a few ulp of lam * sum|coef| + |E|; bases on a
    # 2^-20 grid and offsets on a 2^-32 grid, so that x + sx is exact
    v = (y_dependent_model() if y_dependent else default_theorem_model()).v
    lam, rng = 10.0**log_lam, np.random.default_rng(seed)
    coef = sum(abs(c) for term in v.terms for c in term[2:])
    E = e_frac * (lam * coef + 3.0)
    x, y = rng.integers(0, 2**20, (6, 1)) * 2.0**-20, rng.integers(0, 2**20, (1, 5)) * 2.0**-20
    sx = rng.integers(-2**31, 2**31, (9, 1, 5)) * 2.0**-32
    sy = rng.integers(-2**31, 2**31, (9, 1, 1)) * 2.0**-32
    at = v.along(x, y, lam, -E)
    rows, got = at.offsets(sx, sy), np.full((9, 6, 5), np.nan)
    bounds = [0, *sorted(set(cuts)), 9]
    for i0, i1 in zip(bounds, bounds[1:]):
        rows(slice(i0, i1), got[i0:i1])
    assert got.tobytes() == at(sx, sy).tobytes()
    tol = 16 * np.finfo(float).eps * (lam * coef + abs(E))
    assert np.all(np.abs(got - (lam * v(x + sx, y + sy) - E)) <= tol)


def _block_checkpoints(width, y_width):
    # read-outs at 1, T, T + 1 and 3T - 1 cross block edges for every
    # block length T tried (T = 1 included), of the x-blocks (T = block //
    # samples) and of the y-blocks (T = block // y.size); those at the
    # anchor and product intervals and one step either side cross their edges
    edges = {n + e for n in (cocycle._ANCHOR, cocycle._PRODUCT) for e in (-1, 0, 1)}
    out = {}
    for block in (1, 2, 3, 7, cocycle._BLOCK):
        ts = {max(1, block // width), max(1, block // y_width)}
        out[block] = sorted({1} | edges | {n for t in ts for n in (t, t + 1, 3 * t - 1)})
    return out


def _assert_matches_textbook(m, x, y, monkeypatch, widths=(None,)):
    """The kernel at every block length against one textbook sweep; a width
    w compares the first w samples of 1-D inputs (values are per sample)."""
    sizes = {w: np.broadcast(x[:w], y[:w]).size for w in widths}
    wanted = {w: _block_checkpoints(size, y[:w].size) for w, size in sizes.items()}
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
    for m in (theorem_model, y_dependent_model()):
        for x, y in inputs:
            _assert_matches_textbook(m, x, y, monkeypatch)


def test_sweep_does_y_work_once_per_y_block(theorem_model, monkeypatch):
    # a 64 x 256 grid chunk: y-blocks of 16384 // 256 = 64 steps, cut at the
    # checkpoints, each placed by one call of the orbit offsets
    calls = []

    def counting(*args):
        calls.append(args)
        return torus.orbit_offsets(*args)
    monkeypatch.setattr(cocycle, "orbit_offsets", counting)
    gx, gy = Sampler.grid(64, 256).axes()
    cps = [8, 16, 32, 64, 128]
    batched_log_norm_checkpoints(theorem_model, gx, gy, 0.3, cps)
    assert len(calls) <= -(-128 // 64) + len(cps)


def _peak_sweep_bytes(m, x, y, n):
    tracemalloc.start()
    try:
        for _ in cocycle._sweep(m, x, y, 0.0, [n]):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_renormalizations():
    # r = 1 renormalizes every step; its logs go into log_scale in place, so
    # the peak is that of r = 21 (lambda = 1e6) within one full-width row,
    # though a 16 x 16 grid runs x-blocks of 64 steps in y-blocks of 1024
    x, y = Sampler.grid(16, 16).axes()
    every_step = constant_model(a0=1.0, v0=1.0, lam=1e100)
    rarely = constant_model(a0=1.0, v0=1.0, lam=1e6)
    assert cocycle._renorm_every(every_step, 0.0) == 1
    assert cocycle._renorm_every(rarely, 0.0) > 1
    row = 8 * x.size * y.size
    assert _peak_sweep_bytes(every_step, x, y, 512) <= _peak_sweep_bytes(rarely, x, y, 512) + row


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
    # exact offsets: the float closed form was 1.5e-11 off here.  The
    # three-term kernel sees a only through a_j^2 and a_{n+1}, so one model
    # has a negative, y-dependent a
    gx, gy = Sampler.grid(8).axes()
    mc = Sampler.monte_carlo(12, 5).points()
    negative_a = make_model(lam=1e3, a=TrigPoly1(((0, -1.5, 0.0), (1, -0.3, 0.0))),
                            v=y_dependent_model().v)
    for m in (theorem_model, y_dependent_model(), negative_a):
        _assert_matches_oracle(m, gx, gy, 0.3, 1024)
        _assert_matches_oracle(m, *mc, 0.3, 1024)


def test_offset_turns_track_the_exact_offsets():
    # the rotated (cos, sin) of 2 pi k Phi_j, handed over in blocks of 1 to 5
    # steps as the kernel hands them, against np.cos and np.sin of the exact
    # signed offsets k Phi_j mod 1 over four anchor intervals: the drift stays
    # within about an ulp per step since the last anchor, whatever k is
    rng = np.random.default_rng(67)
    y = rng.random((1, 50))
    Y, W = q64(y), q64(default_theorem_model().omega)
    ks = (1, 7, 31, -31)
    turns, A = cocycle._OffsetTurns(ks, Y, 5), cocycle._ANCHOR
    origin, j0 = np.zeros((1, 1), dtype=np.uint64), 1
    while j0 <= 4 * A:
        j1 = min(j0 + int(rng.integers(1, 6)), 4 * A + 1)
        steps = np.arange(j0 - 1, j1).reshape(-1, 1, 1)
        got = turns(steps, *torus.orbit_offsets(origin, W, steps))
        phi, _ = torus.orbit_offsets(Y, W, steps[1:])
        for k in ks:
            ang = 2.0 * math.pi * (np.uint64(k % 2**64) * phi).view(np.int64) * 2.0**-64
            for want, val in zip((np.cos(ang), np.sin(ang)), got[k]):
                assert np.all(np.abs(val - want) <= 1e-15 * (1 + A / 2)), (k, j0)
        j0 = j1


def test_kernel_matches_exact_oracle_with_a_high_harmonic():
    # a k1 = 31 harmonic turns fastest under the rotation; n = 1024 spans 128
    # anchor intervals at _ANCHOR = 8
    v = TrigPoly2(((1, 0, 1.0, 0.0, 0.0, 0.0), (31, 1, 0.2, 0.0, 0.1, 0.05)))
    m = make_model(lam=1e3, v=v, a=TrigPoly1(((0, 1.5, 0.0), (1, 0.3, 0.1))))
    assert m.v.x_frequencies == (1, 31)
    gx, gy = Sampler.grid(6).axes()
    _assert_matches_oracle(m, gx, gy, 0.3, 1024)
    _assert_matches_oracle(m, *Sampler.monte_carlo(8, 11).points(), 0.3, 1024)


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
    assert np.allclose(math.exp(cp.log_scale) * cp.unit, dense, atol=1e-9)
    assert cp.log_det == pytest.approx(0.0, abs=1e-12)
    assert cp.log_norm == pytest.approx(math.log(np.linalg.norm(dense, 2)), abs=1e-9)
