import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewshift.torus import (
    GOLDEN_MEAN,
    Frequency,
    TorusPoint,
    _iterate_signed,
    circle_dist,
    diophantine_check,
    exact_orbit_phases,
    mod1,
    mod1_array,
    skew_shift,
    skew_shift_iterate,
)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False)


def test_mod1_basics():
    assert mod1(0.0) == 0.0
    assert mod1(1.0) == 0.0
    assert mod1(-0.25) == 0.75
    assert mod1(2.75) == pytest.approx(0.75)


def test_mod1_array_is_bitwise_np_mod():
    edges = [0.0, 1.0, 1e-20, 1.0 - 2.0**-53, 2.0**52 + 0.5, 2.0**60, 0.75,
             GOLDEN_MEAN, 12345.678]
    z = np.array(edges + [-e for e in edges])
    got, want = mod1_array(z), np.mod(z, 1.0)
    assert got.tobytes() == want.tobytes()
    assert got[len(edges)] == 0.0 and not np.signbit(got[len(edges)])  # -0.0
    assert [mod1(float(t)) for t in z] == list(want)


# floats that are multiples of 2^-64: every float in [2^-11, 1), 0, and
# multiples of 2^-53 (Monte Carlo points) and of 2^-64 below 2^-11
q64 = st.one_of(
    st.floats(min_value=2.0**-11, max_value=1.0, exclude_max=True),
    st.integers(0, 2**53 - 1).map(lambda k: k / 2.0**53),
    st.integers(0, 2**53 - 1).map(lambda k: k / 2.0**64))


@settings(max_examples=300, deadline=None)
@given(q64, q64, q64, st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=5))
def test_exact_orbit_phases_match_fraction_oracle(x, y, omega, steps):
    # inputs exact in Q0.64: bitwise the rational closed form rounded to
    # floats, for a scalar step and for a column of steps, either sign
    column = exact_orbit_phases(np.array([x]), np.array([y]), np.array(steps)[:, None], omega)
    for i, s in enumerate(steps):
        want = (skew_shift_iterate if s >= 0 else _iterate_signed)(TorusPoint(x, y), s, omega)
        for got in (exact_orbit_phases(x, y, s, omega), (column[0][i, 0], column[1][i, 0])):
            assert (float(got[0]), float(got[1])) == (want.x, want.y)
            assert not np.signbit(got[0]) and not np.signbit(got[1])


def test_exact_orbit_phases_rounding_edges():
    # a phase within 2^-54 of 1 rounds to 1.0 and wraps to 0.0; a base
    # coordinate off the 2^-64 grid is rounded onto it first
    p, omega = TorusPoint(1.0 - 2.0**-53, (2**11 - 1) * 2.0**-64), 2.0**-64
    x, y = exact_orbit_phases(p.x, p.y, np.array([0, 1, -1]), omega)
    assert x[1] == 0.0 and y[1] == 2.0**-53  # X_1 = 2^64 - 1
    for i, s in enumerate((0, 1, -1)):
        want = _iterate_signed(p, s, omega)
        assert (x[i], y[i]) == (want.x, want.y)
    x, y = exact_orbit_phases(2.0**-70, 0.75 * 2.0**-64, 0, GOLDEN_MEAN)
    assert (float(x), float(y)) == (0.0, 2.0**-64)


def test_circle_dist():
    assert circle_dist(0.1 - (0.9)) == pytest.approx(0.2)
    assert circle_dist(0.0 - (0.5)) == pytest.approx(0.5)
    assert circle_dist(0.3 - (0.3)) == 0.0


def test_torus_point_wraps():
    p = TorusPoint(1.25, -0.5)
    assert p.x == pytest.approx(0.25)
    assert p.y == pytest.approx(0.5)


def test_skew_shift_step():
    p = TorusPoint(0.2, 0.3)
    q = skew_shift(p, 0.1)
    assert q.x == pytest.approx(0.5)
    assert q.y == pytest.approx(0.4)


@given(unit, unit, unit, st.integers(min_value=0, max_value=60))
@settings(max_examples=60, deadline=None)
def test_iterate_matches_stepping(x, y, omega, k):
    p = TorusPoint(x, y)
    q = p
    for _ in range(k):
        q = skew_shift(q, omega)
    r = skew_shift_iterate(p, k, omega)
    assert circle_dist(q.x - (r.x)) < 1e-9
    assert circle_dist(q.y - (r.y)) < 1e-9


def test_iterate_closed_form_rational_oracle():
    # with rational data the closed form is exact in Fraction arithmetic
    x, y, omega = Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)
    for k in (0, 1, 5, 123, 10_000):
        ex = x + k * y + Fraction(k * (k - 1), 2) * omega
        ey = y + k * omega
        r = skew_shift_iterate(TorusPoint(float(x), float(y)), k, float(omega))
        assert circle_dist(r.x - (float(ex % 1))) < 1e-9
        assert circle_dist(r.y - (float(ey % 1))) < 1e-9


@given(unit, unit, unit, st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_iterate_semigroup(x, y, omega, j, k):
    p = TorusPoint(x, y)
    lhs = skew_shift_iterate(skew_shift_iterate(p, j, omega), k, omega)
    rhs = skew_shift_iterate(p, j + k, omega)
    assert circle_dist(lhs.x - (rhs.x)) < 1e-9
    assert circle_dist(lhs.y - (rhs.y)) < 1e-9


def test_iterate_rejects_negative():
    with pytest.raises(ValueError):
        skew_shift_iterate(TorusPoint(0.0, 0.0), -1, 0.5)


def test_diophantine_golden_mean_passes():
    ok, worst_n, margin = diophantine_check(Frequency(GOLDEN_MEAN, 0.05), 10_000)
    assert ok
    assert margin > 0.05  # the check passes iff the worst margin beats epsilon
    assert worst_n >= 2


def test_diophantine_rational_fails():
    ok, worst_n, margin = diophantine_check(Frequency(0.5, 0.05), 100)
    assert not ok
    assert worst_n % 2 == 0
    assert margin < 0.05 or margin == 0.0


def test_diophantine_margin_definition():
    # worst margin is min over n of ||n omega|| * n (log n)^2 / epsilon
    f = Frequency(GOLDEN_MEAN, 0.05)
    ns = np.arange(2, 501)
    dist = np.abs(ns * GOLDEN_MEAN - np.round(ns * GOLDEN_MEAN))
    margins = dist * ns * np.log(ns) ** 2
    ok, worst_n, margin = diophantine_check(f, 500)
    assert margin == pytest.approx(float(margins.min()), rel=1e-12)
    assert worst_n == int(ns[np.argmin(margins)])


def test_equidistribution_histogram():
    # skew-shift orbit fills the torus: 16x16 cell counts stay near uniform
    p = TorusPoint(0.0, 0.0)
    n = 40_000
    xs = np.empty(n)
    ys = np.empty(n)
    q = p
    for j in range(n):
        q = skew_shift(q, GOLDEN_MEAN)
        xs[j] = q.x
        ys[j] = q.y
    hist, _, _ = np.histogram2d(xs, ys, bins=16, range=[[0, 1], [0, 1]])
    expected = n / 256
    assert np.all(hist > 0.5 * expected)
    assert np.all(hist < 1.5 * expected)
