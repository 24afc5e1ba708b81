import dataclasses
import math
import os

import numpy as np
import pytest

from skewshift import cocycle, lyapunov
from skewshift.cocycle import batched_log_norm_checkpoints, fundamental_matrix
from skewshift.lyapunov import (
    KINDS,
    BudgetError,
    LyapunovEstimate,
    Sampler,
    almost_invariance_defect,
    counter_uniform,
    log_norm_sweep,
    lyapunov_all_kinds,
    lyapunov_finite,
    lyapunov_profile,
    sample_log_norms,
    subadditivity_check,
)
from skewshift.model import ModelAdmissionError, TrigPoly1, TrigPoly2
from skewshift.torus import TorusPoint, exact_orbit_phases, skew_shift_iterate

from conftest import ESTIMATE_KEYS, constant_model, make_model


def test_counter_uniform_deterministic():
    idx = np.arange(1000, dtype=np.uint64)
    u1 = counter_uniform(42, idx)
    u2 = counter_uniform(42, idx)
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, counter_uniform(43, idx))


def test_counter_uniform_order_free():
    # value at index i never depends on which other indices are drawn
    full = counter_uniform(7, np.arange(100, dtype=np.uint64))
    part = counter_uniform(7, np.array([17, 3, 99], dtype=np.uint64))
    assert part[0] == full[17]
    assert part[1] == full[3]
    assert part[2] == full[99]


def test_counter_uniform_range_and_mean():
    u = counter_uniform(0, np.arange(50_000, dtype=np.uint64))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_sampler_grid_points():
    s = Sampler.grid(4)
    x, y = s.points()
    assert len(x) == 16
    # midpoint rule
    assert sorted(set(np.round(x, 12))) == pytest.approx(
        [0.125, 0.375, 0.625, 0.875])


def test_sampler_mc_total():
    s = Sampler.monte_carlo(500, seed=3)
    x, y = s.points()
    assert len(x) == 500
    assert np.all((x >= 0) & (x < 1)) and np.all((y >= 0) & (y < 1))


def test_sample_log_norms_matches_pointwise(tame_model):
    s = Sampler.grid(3)
    vals = sample_log_norms(tame_model, 0.3, 10, s)
    x, y = s.points()
    for i in range(s.total):
        cp = fundamental_matrix(tame_model, TorusPoint(float(x[i]), float(y[i])),
                                0.3, 10)
        assert vals[i] == pytest.approx(cp.log_norm / 10, abs=1e-8)


def test_constant_cocycle_exact():
    # a=1, v=0, E=3: L_n -> log((3+sqrt 5)/2), the top eigenvalue of [[3,-1],[1,0]]
    m = constant_model(a0=1.0, v0=0.0, lam=0.0)
    gamma = math.log((3 + math.sqrt(5)) / 2)
    for n in (10, 100, 1000):
        est = lyapunov_finite(m, 3.0, n, Sampler.grid(2))
        assert abs(est.value - gamma) < 2.0 / n


def test_budget_refusal(tame_model):
    with pytest.raises(BudgetError) as ei:
        lyapunov_finite(tame_model, 0.0, 10**6, Sampler.monte_carlo(10**9, 0),
                        budget=1e6)
    assert ei.value.cost > ei.value.budget


def test_grid_estimate_has_zero_se(tame_model):
    est = lyapunov_finite(tame_model, 0.1, 8, Sampler.grid(8))
    assert est.std_error == 0.0
    assert est.kind == "plain"


def test_mc_estimate_reproducible(tame_model):
    s = Sampler.monte_carlo(2000, seed=11)
    e1 = lyapunov_finite(tame_model, 0.1, 12, s)
    e2 = lyapunov_finite(tame_model, 0.1, 12, s)
    assert e1.value == e2.value
    assert e1.std_error == e2.std_error
    assert e1.std_error > 0


def test_mc_agrees_with_grid(tame_model):
    g = lyapunov_finite(tame_model, 0.1, 12, Sampler.grid(64))
    mc = lyapunov_finite(tame_model, 0.1, 12, Sampler.monte_carlo(4000, 5))
    assert abs(mc.value - g.value) < 6 * mc.std_error + 1e-3


def test_thread_invariance(tame_model):
    s = Sampler.monte_carlo(3000, seed=2)
    v1 = lyapunov_finite(tame_model, 0.2, 15, s, threads=1).value
    v4 = lyapunov_finite(tame_model, 0.2, 15, s, threads=4).value
    assert v1 == v4
    g1 = sample_log_norms(tame_model, 0.2, 15, Sampler.grid(32), threads=1)
    g3 = sample_log_norms(tame_model, 0.2, 15, Sampler.grid(32), threads=3)
    assert np.array_equal(g1, g3)


def test_all_kinds_consistent(tame_model):
    m = tame_model
    out = lyapunov_all_kinds(m, 0.0, [20], Sampler.grid(16))[20]
    assert set(out) == {"plain", "unimodular", "a_normalized"}
    # L^a - L^u = D = mean log|a| (integrated normalization identity)
    assert out["a_normalized"].value - out["unimodular"].value == pytest.approx(
        m.log_avg_a, abs=5e-3)
    # unimodular can only exceed plain by half the det magnitude, tiny here
    assert abs(out["unimodular"].value - out["plain"].value) < 0.05


def test_sweep_matches_separate_sweeps_across_chunks(tame_model, monkeypatch):
    # every scale and kind of one chunked, checkpointed pass equals an
    # unchunked sweep of the ravelled (and shifted) points that stops there
    # at that scale, whether a grid goes to the kernel as axes or not;
    # scale 0 is refused, as the kernel refuses it
    keys = {"plain": "log_norm", "unimodular": "log_norm_u",
            "a_normalized": "log_norm_a"}
    # a and v both depend on y; a zero frequency and a zero coefficient
    y_model = make_model(
        a=TrigPoly1(((0, 1.5, 0.0), (1, 0.3, 0.1), (2, 0.0, 0.0))),
        v=TrigPoly2(((1, 1, 0.5, 0.0, 0.0, 0.3), (0, 2, 0.2, 0.7, 0.0, 0.0),
                     (1, 0, 0.0, 0.0, 0.4, 0.0))))
    cases = [  # (model, sampler, chunk, shift)
        (tame_model, Sampler.grid(129, 128), 16384, 0),  # two chunks of rows
        (tame_model, Sampler.grid(9, 5), 12, 0),   # gy does not divide the chunk
        (y_model, Sampler.grid(4, 9), 7, 3),       # gy > chunk: a row per chunk
        (y_model, Sampler.grid(9, 5), 12, 2),
        (y_model, Sampler.monte_carlo(50, 3), 16, 1),
    ]
    for m, s, chunk, shift in cases:
        monkeypatch.setattr(lyapunov, "_CHUNK", chunk)
        x, y = exact_orbit_phases(*s.points(), shift, m.omega)
        for threads in (1, 2):
            with pytest.raises(ValueError, match="positive and ascending"):
                log_norm_sweep(m, 0.2, [5, 0], s, KINDS, shift=shift, threads=threads)
            out = log_norm_sweep(m, 0.2, [5, 1, 2, 5], s, KINDS, shift=shift,
                                 threads=threads)
            assert sorted(out) == [1, 2, 5]
            for n in (1, 2, 5):
                sep = batched_log_norm_checkpoints(m, x, y, 0.2, [n])[n]
                for kind in KINDS:
                    want = sep[keys[kind]] / n
                    assert np.array_equal(out[n][kind], want), (s, shift, n, kind)


@pytest.mark.parametrize("kinds", [("plain",), ("unimodular",), ("a_normalized",), KINDS])
def test_sweep_forms_only_the_requested_kinds(tame_model, kinds):
    # each returned kind is bitwise the kernel's four-key read-out, and the
    # read-out behind it forms no other array
    scales, E = [3, 8], 0.3
    for s in (Sampler.grid(6, 5), Sampler.monte_carlo(40, 2)):
        x, y = s.points()
        want = batched_log_norm_checkpoints(tame_model, x, y, E, scales)
        got = log_norm_sweep(tame_model, E, scales, s, kinds)
        keys = tuple(lyapunov._KIND_KEY[kind] for kind in kinds)
        part = cocycle._checkpoint_log_norms(tame_model, x, y, E, scales, keys)
        for n in scales:
            assert tuple(got[n]) == kinds and tuple(part[n]) == keys
            for kind, key in zip(kinds, keys):
                assert np.array_equal(got[n][kind], want[n][key] / n)
                assert np.array_equal(part[n][key], want[n][key])
    det = cocycle._checkpoint_log_norms(tame_model, x, y, E, scales, ("log_det",))
    assert all(np.array_equal(det[n]["log_det"], want[n]["log_det"]) for n in scales)


def test_shifted_sweep_matches_fraction_oracle(theorem_model):
    # shifted base points come from the exact orbit primitive: bitwise the
    # kernel at the Fraction closed form of T^shift, far past float range
    m, E, n = theorem_model, 0.3e6, 8
    keys = {"plain": "log_norm", "unimodular": "log_norm_u",
            "a_normalized": "log_norm_a"}
    for s in (Sampler.grid(8, 6), Sampler.monte_carlo(40, 11)):
        points = [TorusPoint(x, y) for x, y in zip(*s.points())]
        for shift in (10**4, 10**6, 10**9):
            moved = [skew_shift_iterate(p, shift, m.omega) for p in points]
            want = batched_log_norm_checkpoints(m, np.array([p.x for p in moved]),
                                                np.array([p.y for p in moved]), E, [n])[n]
            got = log_norm_sweep(m, E, [n], s, KINDS, shift=shift)[n]
            for kind in KINDS:
                assert np.array_equal(got[kind], want[keys[kind]] / n), (s, shift, kind)


def _first_refusal(m, xs, ys, E, n):
    # what fundamental_matrix says at the first point, in ravelled order, it refuses
    for x, y in zip(xs, ys):
        try:
            fundamental_matrix(m, TorusPoint(float(x), float(y)), E, n)
        except ModelAdmissionError as exc:
            return str(exc)
    return None


def test_estimators_refuse_small_a_as_the_products(tame_model, monkeypatch):
    # models built past admission: every estimator refuses |a| < 1 along a
    # sampled orbit with the step fundamental_matrix names at the first such
    # point in ravelled order, whatever the chunking and thread count (a = 0
    # gave nan, the dip a value).  On the dip model the first such point is
    # not the one with the earliest step: grid point 0 meets it at step 3 and
    # point 2 at step 1, MC point 1 at step 2 and point 8 at step 1
    zero = dataclasses.replace(tame_model, a=TrigPoly1.constant(0.0))
    dip = dataclasses.replace(tame_model, a=TrigPoly1(((0, 1.099, 0.0), (1, 0.1, 0.0))))
    cases = [(zero, Sampler.grid(4), 5, "step 1"),
             (dip, Sampler.grid(6, 10), 8, "step 3"),
             (dip, Sampler.monte_carlo(40, 6), 5, "step 2")]
    for m, s, n, step in cases:
        want = _first_refusal(m, *s.points(), 0.0, n)
        assert want.endswith(step)
        inputs = [s.points()] + ([s.axes()] if s.kind == "grid" else [])
        calls = [lambda: lyapunov_finite(m, 0.0, n, s)]
        calls += [lambda t=t: log_norm_sweep(m, 0.0, [2, n], s, KINDS, threads=t)
                  for t in (1, 2)]
        calls += [lambda x=x, y=y: batched_log_norm_checkpoints(m, x, y, 0.0, [1, n])
                  for x, y in inputs]
        for chunk in (16384, 4):
            monkeypatch.setattr(lyapunov, "_CHUNK", chunk)
            for call in calls:
                with pytest.raises(ModelAdmissionError) as ei:
                    call()
                assert str(ei.value) == want, (s, chunk)


def test_sweep_budget_checked_before_points(tame_model):
    # 1e12 points would not fit in memory; the refusal comes first
    with pytest.raises(BudgetError):
        log_norm_sweep(tame_model, 0.0, [2, 10], Sampler.monte_carlo(10**12, 0),
                       budget=1e6)


def test_sample_log_norms_budget(tame_model):
    # one scale at each point: the job costs points x n matrix steps
    s, n = Sampler.monte_carlo(30, 4), 7
    with pytest.raises(BudgetError) as ei:
        sample_log_norms(tame_model, 0.1, n, s, budget=30 * n - 1)
    assert ei.value.cost == 30 * n
    got = sample_log_norms(tame_model, 0.1, n, s, budget=30 * n)
    assert np.array_equal(got, sample_log_norms(tame_model, 0.1, n, s))


def test_threads_env_malformed(tame_model, monkeypatch):
    monkeypatch.setenv("SKEWSHIFT_THREADS", "two")
    with pytest.raises(ValueError, match="SKEWSHIFT_THREADS"):
        sample_log_norms(tame_model, 0.0, 4, Sampler.grid(4))


def test_profile_running_infimum(tame_model):
    ests, running = lyapunov_profile(tame_model, 0.0, [5, 10, 20, 40],
                                     Sampler.grid(16))
    assert len(ests) == len(running) == 4
    vals = [e.value for e in ests]
    assert running == [min(vals[: i + 1]) for i in range(4)]
    assert all(b <= a + 1e-12 for a, b in zip(running, running[1:]))


def test_profile_requires_ascending(tame_model):
    with pytest.raises(ValueError):
        lyapunov_profile(tame_model, 0.0, [10, 5], Sampler.grid(4))


def test_subadditivity_exact_on_matched_grid(tame_model):
    out = subadditivity_check(tame_model, 0.3, 6, 6, Sampler.grid(32))
    assert out["lhs"] <= out["rhs"] + 1e-9
    assert out["slack"] >= -1e-9


def test_multi_sweep_checks_refuse_empty_scales(tame_model):
    # n = 0 (or m = 0) gave a trivial slack or defect of 0.0; the estimators
    # refuse it as lyapunov_estimates does
    grid = Sampler.grid(4)
    for n, msteps in ((0, 6), (6, 0), (-1, 6)):
        with pytest.raises(ValueError):
            subadditivity_check(tame_model, 0.3, n, msteps, grid)
    for K in (0, 3):
        with pytest.raises(ValueError):
            almost_invariance_defect(tame_model, 0.1, 0, K, grid)


def test_almost_invariance_zero_at_k0(tame_model):
    assert almost_invariance_defect(tame_model, 0.1, 10, 0, Sampler.grid(8)) == 0.0


def test_almost_invariance_small(tame_model):
    # averaging over K shifts moves the Birkhoff-type average by O(K/n)
    d = almost_invariance_defect(tame_model, 0.1, 50, 3, Sampler.grid(16))
    assert 0.0 <= d < 3 * 2 * tame_model.scaling_factor(0.1) / 50


def test_multi_sweep_checks_refuse_over_budget(tame_model):
    # the whole job is charged before the first sweep: on 64 points each
    # sweep alone fits in 1000 steps (12 x 64 and 10 x 64), the job does not
    grid = Sampler.grid(8)
    for budget in (1, 1000):
        with pytest.raises(BudgetError) as ei:
            subadditivity_check(tame_model, 0.3, 6, 6, grid, budget=budget)
        assert ei.value.cost == (6 + 2 * 6) * 64
        with pytest.raises(BudgetError) as ei:
            almost_invariance_defect(tame_model, 0.1, 10, 3, grid, budget=budget)
        assert ei.value.cost == 4 * 10 * 64


def test_estimate_to_json(tame_model):
    est = lyapunov_finite(tame_model, 0.1, 5, Sampler.grid(4))
    rec = est.to_json()
    assert set(rec) == ESTIMATE_KEYS
    assert rec["n"] == 5
    assert rec["value"] == est.value
    assert rec["model_hash"] == tame_model.model_hash
