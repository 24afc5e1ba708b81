"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines live).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from skewshift.avalanche import avalanche_check
from skewshift.cli import _demo_matrices, main as cli_main
from skewshift.cocycle import (
    f_determinant,
    fundamental_matrix,
    fundamental_matrix_a,
    fundamental_matrix_via_f,
    normalize_unimodular,
    orbit_values,
)
from skewshift.deviation import (
    CASE2_BOUND,
    case2_uniform_check,
    deviation_measure,
    lojasiewicz_probe,
)
from skewshift.lyapunov import Sampler, lyapunov_finite, subadditivity_check
from skewshift.model import (
    TrigPoly1,
    TrigPoly2,
    default_theorem_model,
    derive_constants,
    model_from_dict,
    model_to_dict,
)
from skewshift.multiscale import continuity_probe, theorem_mode_run
from skewshift.torus import Frequency, TorusPoint

from conftest import constant_model, tridiag_det


def report(idx: int, name: str, ok: bool):
    print(f"[criterion {idx:2d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {idx} ({name}) failed"


def random_model(rng):
    c, s = rng.uniform(-1.0, 1.0, 2)
    amp = rng.uniform(0.05, 0.45) / math.hypot(c, s)
    a = TrigPoly1(((0, 1.5, 0.0), (1, float(c * amp), float(s * amp))))
    v = TrigPoly2((
        (1, 0, float(rng.normal()), 0.0, float(rng.normal()), 0.0),
        (0, 1, float(rng.normal()), float(rng.normal()), 0.0, 0.0),
        (1, 1, 0.0, float(rng.normal()), 0.0, float(rng.normal()),),
    ))
    lam = float(rng.uniform(0.0, 1000.0))
    omega = float(rng.uniform(0.01, 0.99))
    return derive_constants(a, v, lam, Frequency(omega, 0.05))


def test_criterion_1_determinant_identity():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        m = random_model(rng)
        p = TorusPoint(float(rng.random()), float(rng.random()))
        E = float(rng.normal() * (1.0 + m.lam * m.sup_norm_v))
        n = int(rng.integers(1, 10_001))
        cp = fundamental_matrix(m, p, E, n)
        a_vals, _ = orbit_values(m, p, n)
        want = math.log(abs(a_vals[1] / a_vals[n + 1]))
        got = cp.log_det
        if abs(math.exp(got) - math.exp(want)) > 1e-9 * abs(math.exp(want)):
            ok = False
            break
    report(1, "determinant identity det M_n = a_1/a_{n+1}", ok)


def test_criterion_2_f_cross_check():
    rng = np.random.default_rng(102)
    ok = True
    # entrywise agreement of the two constructions
    for _ in range(50):
        m = random_model(rng)
        p = TorusPoint(float(rng.random()), float(rng.random()))
        E = float(rng.normal() * (1.0 + m.lam * m.sup_norm_v))
        n = int(rng.integers(1, 201))
        cp = fundamental_matrix(m, p, E, n)
        cf = fundamental_matrix_via_f(m, p, E, n)
        scale = max(abs(cp.log_norm), 1.0)
        if abs(cf.log_norm - cp.log_norm) > 1e-8 * scale:
            ok = False
            break
        if not np.allclose(cf.m.unit, cp.m.unit, atol=1e-8):
            ok = False
            break
    # f recurrence vs dense cofactor oracle
    for _ in range(20):
        m = random_model(rng)
        p = TorusPoint(float(rng.random()), float(rng.random()))
        E = float(rng.normal() * (1.0 + m.lam))
        for n in range(1, 9):
            log_f, sign = f_determinant(m, p, E, n)
            want = tridiag_det(m, p, E, n)
            got = sign * math.exp(log_f)
            if abs(got - want) > 1e-10 * max(abs(want), 1.0):
                ok = False
    report(2, "f_n cross-check (matrix assembly + cofactor oracle)", ok)


def test_criterion_3_normalization_identities():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        m = random_model(rng)
        p = TorusPoint(float(rng.random()), float(rng.random()))
        E = float(rng.normal() * (1.0 + m.lam * m.sup_norm_v))
        n = int(rng.integers(1, 101))
        cp = fundamental_matrix(m, p, E, n)
        ca = fundamental_matrix_a(m, p, E, n)
        cu = normalize_unimodular(cp)
        a_vals, _ = orbit_values(m, p, n)
        la = np.log(np.abs(a_vals[1:n + 2]))
        tol = 1e-8 * max(abs(cp.log_norm), 1.0)
        # ||M^a|| = ||M|| * prod |a_{j+1}|
        if abs(ca.log_norm - (cp.log_norm + la[1:].sum())) > tol:
            ok = False
        # ||M^u|| = ||M|| / |det M|^{1/2}, det M = a_1 / a_{n+1}
        if abs(cu.log_norm - (cp.log_norm - 0.5 * (la[0] - la[-1]))) > tol:
            ok = False
        # M^a = prod (a_j a_{j+1})^{1/2} M^u
        half = 0.5 * (la[:-1] + la[1:]).sum()
        if abs(ca.log_norm - (cu.log_norm + half)) > tol:
            ok = False
    # integrated form: L_n^a - L_n^u = mean log|a| on the grid sampler
    m = default_theorem_model()
    n = 50
    ea = lyapunov_finite(m, 0.0, n, Sampler.grid(64), kind="a_normalized")
    eu = lyapunov_finite(m, 0.0, n, Sampler.grid(64), kind="unimodular")
    if abs(ea.value - eu.value - m.log_avg_a) > 3 * (ea.std_error + eu.std_error) + 1e-8:
        ok = False
    report(3, "normalization identities (pointwise + integrated)", ok)


def test_criterion_4_constant_oracle():
    # a=1, v=0, lam=0, E=3: growth rate log((3+sqrt5)/2) of [[3,-1],[1,0]]
    m = constant_model(a0=1.0, v0=0.0, lam=0.0)
    gamma = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    ok = True
    for n in (10, 100, 1000):
        est = lyapunov_finite(m, 3.0, n, Sampler.grid(2))
        if abs(est.value - gamma) > 2.0 / n:
            ok = False
    report(4, "constant-coefficient eigenvalue oracle", ok)


def test_criterion_5_lower_bound_at_desk_scale():
    m = default_theorem_model()
    est = lyapunov_finite(m, 0.0, 100, Sampler.monte_carlo(10_000, 1),
                          kind="unimodular")
    ok = est.value - 5 * est.std_error >= 0.25 * math.log(1e6)
    report(5, "L_100^u >= (1/4) log lambda with 5 sigma margin", ok)


def test_criterion_6_avalanche_principle():
    mu, n = 1e4, 100
    diag = avalanche_check([np.diag([mu, 1 / mu]) for _ in range(n)], mu=mu)
    ok = diag.hypotheses_ok and abs(diag.lhs) < 1e-10
    for seed in range(100):
        rep = avalanche_check(_demo_matrices("hyperbolic", mu, n, seed), mu=mu)
        if not (rep.hypotheses_ok and rep.lhs < 20 * n / mu):
            ok = False
            break
    report(6, "avalanche principle (diagonal exact, hyperbolic bounded)", ok)


def test_criterion_7_case2_regime():
    m = default_theorem_model()
    E = 2.0 * m.lam * m.sup_norm_v * 1.5
    max_dev, violations = case2_uniform_check(
        m, E, 100, Sampler.monte_carlo(100_000, 3))
    ok = violations == 0 and max_dev <= CASE2_BOUND
    report(7, "uniform regime |L_n - log|E|| <= 8 + 2 log 2", ok)


def test_criterion_8_lojasiewicz_probe():
    t_grid = [10 ** (-k / 2) for k in range(2, 9)]
    probe = lojasiewicz_probe(TrigPoly2.cos_x(), [0.0, 1.0], t_grid,
                              Sampler.grid(2048))
    fits = {f.h: f for f in probe.fits}
    ok = abs(fits[0.0].b - 1.0) <= 0.05 and abs(fits[1.0].b - 0.5) <= 0.05
    report(8, "sublevel-measure exponents b(0)=1, b(1)=1/2", ok)


def test_criterion_9_deviation_trend():
    m = default_theorem_model()
    S = m.scaling_factor(0.0)
    reps = []
    for n in (25, 50, 100, 200):
        thr = S * n ** (-0.25)
        reps.append(deviation_measure(m, 0.0, n, thr,
                                      Sampler.monte_carlo(4000, 9)))
    ok = True
    for prev, cur in zip(reps, reps[1:]):
        if cur.wilson[0] > prev.wilson[1]:  # strictly above: trend broken
            ok = False
    report(9, "large-deviation measure nonincreasing up to CI overlap", ok)


def test_criterion_10_subadditivity():
    m = default_theorem_model()
    ok = True
    for n in (5, 10, 25):
        out = subadditivity_check(m, 0.0, n, n, Sampler.grid(256))
        if out["lhs"] > out["rhs"] + 1e-6:
            ok = False
    report(10, "subadditivity on matched 256x256 grid", ok)


def test_criterion_11_finite_scale_lipschitz():
    m = default_theorem_model()
    deltas = [10.0 ** (-k) for k in range(2, 9)]
    probe = continuity_probe(m, 0.0, deltas, 8, Sampler.grid(32))
    ok = all(row.hard_ok for row in probe.rows)
    print(f"    log-Hoelder fit: C={probe.loghoelder_C:.4g} "
          f"c={probe.loghoelder_c:.4g} residual={probe.loghoelder_residual:.3g}")
    report(11, "finite-scale energy Lipschitz bound, zero violations", ok)


def test_criterion_12_determinism(tmp_path, monkeypatch):
    d = model_to_dict(default_theorem_model())
    d["lambda"] = 100.0
    m = model_from_dict(d)
    cfg = {"n0": 4, "sigma": 0.02, "seed": 7, "mc_samples": 300, "grid": 16,
           "E_grid": [0.0], "scales": [4, 8], "deviation_scales": [8],
           "induction_pairs": [[4, 16]], "continuity_deltas": [1e-2, 1e-3],
           "continuity_N": 8, "diophantine_nmax": 2000}
    import os

    outs = {}
    for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        monkeypatch.setenv("SKEWSHIFT_THREADS", threads)
        out = tmp_path / tag
        theorem_mode_run(m, cfg, str(out))
        blobs = {}
        for root, _, files in os.walk(out):
            for name in sorted(files):
                if name == "MANIFEST":
                    continue
                path = os.path.join(root, name)
                blobs[os.path.relpath(path, out)] = Path(path).read_bytes()
        outs[tag] = blobs
    ok = outs["a"] == outs["b"] == outs["c"]
    report(12, "archive replay byte-identical, thread-count invariant", ok)
