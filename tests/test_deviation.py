import math

import numpy as np
import pytest

from skewshift import deviation
from skewshift.cocycle import fundamental_matrix_via_f, orbit_values
from skewshift.deviation import (
    CASE2_BOUND,
    DeviationError,
    case2_uniform_check,
    deviation_measure,
    initial_scale_check,
    lojasiewicz_probe,
    wilson_interval,
)
from skewshift.lyapunov import BudgetError, Sampler, lyapunov_estimates, lyapunov_finite
from skewshift.model import (
    TrigPoly1,
    TrigPoly2,
    default_theorem_model,
    model_from_dict,
    model_to_dict,
)
from skewshift.torus import TorusPoint, exact_orbit_phases

from conftest import DEVIATION_KEYS, ESTIMATE_KEYS, make_model

INITIAL_SCALE_KEYS = {"n", "E", "S", "log_lambda", "case", "samples",
                      "birkhoff_mean", "birkhoff_min", "diag_identity_residual",
                      "dinv_b_measure", "f_dev_measure", "f_dev_threshold",
                      "deviation_paper_bound", "case2_max_dev", "case2_bound",
                      "case2_violations", "fitted_constants"}


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - lo < 0.25


def test_wilson_interval_monotone_in_n():
    _, hi1 = wilson_interval(0, 100)
    _, hi2 = wilson_interval(0, 10_000)
    assert hi2 < hi1


def test_deviation_requires_positive_threshold(tame_model):
    with pytest.raises(ValueError):
        deviation_measure(tame_model, 0.0, 10, 0.0, Sampler.grid(8))


def test_deviation_measure_grid(tame_model):
    rep = deviation_measure(tame_model, 0.0, 20, 0.5, Sampler.grid(32))
    assert 0.0 <= rep.measure <= 1.0
    assert rep.ci_lo <= rep.measure <= rep.ci_hi
    assert rep.samples == 32 * 32


def test_deviation_huge_threshold_zero(tame_model):
    rep = deviation_measure(tame_model, 0.0, 20, 100.0, Sampler.grid(16))
    assert rep.measure == 0.0


def test_deviation_refuses_noisy_reference(tame_model):
    # threshold far below the reference estimator noise must refuse
    with pytest.raises(DeviationError):
        deviation_measure(tame_model, 0.0, 20, 1e-9,
                          Sampler.monte_carlo(500, 2),
                          reference=lyapunov_finite(tame_model, 0.0, 20,
                                                    Sampler.monte_carlo(50, 3)))


def test_deviation_sample_budget_refusal(tame_model):
    ref = lyapunov_finite(tame_model, 0.0, 10, Sampler.grid(16))
    with pytest.raises(BudgetError):
        deviation_measure(tame_model, 0.0, 10, 0.5, Sampler.grid(16),
                          reference=ref, budget=1)


def test_deviation_json(tame_model):
    rep = deviation_measure(tame_model, 0.0, 10, 0.5, Sampler.grid(16))
    d = rep.to_json()
    assert set(d) == DEVIATION_KEYS
    assert set(d["reference"]) == ESTIMATE_KEYS
    assert d["n"] == 10
    assert d["measure"] == rep.measure
    assert (d["ci_lo"], d["ci_hi"]) == (rep.ci_lo, rep.ci_hi)


def test_case2_uniform_regime(theorem_model):
    m = theorem_model
    E = 2 * m.lam * m.sup_norm_v * 1.5
    max_dev, violations = case2_uniform_check(m, E, 50, Sampler.grid(24))
    assert violations == 0
    assert max_dev <= CASE2_BOUND


def test_initial_scale_case_split(theorem_model):
    m = theorem_model
    rep1 = initial_scale_check(m, 0.0, 30, Sampler.grid(16))
    assert rep1.case == 1
    rep2 = initial_scale_check(m, 2 * m.lam * m.sup_norm_v * 1.5, 30,
                               Sampler.grid(16))
    assert rep2.case == 2
    assert rep2.case2_violations == 0
    d1, d2 = rep1.to_json(), rep2.to_json()
    assert set(d1) == INITIAL_SCALE_KEYS | {"deviation"}
    assert set(d1["deviation"]) == DEVIATION_KEYS
    assert set(d2) == INITIAL_SCALE_KEYS  # case 2 records carry no deviation


def test_initial_scale_reference_is_the_checkpoint_of_a_shared_sweep(theorem_model, monkeypatch):
    # the pipeline passes the unimodular kind at n0 from the deviation stage's
    # multi-scale reference sweep; a checkpoint is bitwise a separate sweep,
    # so the report is the one that sweeps its own reference, and no
    # reference grid is swept when one is given
    m, n, mc = theorem_model, 16, Sampler.monte_carlo(300, 3)
    ref = lyapunov_estimates(m, 0.0, [n, 2 * n], deviation.REFERENCE_GRID,
                             ("plain", "unimodular"))[n]["unimodular"]
    want = initial_scale_check(m, 0.0, n, mc).to_json()
    monkeypatch.setattr(deviation, "lyapunov_finite",
                        lambda *args, **kwargs: pytest.fail("reference grid swept"))
    assert initial_scale_check(m, 0.0, n, mc, reference=ref).to_json() == want


def test_initial_scale_diag_identity(theorem_model):
    # (1/n) log|det D_n| = log(lam) + Birkhoff average of log|v - E/lam|
    rep = initial_scale_check(theorem_model, 0.0, 40, Sampler.grid(16))
    assert abs(rep.diag_identity_residual) < 1e-9
    assert rep.log_lambda == pytest.approx(math.log(1e6))


def test_initial_scale_budget_refusal(theorem_model):
    m = theorem_model
    for E in (0.0, 3.0 * m.lam * m.sup_norm_v):  # case 1, case 2
        with pytest.raises(BudgetError):
            initial_scale_check(m, E, 10, Sampler.grid(8), budget=1)
    # the orbit scan is refused before 1e12 points are generated
    with pytest.raises(BudgetError):
        initial_scale_check(m, 0.0, 10, Sampler.monte_carlo(10**12, 0), budget=1e6)


def test_orbit_scan_matches_exact_orbit(theorem_model):
    # log|f_n| against the f-recurrence product of `fundamental_matrix_via_f`
    # (its own F_j loop, apart from the kernel), whose m00 entry is
    # f_n / prod_{2..n+1} a_j; the sums against per-point sums over the exact
    # orbit; for the theorem model and one whose a and v both depend on y
    y_model = make_model(
        lam=50.0, a=TrigPoly1(((0, 1.5, 0.0), (1, 0.3, 0.1), (2, 0.0, 0.05))),
        v=TrigPoly2(((1, 1, 0.5, 0.0, 0.0, 0.3), (0, 2, 0.2, 0.7, 0.0, 0.0),
                     (1, 0, 0.0, 0.0, 0.4, 0.0))))
    n = 1000
    x, y = Sampler.monte_carlo(20, 9).points()
    for m, E in ((theorem_model, 0.3e6), (y_model, 10.0)):
        scan = deviation._orbit_scan(m, x, y, E, n)
        for i, p in enumerate(TorusPoint(a, b) for a, b in zip(x, y)):
            cf = fundamental_matrix_via_f(m, p, E, n)
            log_a = math.fsum(np.log(np.abs(orbit_values(m, p, n)[0][2:n + 2])))
            log_f = (math.log(abs(cf.unit[0, 0])) + cf.log_scale + log_a) / n
            assert scan["log_f"][i] == pytest.approx(log_f, rel=1e-12, abs=0)
            v = m.v(*exact_orbit_phases(p.x, p.y, np.arange(1, n + 1), m.omega))
            w = np.abs(v - E / m.lam)
            want = {"birkhoff": math.fsum(np.log(w)) / n,
                    "log_det_diag": math.fsum(np.log(np.abs(m.lam * v - E))) / n,
                    "min_abs_v_shift": float(w.min())}
            for key, val in want.items():
                assert scan[key][i] == pytest.approx(val, rel=1e-12, abs=1e-12), key


def test_initial_scale_requires_positive_n(theorem_model):
    with pytest.raises(ValueError, match="n must be positive"):
        initial_scale_check(theorem_model, 0.0, 0, Sampler.grid(8))


def test_initial_scale_requires_large_lambda(tame_model):
    d = model_to_dict(tame_model)
    d["lambda"] = 0.5
    with pytest.raises(ValueError):
        initial_scale_check(model_from_dict(d), 0.0, 10, Sampler.grid(8))


def test_lojasiewicz_cos_oracle():
    # sublevel measure of |cos(2 pi x) - c|: b = 1 at h = 0 (arcsin slope),
    # b = 1/2 at h = 1 (square-root vanishing at the edge)
    v = TrigPoly2.cos_x()
    t_grid = [10 ** (-k / 2) for k in range(2, 9)]
    probe = lojasiewicz_probe(v, [0.0, 1.0], t_grid, Sampler.grid(2048))
    fits = {f.h: f for f in probe.fits}
    assert fits[0.0].b == pytest.approx(1.0, abs=0.05)
    assert fits[1.0].b == pytest.approx(0.5, abs=0.05)
    assert not fits[0.0].degenerate


def test_lojasiewicz_rejects_constant():
    with pytest.raises(ValueError):
        lojasiewicz_probe(TrigPoly2.constant(1.0), [0.0], [0.1],
                          Sampler.grid(32))


def test_lojasiewicz_json():
    probe = lojasiewicz_probe(TrigPoly2.cos_x(), [0.0], [0.1, 0.01],
                              Sampler.grid(64))
    d = probe.to_json()
    assert set(d) == {"fits", "table"}
    assert [set(f) for f in d["fits"]] == [{"h", "C", "b", "residual_rms", "degenerate"}]
    assert d["table"] == [{"h": 0.0, "t": t, "measure": mm}
                          for _, t, mm in probe.table]
