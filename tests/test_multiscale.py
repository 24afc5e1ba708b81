import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from skewshift import multiscale
from skewshift.deviation import deviation_measure
from skewshift.lyapunov import BudgetError, Sampler, lyapunov_finite
from skewshift.model import default_theorem_model, model_from_dict, model_to_dict, save_model
from skewshift.multiscale import (
    EstimatorNoiseError,
    RunStageError,
    arithmetic_hypothesis,
    continuity_probe,
    induction_step,
    induction_steps,
    resolve_config,
    scale_schedule,
    theorem_mode_run,
    write_manifest,
)

from conftest import DEVIATION_KEYS, ESTIMATE_KEYS, make_model


def test_scale_schedule_shapes():
    sched = scale_schedule(16, 1.0 / 25)
    assert sched.n0 == 16
    (lo1, hi1), (lo2, hi2) = sched.ranges
    assert lo1 == 16**2 and hi1 == 16**5
    assert lo2 == 16**4
    assert hi2 == pytest.approx(math.exp(16 ** 0.2 / 10.0))
    # at desk scale both asymptotic admissibility conditions fail honestly
    assert not sched.threshold_ok
    assert not sched.overlap_ok
    d = sched.to_json()
    assert set(d) == {"n0", "sigma", "threshold_ok", "ranges", "overlap_ok"}


def test_scale_schedule_asymptotic_regime():
    # threshold 9 n0 >= 20 log(2 n0^5) turns on near n0 ~ 50
    assert not scale_schedule(40, 1.0 / 25).threshold_ok
    assert scale_schedule(50, 1.0 / 25).threshold_ok
    # window overlap needs n0 astronomically large
    sched = scale_schedule(10**18, 1.0 / 25)
    assert sched.overlap_ok
    assert sched.threshold_ok


def test_scale_schedule_validation():
    with pytest.raises(ValueError):
        scale_schedule(1, 0.01)
    with pytest.raises(ValueError):
        scale_schedule(16, 0.5)  # sigma must stay below 1/24
    with pytest.raises(ValueError):
        scale_schedule(16, 0.0)


def test_scale_schedule_huge_n0_no_overflow():
    # exp(n0^{5 sigma}/10) overflows floats long before n0 hits int limits
    sched = scale_schedule(10**20, 1.0 / 25)
    assert sched.ranges[1][1] == math.inf
    assert sched.overlap_ok


def test_arithmetic_hypothesis():
    S = default_theorem_model().scaling_factor(0.0)
    # 9 gamma n S >= 10 log(2N): easily true at lam = 1e6 scales
    assert arithmetic_hypothesis(0.5, S, 16, 256)
    assert not arithmetic_hypothesis(0.5, 1.0, 2, 10**9)


def test_induction_step_runs(theorem_model):
    # n = 20 is the first desk scale where the sampled deviation measure
    # drops below the proxy bound on both small scales
    rec = induction_step(theorem_model, 0.0, 20, 400, 0.5, Sampler.grid(24))
    assert rec.hypotheses_ok
    assert rec.S == pytest.approx(theorem_model.scaling_factor(0.0))
    # the unimodular exponent is huge at lam = 1e6, so the lower conclusion
    # holds with room and the fitted constant is modest
    assert rec.concl_lower >= 0.0
    assert rec.concl_gap >= 0.0
    assert rec.C0_fit <= rec.C0
    assert rec.L_N_u.value > 0.25 * math.log(1e6)
    d = rec.to_json()
    assert set(d) == {"n", "N", "gamma", "S", "L_n_u", "L_2n_u", "L_N_u", "L_2N_u",
                      "hyp_ldt_n", "hyp_ldt_2n", "ldt_paper_bound", "ldt_proxy_bound",
                      "hyp_ldt_n_ok", "hyp_ldt_2n_ok", "hyp_min_L", "hyp_gap",
                      "hyp_arith", "C0", "concl_lower", "concl_gap", "C0_fit"}
    for key in ("L_n_u", "L_2n_u", "L_N_u", "L_2N_u"):
        assert set(d[key]) == ESTIMATE_KEYS
    for key in ("hyp_ldt_n", "hyp_ldt_2n"):
        assert set(d[key]) == DEVIATION_KEYS


def test_induction_repeated_scale_matches_separate(theorem_model):
    # n = 2, N = 4 makes 2n == N: one checkpoint serves two scales
    g = Sampler.grid(12)
    rec = induction_step(theorem_model, 0.0, 2, 4, 0.5, g)
    got = [rec.L_n_u, rec.L_2n_u, rec.L_N_u, rec.L_2N_u]
    for est, n in zip(got, (2, 4, 4, 8)):
        assert est == lyapunov_finite(theorem_model, 0.0, n, g, "unimodular")


def test_induction_steps_match_per_pair_steps(theorem_model):
    # pairs sharing n read every scale from one sweep and share the
    # deviation measurements, with the records of separate calls
    g = Sampler.grid(8)
    recs = induction_steps(theorem_model, 0.0, [(3, 9), (3, 18)], 0.5, g)
    assert [r.to_json() for r in recs] == [
        induction_step(theorem_model, 0.0, n, N, 0.5, g).to_json()
        for n, N in ((3, 9), (3, 18))]
    thr = 0.5 * recs[0].S / 10.0
    for rec in recs:
        for est, dev, k in ((rec.L_n_u, rec.hyp_ldt_n, 3), (rec.L_2n_u, rec.hyp_ldt_2n, 6)):
            assert est == lyapunov_finite(theorem_model, 0.0, k, g, "unimodular")
            assert dev == deviation_measure(theorem_model, 0.0, k, thr, g,
                                            kind="unimodular", reference=est)


def test_induction_steps_budget_is_one_sweep(theorem_model):
    g = Sampler.grid(8)
    cost = g.total * 36  # the largest 2N
    with pytest.raises(BudgetError):
        induction_steps(theorem_model, 0.0, [(3, 9), (3, 18)], 0.5, g,
                        budget=cost - 1)
    assert len(induction_steps(theorem_model, 0.0, [(3, 9), (3, 18)], 0.5, g,
                               budget=cost)) == 2


def test_induction_steps_validate_before_sweep(theorem_model, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before validating the pairs")

    monkeypatch.setattr(multiscale, "lyapunov_estimates", no_sweep)
    with pytest.raises(ValueError):
        induction_steps(theorem_model, 0.0, [(3, 9), (10, 50)], 0.5,
                        Sampler.grid(8))


def test_induction_requires_square(theorem_model):
    with pytest.raises(ValueError):
        induction_step(theorem_model, 0.0, 10, 50, 0.5, Sampler.grid(8))


def test_induction_noise_refusal(theorem_model):
    with pytest.raises(EstimatorNoiseError):
        induction_step(theorem_model, 0.0, 6, 36, 0.5,
                       Sampler.monte_carlo(3, 1),
                       deviation_sampler=Sampler.monte_carlo(3, 1))


def test_continuity_probe_hard_bound(theorem_model):
    probe = continuity_probe(theorem_model, 0.0, [1e-2, 1e-4, 1e-6], 8,
                             Sampler.grid(24))
    assert len(probe.rows) == 3
    for row in probe.rows:
        assert row.hard_ok
        assert math.log(max(row.dL, 1e-300)) <= row.lipschitz_log_bound + 1e-8
    # |dL| shrinks with |dE|
    assert probe.rows[-1].dL <= probe.rows[0].dL + 1e-12
    d = probe.to_json()
    assert set(d) == {"E_center", "N", "sigma", "loghoelder_C", "loghoelder_c",
                      "loghoelder_residual", "rows"}
    assert [set(r) for r in d["rows"]] == [
        {"delta", "dL", "lipschitz_log_bound", "hard_ok", "dL_proxy"}] * 3


def test_continuity_budget_refusal(theorem_model):
    with pytest.raises(BudgetError):
        continuity_probe(theorem_model, 0.0, [1e-2], 8, Sampler.grid(16),
                         budget=1)


def test_continuity_requires_descending(theorem_model):
    with pytest.raises(ValueError):
        continuity_probe(theorem_model, 0.0, [1e-6, 1e-2], 8, Sampler.grid(8))


def test_resolve_config_defaults():
    cfg = resolve_config({})
    assert cfg["n0"] == 16
    assert cfg["gamma"] == 0.5
    assert 0 < cfg["sigma"] < 1.0 / 24
    assert cfg["scales"] == sorted(cfg["scales"])


def test_resolve_config_override():
    cfg = resolve_config({"gamma": 0.4, "seed": 123})
    assert cfg["gamma"] == 0.4
    assert cfg["seed"] == 123


@pytest.fixture(scope="module")
def small_cfg():
    return {
        "n0": 4, "sigma": 0.02, "gamma": 0.5, "seed": 7,
        "mc_samples": 400, "grid": 24, "E_grid": [0.0],
        "scales": [4, 8, 16], "deviation_scales": [8],
        "deviation_tau": 0.25, "induction_pairs": [[4, 16]],
        "continuity_deltas": [1e-2, 1e-3], "continuity_N": 8,
        "diophantine_nmax": 2000,
    }


@pytest.fixture(scope="module")
def run_model():
    d = model_to_dict(default_theorem_model())
    d["lambda"] = 100.0
    return model_from_dict(d)


def test_theorem_mode_run_archive(tmp_path, run_model, small_cfg):
    out = tmp_path / "arch"
    theorem_mode_run(run_model, small_cfg, str(out))
    for rel in ["MANIFEST", "config.json", "model.json",
                "records/admission.json", "records/lyapunov.jsonl",
                "records/induction.jsonl", "records/deviation.jsonl",
                "records/continuity.jsonl", "tables/lyapunov.csv",
                "tables/deviation.csv", "tables/continuity.csv"]:
        assert (out / rel).is_file(), rel
    manifest = (out / "MANIFEST").read_text()
    assert "config.json" in manifest


def test_theorem_mode_run_deterministic(tmp_path, run_model, small_cfg):
    a = tmp_path / "a"
    b = tmp_path / "b"
    theorem_mode_run(run_model, small_cfg, str(a))
    theorem_mode_run(run_model, small_cfg, str(b))
    for root, _, files in os.walk(a):
        for name in files:
            if name == "MANIFEST":
                continue  # holds the only timestamp
            pa = os.path.join(root, name)
            pb = pa.replace(str(a), str(b), 1)
            assert Path(pa).read_bytes() == Path(pb).read_bytes(), name


def test_run_stage_error_carries_stage(tmp_path, run_model, small_cfg):
    bad_model_dict = model_to_dict(run_model)
    bad_model_dict["omega"] = 0.5  # rational frequency: Diophantine scan fails
    bad_model = model_from_dict(bad_model_dict)
    with pytest.raises(RunStageError) as ei:
        theorem_mode_run(bad_model, small_cfg, str(tmp_path / "bad"))
    assert ei.value.stage == "admission"
    assert not (tmp_path / "bad").exists()


def test_write_manifest_hashes(tmp_path):
    (tmp_path / "x.txt").write_text("hello")
    info = write_manifest(str(tmp_path))
    text = (tmp_path / "MANIFEST").read_text()
    assert "x.txt" in text
    import hashlib
    assert hashlib.sha256(b"hello").hexdigest() in text
