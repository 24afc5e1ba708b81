import math

import numpy as np
import pytest

from skewshift.avalanche import (
    AvalancheReport,
    avalanche_check,
    avalanche_on_cocycle,
    cocycle_blocks,
)
from skewshift.cli import _demo_matrices
from skewshift.cocycle import CocycleProduct
from skewshift.torus import TorusPoint

from conftest import make_model

AVALANCHE_KEYS = {"n", "mu", "log_mu", "hyp_det", "hyp_norm", "hyp_cancel", "lhs",
                  "bound", "pass", "log_norm_product", "sum_log_middle",
                  "sum_log_pairwise", "max_pairwise_defect", "min_log_norm",
                  "max_log_det"}


def test_diagonal_family_exact_cancellation():
    mu = 1e4
    mats = [np.diag([mu, 1.0 / mu]) for _ in range(20)]
    rep = avalanche_check(mats, mu=mu)
    assert rep.hypotheses_ok
    assert abs(rep.lhs) < 1e-10
    assert rep.passed


def test_minimum_length():
    with pytest.raises(ValueError):
        avalanche_check([np.eye(2)], mu=10.0)


def test_hypothesis_norm_fails_for_identity():
    mats = [np.eye(2)] * 5
    rep = avalanche_check(mats, mu=100.0)
    assert not rep.hyp_norm
    assert not rep.hypotheses_ok


def test_hypothesis_det_fails():
    mats = [np.diag([100.0, 1.0])] * 5  # |det| = 100 > 1
    rep = avalanche_check(mats, mu=10.0)
    assert not rep.hyp_det


def test_cancellation_hypothesis_fails_for_rotated():
    # a quarter turn between hyperbolic factors kills the norm product
    mu = 1e3
    h = np.diag([mu, 1.0 / mu])
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    rep = avalanche_check([h, r @ h, h], mu=mu)
    assert not rep.hyp_cancel


def test_hyperbolic_family_passes():
    for seed in range(10):
        mats = _demo_matrices("hyperbolic", 1e4, 50, seed)
        rep = avalanche_check(mats, mu=1e4)
        assert rep.hypotheses_ok
        assert rep.passed
        assert rep.lhs < rep.bound


def test_scale_covariance_of_lhs():
    # multiplying every factor by c changes all three norm sums consistently:
    # the combination is invariant
    mats = _demo_matrices("hyperbolic", 1e4, 30, 5)
    r1 = avalanche_check(mats, mu=1e4)
    r2 = avalanche_check([0.5 * m for m in mats], log_mu=r1.log_mu)
    assert r2.lhs == pytest.approx(r1.lhs, abs=1e-8)


def test_log_mu_overflow_safe():
    mats = _demo_matrices("hyperbolic", 1e4, 10, 1)
    rep = avalanche_check(mats, log_mu=2000.0)  # mu = e^2000 overflows floats
    assert rep.mu is None or not math.isfinite(rep.mu) or rep.mu > 0
    assert rep.bound >= 0.0
    assert math.isfinite(rep.lhs)
    d = rep.to_json()
    assert set(d) == AVALANCHE_KEYS
    assert d["mu"] is None and d["log_mu"] == 2000.0


def test_report_json_roundtrip():
    rep = avalanche_check(_demo_matrices("diag", 100.0, 5, 0), mu=100.0)
    d = rep.to_json()
    assert set(d) == AVALANCHE_KEYS
    assert d["n"] == 5
    assert d["pass"] is True
    assert d["mu"] == 100.0


def _textbook(mats):
    """The report's sums from dense floats: log of np.linalg.norm(., 2) per
    factor and per pair, and the product multiplied left to right."""
    log_norms = [math.log(np.linalg.norm(a, 2)) for a in mats]
    pairs = [math.log(np.linalg.norm(b @ a, 2)) for a, b in zip(mats, mats[1:])]
    full = mats[0]
    for a in mats[1:]:
        full = a @ full
    return {
        "log_norm_product": math.log(np.linalg.norm(full, 2)),
        "sum_log_middle": sum(log_norms[1:-1]),
        "sum_log_pairwise": sum(pairs),
        "max_pairwise_defect": max(x + y - p for x, y, p in
                                   zip(log_norms[1:], log_norms, pairs)),
        "min_log_norm": min(log_norms),
        "max_log_det": max(math.log(abs(np.linalg.det(a))) for a in mats),
    }


def test_check_matches_textbook_computation():
    # moderate hyperbolic families, whose products stay in float range
    for mu, n, seed in ((50.0, 12, 0), (50.0, 12, 1), (1e3, 8, 2), (1e3, 8, 3), (10.0, 30, 4)):
        mats = _demo_matrices("hyperbolic", mu, n, seed)
        rep = avalanche_check(mats, mu=mu)
        want = _textbook(mats)
        for key, value in want.items():
            assert getattr(rep, key) == pytest.approx(value, rel=1e-12, abs=1e-12), key
        lhs = abs(want["log_norm_product"] + want["sum_log_middle"] - want["sum_log_pairwise"])
        assert rep.lhs == pytest.approx(lhs, abs=1e-12)
        # a stack goes through the same check as the raw matrices
        stack = CocycleProduct.from_matrices(mats)
        assert avalanche_check(stack, mu=mu) == rep


def test_cocycle_blocks_shapes(theorem_model):
    blocks = cocycle_blocks(theorem_model, TorusPoint(0.31, 0.17), 0.0, 20, 6)
    assert len(blocks) == 6
    for b in blocks:
        assert b.log_norm > 20 * 5.0  # strongly hyperbolic at lam = 1e6


def test_avalanche_on_cocycle_hypotheses(theorem_model):
    rep = avalanche_on_cocycle(theorem_model, TorusPoint(0.31, 0.17), 0.0,
                               20, 8, gamma=0.5)
    assert rep.n == 8
    assert rep.hypotheses_ok
    # mu = exp(0.9 gamma n S): far too large for the bound to be measurable,
    # which is why hypotheses_ok and passed are reported separately
    assert rep.log_mu == pytest.approx(
        0.9 * 0.5 * 20 * theorem_model.scaling_factor(0.0))
