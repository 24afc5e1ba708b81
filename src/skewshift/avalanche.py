"""Executable avalanche principle for sequences of 2x2 matrices.

Hypotheses: every |det A_j| <= 1, every ||A_j|| >= mu >= n, and the
pairwise cancellation defect log||A_{j+1}|| + log||A_j|| -
log||A_{j+1}A_j|| stays below (1/2) log mu.  Conclusion: the combination
|log||A_n...A_1|| + sum_{j=2}^{n-1} log||A_j|| - sum_{j=1}^{n-1}
log||A_{j+1}A_j||| is below C n / mu.

All norms are spectral and all magnitudes are carried in log form, so the
check works unchanged on cocycle blocks whose norms overflow a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import LogScaledMatrix, normalize_unimodular, orbit_product
# fundamental_matrix and skew_shift_iterate stay in this namespace, where
# perfbench/tracing.py looks them up
from .cocycle import fundamental_matrix  # noqa: F401
from .model import JacobiModel
from .torus import TorusPoint, exact_orbit_phases, skew_shift_iterate  # noqa: F401

DEFAULT_C = 20.0
_DET_TOL = 1e-12


@dataclass(frozen=True)
class AvalancheReport:
    n: int
    mu: float
    log_mu: float
    hyp_det: bool
    hyp_norm: bool
    hyp_cancel: bool
    lhs: float
    bound: float
    passed: bool
    log_norm_product: float
    sum_log_middle: float
    sum_log_pairwise: float
    max_pairwise_defect: float
    min_log_norm: float
    max_log_det: float

    @property
    def hypotheses_ok(self) -> bool:
        return self.hyp_det and self.hyp_norm and self.hyp_cancel

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mu": self.mu if math.isfinite(self.mu) else None,
            "log_mu": self.log_mu,
            "hyp_det": self.hyp_det,
            "hyp_norm": self.hyp_norm,
            "hyp_cancel": self.hyp_cancel,
            "lhs": self.lhs,
            "bound": self.bound,
            "pass": self.passed,
            "log_norm_product": self.log_norm_product,
            "sum_log_middle": self.sum_log_middle,
            "sum_log_pairwise": self.sum_log_pairwise,
            "max_pairwise_defect": self.max_pairwise_defect,
            "min_log_norm": self.min_log_norm,
            "max_log_det": self.max_log_det,
        }


def _coerce(a) -> LogScaledMatrix:
    if isinstance(a, LogScaledMatrix):
        return a
    return LogScaledMatrix.from_matrix(np.asarray(a, dtype=np.float64))


def avalanche_check(matrices, mu: float | None = None, C: float = DEFAULT_C,
                    log_mu: float | None = None,
                    log_dets=None) -> AvalancheReport:
    """Evaluate the hypotheses and the conclusion combination for a sequence.

    Either mu or log_mu must be given (log_mu wins when both are present;
    it keeps astronomically large thresholds representable).  n = 2 is the
    degenerate case where the middle sum is empty and the combination
    telescopes to 0.  `log_dets` supplies exact per-factor log|det| values
    when the caller has them; the determinant of a strongly hyperbolic unit
    matrix cancels below float precision, so recomputing it from entries is
    not an option for cocycle blocks.
    """
    mats = [_coerce(a) for a in matrices]
    n = len(mats)
    if n < 2:
        raise ValueError("need at least 2 matrices")
    if log_mu is None:
        if mu is None:
            raise ValueError("mu or log_mu required")
        log_mu = math.log(mu)
    if mu is None:
        mu = math.exp(log_mu) if log_mu < 700 else math.inf

    log_norms = np.array([a.log_norm2 for a in mats])
    if log_dets is None:
        log_dets = np.array([a.log_det for a in mats])
    else:
        log_dets = np.asarray(log_dets, dtype=np.float64)
        if log_dets.shape != (n,):
            raise ValueError("log_dets must have one entry per matrix")
    pair_log_norms = np.array(
        [(mats[j + 1] @ mats[j]).log_norm2 for j in range(n - 1)]
    )
    full = mats[0]
    for a in mats[1:]:
        full = a @ full
    log_norm_product = full.log_norm2

    defects = log_norms[1:] + log_norms[:-1] - pair_log_norms
    max_defect = float(np.max(defects))
    min_log_norm = float(np.min(log_norms))
    max_log_det = float(np.max(log_dets))

    tol = 1e-12 * max(1.0, abs(log_mu))
    hyp_det = max_log_det <= _DET_TOL
    hyp_norm = (min_log_norm >= log_mu - tol) and (log_mu >= math.log(n) - tol)
    hyp_cancel = max_defect <= 0.5 * log_mu + tol

    sum_middle = float(np.sum(log_norms[1:-1]))
    sum_pairwise = float(np.sum(pair_log_norms))
    lhs = abs(log_norm_product + sum_middle - sum_pairwise)
    bound = C * n * math.exp(-log_mu) if log_mu < 700 else 0.0
    passed = hyp_det and hyp_norm and hyp_cancel and lhs <= bound
    return AvalancheReport(
        n=n, mu=float(mu), log_mu=float(log_mu),
        hyp_det=hyp_det, hyp_norm=hyp_norm, hyp_cancel=hyp_cancel,
        lhs=lhs, bound=bound, passed=passed,
        log_norm_product=float(log_norm_product),
        sum_log_middle=sum_middle, sum_log_pairwise=sum_pairwise,
        max_pairwise_defect=max_defect, min_log_norm=min_log_norm,
        max_log_det=max_log_det,
    )


def cocycle_blocks(m: JacobiModel, base: TorusPoint, E: float, n: int,
                   count: int) -> list[LogScaledMatrix]:
    """Unimodular n-step blocks M_n^u at base points shifted by T^{(j-1)n}.

    The block starts T^{(j-1)n}(base) come from `exact_orbit_phases`, and
    one `orbit_product` call sweeps all blocks together, so the blocks lie
    on the orbit of the full product M_{count n}(base).  Raises
    ModelAdmissionError as `fundamental_matrix` does, with the step counted
    within the first block that meets |a| < 1.
    """
    x, y = exact_orbit_phases(base.x, base.y, np.arange(count) * n, m.omega)
    p = orbit_product(m, x, y, E, n)
    return [normalize_unimodular(p.cocycle(j)).m for j in range(count)]


def avalanche_on_cocycle(
    m: JacobiModel,
    base: TorusPoint,
    E: float,
    n: int,
    blocks: int,
    gamma: float = 0.5,
    C: float = DEFAULT_C,
) -> AvalancheReport:
    """Run the check on unimodular cocycle blocks with mu = exp(0.9 gamma n S).

    Hypothesis failure is a reported outcome, not an error.
    """
    if blocks < 2:
        raise ValueError("need at least 2 blocks")
    S = m.scaling_factor(E)
    log_mu = 0.9 * gamma * n * S
    mats = cocycle_blocks(m, base, E, n, blocks)
    # blocks are unimodular by construction; their log-dets are exactly 0
    return avalanche_check(mats, C=C, log_mu=log_mu,
                           log_dets=np.zeros(blocks))
