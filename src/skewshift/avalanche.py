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
from dataclasses import asdict, dataclass

import numpy as np

from .cocycle import CocycleProduct, _tree_fold, _log_unit_norm, normalize_unimodular, orbit_product
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
        d = asdict(self)
        d["pass"] = d.pop("passed")
        if not math.isfinite(self.mu):
            d["mu"] = None
        return d


def avalanche_check(matrices, mu: float | None = None, C: float = DEFAULT_C,
                    log_mu: float | None = None) -> AvalancheReport:
    """Evaluate the hypotheses and the conclusion combination for a sequence.

    `matrices` is a `CocycleProduct` stack A_1, ..., A_n or raw 2x2
    matrices (see `CocycleProduct.from_matrices`).  Either mu or log_mu must
    be given (log_mu wins; it keeps astronomically large thresholds
    representable).  n = 2 is the degenerate case where the middle sum is
    empty and the combination telescopes to 0.  The pairs A_{j+1} A_j are one
    batched multiply, the full product a `_tree_fold` in log depth.
    """
    c = matrices if isinstance(matrices, CocycleProduct) else CocycleProduct.from_matrices(matrices)
    n = np.size(c.log_scale)
    if n < 2:
        raise ValueError("need at least 2 matrices")
    if log_mu is None:
        if mu is None:
            raise ValueError("mu or log_mu required")
        log_mu = math.log(mu)
    if mu is None:
        mu = math.exp(log_mu) if log_mu < 700 else math.inf

    log_norms = c.log_norm
    pair_log_norms = CocycleProduct.from_matrices(
        c.unit[1:] @ c.unit[:-1], c.log_scale[1:] + c.log_scale[:-1]).log_norm
    unit, log_scale = _tree_fold(c.unit.reshape(n, 4).T[:, :, None], c.log_scale.reshape(n, 1))
    log_norm_product = float(log_scale[0] + _log_unit_norm(*unit[:, 0]))

    defects = log_norms[1:] + log_norms[:-1] - pair_log_norms
    max_defect = float(np.max(defects))
    min_log_norm = float(np.min(log_norms))
    max_log_det = float(np.max(c.log_det))

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
        log_norm_product=log_norm_product,
        sum_log_middle=sum_middle, sum_log_pairwise=sum_pairwise,
        max_pairwise_defect=max_defect, min_log_norm=min_log_norm,
        max_log_det=max_log_det,
    )


def cocycle_blocks(m: JacobiModel, base: TorusPoint, E: float, n: int,
                   count: int) -> CocycleProduct:
    """The stack of unimodular n-step blocks M_n^u at base points shifted by
    T^{(j-1)n}, j = 1..count.

    The block starts T^{(j-1)n}(base) come from `exact_orbit_phases`, and
    one `orbit_product` call sweeps all blocks together, so the blocks lie
    on the orbit of the full product M_{count n}(base).  Raises
    ModelAdmissionError as `fundamental_matrix` does, with the step counted
    within the first block that meets |a| < 1.
    """
    x, y = exact_orbit_phases(base.x, base.y, np.arange(count) * n, m.omega)
    return normalize_unimodular(orbit_product(m, x, y, E, n)[0])


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
    return avalanche_check(cocycle_blocks(m, base, E, n, blocks), C=C, log_mu=log_mu)
