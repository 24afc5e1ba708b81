"""Empirical large-deviation measurements and large-disorder probes.

Covers the deviation-set measure at a given threshold (with Wilson
confidence intervals), the initial-scale diagnostics at large disorder
(Birkhoff sums of log|v - E/lambda|, the diagonal-plus-bounded split of
the tridiagonal determinant, the uniform regime |E| > 2 lambda ||v||),
and the sublevel-measure (Lojasiewicz) probe for nonconstant potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import _LOG_RESCALE, _RESCALE
from .lyapunov import (  # noqa: F401 (sample_log_norms re-exported)
    DEFAULT_WORK_BUDGET,
    LyapunovEstimate,
    Sampler,
    charge,
    log_norm_sweep,
    lyapunov_finite,
    sample_log_norms,
)
from .model import JacobiModel, TrigPoly2
from .torus import mod1_array

CASE2_BOUND = 8.0 + 2.0 * math.log(2.0)


class DeviationError(RuntimeError):
    """Reference estimate too noisy for the requested threshold."""

    def __init__(self, required_samples: int):
        self.required_samples = required_samples
        super().__init__(
            f"reference Lyapunov estimate too noisy; need about "
            f"{required_samples} samples"
        )


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion k/n."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class DeviationReport:
    n: int
    E: float
    threshold: float
    empirical_measure: float
    wilson: tuple[float, float]
    samples: int
    reference: LyapunovEstimate
    kind: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "E": self.E,
            "threshold": self.threshold,
            "measure": self.empirical_measure,
            "ci_lo": self.wilson[0],
            "ci_hi": self.wilson[1],
            "samples": self.samples,
            "kind": self.kind,
            "reference": self.reference.to_json(),
        }


def deviation_measure(
    m: JacobiModel,
    E: float,
    n: int,
    threshold: float,
    s: Sampler,
    kind: str = "plain",
    reference: LyapunovEstimate | None = None,
    ref_sampler: Sampler | None = None,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> DeviationReport:
    """Fraction of sampled (x, y) with |(1/n) log||M_n|| - L_n| > threshold.

    The reference L_n must carry std_error <= threshold/10 (grid references
    report 0 by convention); otherwise the call refuses with the sample
    count that would be needed.  Both the reference and the sample are
    charged against `budget`.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if reference is None:
        ref_sampler = ref_sampler or Sampler.grid(128)
        reference = lyapunov_finite(m, E, n, ref_sampler, kind, budget=budget,
                                    threads=threads)
    if reference.std_error > threshold / 10.0:
        count = s.total if s.kind == "mc" else 10_000
        scale = reference.std_error / (threshold / 10.0)
        raise DeviationError(int(math.ceil(count * scale * scale)))
    u = log_norm_sweep(m, E, [n], s, (kind,), budget=budget, threads=threads)[n][kind]
    exceed = int(np.count_nonzero(np.abs(u - reference.value) > threshold))
    total = u.size
    return DeviationReport(
        n=n, E=float(E), threshold=float(threshold),
        empirical_measure=exceed / total,
        wilson=wilson_interval(exceed, total),
        samples=total, reference=reference, kind=kind,
    )


def _orbit_scan(m: JacobiModel, x: np.ndarray, y: np.ndarray, E: float, n: int) -> dict:
    """One vectorized sweep along the orbit collecting the large-disorder
    diagnostics: Birkhoff sums of log|v_j - E/lam|, the diagonal
    determinant, the worst |v_j - E/lam|, and log|f_n| by the three-term
    recurrence."""
    lam, omega = m.lam, m.omega
    B = x.size
    shift = E / lam if lam > 0 else math.inf
    birkhoff = np.zeros(B)
    log_det_diag = np.zeros(B)
    min_abs = np.full(B, np.inf)
    f_prev = np.zeros(B)
    f_cur = np.ones(B)
    offset = np.zeros(B)
    for j in range(1, n + 1):
        yj = mod1_array(y + j * omega)
        xj = mod1_array(x + j * y + (j * (j - 1) // 2) * omega)
        vj = m.v(xj, yj)
        aj = m.a(yj)
        d = lam * vj - E
        log_det_diag += np.log(np.abs(d))
        if lam > 0:
            w = np.abs(vj - shift)
            birkhoff += np.log(w)
            np.minimum(min_abs, w, out=min_abs)
        f_next = d * f_cur - aj * aj * f_prev
        f_prev, f_cur = f_cur, f_next
        mag = np.maximum(np.abs(f_prev), np.abs(f_cur))
        big = mag > _RESCALE
        if big.any():
            f_prev[big] /= _RESCALE
            f_cur[big] /= _RESCALE
            offset[big] += _LOG_RESCALE
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(f_cur)) + offset
    return {
        "birkhoff": birkhoff / n,
        "log_det_diag": log_det_diag / n,
        "min_abs_v_shift": min_abs,
        "log_f": log_f / n,
    }


@dataclass(frozen=True)
class InitialScaleReport:
    """Diagnostics at the initial scale of the large-disorder regime."""

    n: int
    E: float
    S: float
    log_lambda: float
    case: int
    samples: int
    # case 1
    birkhoff_mean: float | None = None
    birkhoff_min: float | None = None
    diag_identity_residual: float | None = None
    dinv_b_measure: float | None = None
    dinv_b_wilson: tuple[float, float] | None = None
    f_dev_measure: float | None = None
    f_dev_threshold: float | None = None
    deviation: DeviationReport | None = None
    deviation_paper_bound: float | None = None
    # case 2
    case2_max_dev: float | None = None
    case2_bound: float | None = None
    case2_violations: int | None = None
    fitted_constants: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = {
            "n": self.n, "E": self.E, "S": self.S,
            "log_lambda": self.log_lambda, "case": self.case,
            "samples": self.samples,
            "birkhoff_mean": self.birkhoff_mean,
            "birkhoff_min": self.birkhoff_min,
            "diag_identity_residual": self.diag_identity_residual,
            "dinv_b_measure": self.dinv_b_measure,
            "f_dev_measure": self.f_dev_measure,
            "f_dev_threshold": self.f_dev_threshold,
            "deviation_paper_bound": self.deviation_paper_bound,
            "case2_max_dev": self.case2_max_dev,
            "case2_bound": self.case2_bound,
            "case2_violations": self.case2_violations,
            "fitted_constants": self.fitted_constants,
        }
        if self.deviation is not None:
            d["deviation"] = self.deviation.to_json()
        return d


def case2_uniform_check(
    m: JacobiModel,
    E: float,
    n: int,
    s: Sampler,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> tuple[float, int]:
    """Pointwise check |(1/n) log||M_n|| - log|E|| <= 8 + 2 log 2 in the
    uniform regime |E| > 2 lambda ||v||; returns (max deviation, violations)."""
    u = log_norm_sweep(m, E, [n], s, budget=budget, threads=threads)[n]["plain"]
    dev = np.abs(u - math.log(abs(E)))
    return float(np.max(dev)), int(np.count_nonzero(dev > CASE2_BOUND))


def initial_scale_check(
    m: JacobiModel,
    E: float,
    n: int,
    s: Sampler,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> InitialScaleReport:
    """The large-disorder initial-scale diagnostics, split on the energy
    regime at |E| = 2 lambda ||v||.  Every sweep is charged against
    `budget` before it runs."""
    if m.lam <= 1.0:
        raise ValueError("initial-scale check requires large disorder (lambda > 1)")
    S = m.scaling_factor(E)
    log_lam = math.log(m.lam)
    if abs(E) > 2.0 * m.lam * m.sup_norm_v:
        max_dev, violations = case2_uniform_check(m, E, n, s, budget=budget,
                                                  threads=threads)
        return InitialScaleReport(
            n=n, E=float(E), S=S, log_lambda=log_lam, case=2, samples=s.total,
            case2_max_dev=max_dev, case2_bound=CASE2_BOUND,
            case2_violations=violations,
        )
    charge(n, s, budget)
    x, y = s.points()
    scan = _orbit_scan(m, x, y, E, n)
    # exact algebraic identity: (1/n) log|det D_n| = log lam + Birkhoff sum
    residual = float(np.max(np.abs(scan["log_det_diag"] - log_lam - scan["birkhoff"])))
    k_dinv = int(np.count_nonzero(scan["min_abs_v_shift"] < 8.0 / m.lam))
    thresh = log_lam / 200.0
    k_f = int(np.count_nonzero(np.abs(scan["log_f"] - log_lam) > thresh))
    dev = deviation_measure(m, E, n, S / 20.0, s, kind="unimodular",
                            budget=budget, threads=threads)
    return InitialScaleReport(
        n=n, E=float(E), S=S, log_lambda=log_lam, case=1, samples=x.size,
        birkhoff_mean=float(np.mean(scan["birkhoff"])),
        birkhoff_min=float(np.min(scan["birkhoff"])),
        diag_identity_residual=residual,
        dinv_b_measure=k_dinv / x.size,
        dinv_b_wilson=wilson_interval(k_dinv, x.size),
        f_dev_measure=k_f / x.size,
        f_dev_threshold=thresh,
        deviation=dev,
        deviation_paper_bound=float(n) ** -50,
        fitted_constants={"rho": log_lam / 400.0},
    )


@dataclass(frozen=True)
class LojasiewiczFit:
    h: float
    C: float | None
    b: float | None
    residual_rms: float | None
    degenerate: bool


@dataclass(frozen=True)
class LojasiewiczProbe:
    fits: list[LojasiewiczFit]
    table: list[tuple[float, float, float]]  # (h, t, measure)

    def fit_for(self, h: float) -> LojasiewiczFit:
        for f in self.fits:
            if f.h == h:
                return f
        raise KeyError(h)

    def to_json(self) -> dict:
        return {
            "fits": [
                {"h": f.h, "C": f.C, "b": f.b, "residual_rms": f.residual_rms,
                 "degenerate": f.degenerate}
                for f in self.fits
            ],
            "table": [{"h": h, "t": t, "measure": mm} for h, t, mm in self.table],
        }


def lojasiewicz_probe(
    v: TrigPoly2,
    h_grid: list[float],
    t_grid: list[float],
    s: Sampler,
) -> LojasiewiczProbe:
    """Empirical sublevel-set measures mes{|v - h| < t} on an (h, t) grid,
    with a least-squares fit log(measure) = log C + b log t per h value."""
    if v.is_constant():
        raise ValueError("potential must be nonconstant")
    x, y = s.points()
    vals = v(x, y)
    total = vals.size
    fits = []
    table = []
    for h in h_grid:
        measures = []
        for t in t_grid:
            if t <= 0:
                raise ValueError("t values must be positive")
            meas = float(np.count_nonzero(np.abs(vals - h) < t)) / total
            measures.append(meas)
            table.append((float(h), float(t), meas))
        ts = np.asarray(t_grid, dtype=np.float64)
        ms = np.asarray(measures)
        mask = (ms > 0) & (ms < 1)
        if mask.sum() < 2:
            fits.append(LojasiewiczFit(float(h), None, None, None, True))
            continue
        lt = np.log(ts[mask])
        lm = np.log(ms[mask])
        A = np.vstack([lt, np.ones_like(lt)]).T
        (b, logc), *_ = np.linalg.lstsq(A, lm, rcond=None)
        resid = lm - A @ np.array([b, logc])
        fits.append(
            LojasiewiczFit(float(h), float(math.exp(logc)), float(b),
                           float(np.sqrt(np.mean(resid ** 2))), False)
        )
    return LojasiewiczProbe(fits=fits, table=table)
