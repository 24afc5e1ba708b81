"""Empirical large-deviation measurements and large-disorder probes.

Covers the deviation-set measure at a given threshold (with Wilson
confidence intervals), the initial-scale diagnostics at large disorder
(Birkhoff sums of log|v - E/lambda|, the diagonal-plus-bounded split of
the tridiagonal determinant, the uniform regime |E| > 2 lambda ||v||),
and the sublevel-measure (Lojasiewicz) probe for nonconstant potentials.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .cocycle import _BLOCK, f_determinants
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
from .torus import exact_orbit_phases

CASE2_BOUND = 8.0 + 2.0 * math.log(2.0)
REFERENCE_GRID = Sampler.grid(128)  # default reference sampler of deviation_measure


class DeviationError(RuntimeError):
    """Reference estimate too noisy for the requested threshold."""

    def __init__(self, required_samples: int):
        self.required_samples = required_samples
        super().__init__(
            f"reference Lyapunov estimate too noisy; need about "
            f"{required_samples} samples"
        )


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion k/n."""
    if n <= 0:
        raise ValueError("n must be positive")
    z = 1.959963984540054  # two-sided 95% normal quantile
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
        d = asdict(self)
        d["measure"] = d.pop("empirical_measure")
        d["ci_lo"], d["ci_hi"] = d.pop("wilson")
        return d


def deviation_measure(
    m: JacobiModel,
    E: float,
    n: int,
    threshold: float,
    s: Sampler,
    kind: str = "plain",
    reference: LyapunovEstimate | None = None,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> DeviationReport:
    """Fraction of sampled (x, y) with |(1/n) log||M_n|| - L_n| > threshold.

    The reference L_n (by default `lyapunov_finite` on REFERENCE_GRID) must
    carry std_error <= threshold/10 (grid references report 0); otherwise
    the call refuses with the sample count that would be needed.  Both the
    reference and the sample are charged against `budget`.
    """
    if not threshold > 0:  # NaN included
        raise ValueError("threshold must be positive")
    if threshold == math.inf:
        raise ValueError("threshold must be finite")
    if reference is None:
        reference = lyapunov_finite(m, E, n, REFERENCE_GRID, kind, budget=budget,
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
    """The large-disorder diagnostics along the orbits of the points
    (x[i], y[i]), steps j = 1..n: Birkhoff sums of log|v_j - E/lam|, the
    diagonal determinant (1/n) sum_j log|lam v_j - E|, the worst
    |v_j - E/lam|, and (1/n) log|f_n|.

    v_j is evaluated at `exact_orbit_phases` for max(1, _BLOCK // n) points
    at a time, so memory stays O(max(_BLOCK, n)).  log|f_n| is
    `cocycle.f_determinants`, read from the kernel's product.
    """
    shift = E / m.lam
    birkhoff, log_det_diag, min_abs = (np.empty(x.size) for _ in range(3))
    chunk = max(1, _BLOCK // n)
    steps = np.arange(1, n + 1)
    for c0 in range(0, x.size, chunk):
        rows = slice(c0, c0 + chunk)
        v = m.v(*exact_orbit_phases(x[rows, None], y[rows, None], steps, m.omega))
        w = np.abs(v - shift)
        birkhoff[rows] = np.log(w).sum(axis=1)
        log_det_diag[rows] = np.log(np.abs(m.lam * v - E)).sum(axis=1)
        min_abs[rows] = w.min(axis=1)
    log_f = f_determinants(m, x, y, E, n)[0]
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
        d = asdict(self)
        if d.pop("deviation") is not None:  # case 2 records carry no deviation
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
    reference: LyapunovEstimate | None = None,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> InitialScaleReport:
    """The large-disorder initial-scale diagnostics, split on the energy
    regime at |E| = 2 lambda ||v||.  Every sweep is charged against `budget`
    before it runs; `reference` is passed on to `deviation_measure`."""
    if m.lam <= 1.0:
        raise ValueError("initial-scale check requires large disorder (lambda > 1)")
    if n < 1:
        raise ValueError("n must be positive")
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
    dev = deviation_measure(m, E, n, S / 20.0, s, kind="unimodular", reference=reference,
                            budget=budget, threads=threads)
    return InitialScaleReport(
        n=n, E=float(E), S=S, log_lambda=log_lam, case=1, samples=x.size,
        birkhoff_mean=float(np.mean(scan["birkhoff"])),
        birkhoff_min=float(np.min(scan["birkhoff"])),
        diag_identity_residual=residual,
        dinv_b_measure=k_dinv / x.size,
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

    def to_json(self) -> dict:
        return {
            "fits": [asdict(f) for f in self.fits],
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
