"""Finite-scale Lyapunov exponents by grid quadrature and Monte Carlo.

The MC sampler is counter-based: sample i is a pure hash of (seed, i), so
streams are bit-reproducible and independent of evaluation order or worker
count.  Grid quadrature is the midpoint rule on a uniform lattice.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

# batched_log_norms is re-exported: callers import and patch it from here
from .cocycle import batched_log_norm_checkpoints, batched_log_norms  # noqa: F401
from .model import JacobiModel
from .torus import exact_orbit_phases

DEFAULT_WORK_BUDGET = 10_000_000_000  # matrix multiplications per job
_CHUNK = 16384  # fixed chunk size keeps reductions independent of threads

KINDS = ("plain", "unimodular", "a_normalized")
_KIND_KEY = {
    "plain": "log_norm",
    "unimodular": "log_norm_u",
    "a_normalized": "log_norm_a",
}


class BudgetError(RuntimeError):
    """A job exceeded the configured work budget."""

    def __init__(self, cost: float, budget: float):
        self.cost = cost
        self.budget = budget
        super().__init__(
            f"estimated cost {cost:.3g} matrix products exceeds budget {budget:.3g}"
        )


def charge(steps: float, sampler: Sampler, budget: float) -> None:
    """Refuse, before any point is generated, a job of `steps` matrix steps
    at each of the sampler's points that exceeds `budget`."""
    cost = float(steps) * sampler.total
    if cost > budget:
        raise BudgetError(cost, budget)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the point
        z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def counter_uniform(seed: int, idx: np.ndarray) -> np.ndarray:
    """Uniform [0,1) deterministically derived from (seed, idx)."""
    idx = np.asarray(idx, dtype=np.uint64)
    z = _splitmix64(_splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) ^ idx)
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


@dataclass(frozen=True)
class Sampler:
    """Torus sampler: uniform midpoint grid or counter-based Monte Carlo."""

    kind: str  # "grid" | "mc"
    gx: int = 0
    gy: int = 0
    count: int = 0
    seed: int = 0

    @classmethod
    def grid(cls, gx: int, gy: int | None = None) -> "Sampler":
        gy = gx if gy is None else gy
        if gx < 1 or gy < 1:
            raise ValueError("grid resolutions must be positive")
        return cls("grid", gx=gx, gy=gy)

    @classmethod
    def monte_carlo(cls, count: int, seed: int) -> "Sampler":
        if count < 1:
            raise ValueError("sample count must be positive")
        return cls("mc", count=count, seed=int(seed))

    @property
    def total(self) -> int:
        return self.gx * self.gy if self.kind == "grid" else self.count

    @property
    def descriptor(self) -> str:
        if self.kind == "grid":
            return f"grid:{self.gx}x{self.gy}"
        return f"mc:{self.count}:seed={self.seed}"

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid's midpoint axes: x of shape (gx, 1), y of shape (1, gy).

        Grid point (i, j) is (x[i], y[j]) and sits at index i * gy + j of
        `points()`, which ravels the broadcast axes (x-major order).
        """
        if self.kind != "grid":
            raise ValueError("only grid samplers have axes")
        xs = (np.arange(self.gx) + 0.5) / self.gx
        ys = (np.arange(self.gy) + 0.5) / self.gy
        return xs[:, None], ys[None, :]

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "grid":
            x, y = np.broadcast_arrays(*self.axes())
            return x.ravel(), y.ravel()
        idx = np.arange(self.count, dtype=np.uint64)
        x = counter_uniform(self.seed, 2 * idx)
        y = counter_uniform(self.seed, 2 * idx + np.uint64(1))
        return x, y


@dataclass(frozen=True)
class LyapunovEstimate:
    n: int
    kind: str
    E: float
    value: float
    std_error: float
    sampler: str
    model_hash: str
    seed: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


def env_threads() -> int | None:
    """The thread count set by SKEWSHIFT_THREADS, or None when it is unset.

    A value that is not an integer raises ValueError.
    """
    env = os.environ.get("SKEWSHIFT_THREADS")
    if not env:
        return None
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"SKEWSHIFT_THREADS must be an integer, got {env!r}") from None


def log_norm_sweep(
    m: JacobiModel,
    E: float,
    scales: list[int],
    sampler: Sampler,
    kinds: tuple[str, ...] = ("plain",),
    shift: int = 0,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> dict[int, dict[str, np.ndarray]]:
    """Per-sample values of (1/n) log||M_n|| at every scale n in `scales`
    and for each normalization in `kinds`, all from one checkpointed sweep.

    The work (points x largest scale) is checked against `budget` before any
    point is generated.  Points are swept in chunks on `threads` worker
    threads (default SKEWSHIFT_THREADS, else 1): MC samples in fixed chunks
    of _CHUNK, grids as whole rows of their axes, so the kernel computes
    what depends on y once per column.  Every value is computed per sample,
    so results do not depend on the chunking or the thread count.  `shift`
    evaluates at T^shift of each sample point (the grid estimate of the
    same integral, by measure preservation), moved by `exact_orbit_phases`.
    """
    if any(kind not in _KIND_KEY for kind in kinds):
        raise ValueError(f"kind must be one of {KINDS}")
    scales = sorted({int(n) for n in scales})
    charge(max(scales, default=0), sampler, budget)
    nthreads = max(1, (env_threads() or 1) if threads is None else threads)
    if sampler.kind == "grid":
        x, y = sampler.axes()
        step = max(1, _CHUNK // sampler.gy)
    else:
        x, y = sampler.points()
        step = _CHUNK
    x, y = exact_orbit_phases(x, y, shift, m.omega) if shift else (x, y)
    chunks = [(i, min(i + step, len(x))) for i in range(0, len(x), step)]

    def run(span):
        lo, hi = span
        # a grid's y is one (1, gy) row that every chunk of x rows shares
        res = batched_log_norm_checkpoints(m, x[lo:hi], y if y.ndim > 1 else y[lo:hi],
                                           E, scales)
        return {(n, kind): res[n][_KIND_KEY[kind]] for n in scales for kind in kinds}

    if nthreads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = [run(span) for span in chunks]
    out = {n: {} for n in scales}
    for n, kind in parts[0]:
        u = np.concatenate([p[n, kind] for p in parts])
        out[n][kind] = u / n if n > 0 else u
    return out


def sample_log_norms(
    m: JacobiModel,
    E: float,
    n: int,
    sampler: Sampler,
    kind: str = "plain",
    threads: int | None = None,
    budget: float = DEFAULT_WORK_BUDGET,
) -> np.ndarray:
    """Per-sample values of (1/n) log||M_n|| for the requested normalization:
    the one-scale view of `log_norm_sweep`."""
    return log_norm_sweep(m, E, [n], sampler, (kind,), budget=budget,
                          threads=threads)[n][kind]


def lyapunov_estimates(
    m: JacobiModel,
    E: float,
    scales: list[int],
    sampler: Sampler,
    kinds: tuple[str, ...] = ("plain",),
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> dict[int, dict[str, LyapunovEstimate]]:
    """Mean of (1/n) log||M_n|| over the sampler at every scale n in
    `scales` and for each normalization in `kinds`, from one sweep.

    std_error is the sample standard deviation over sqrt(count) for MC and 0
    for grid quadrature (grid bias is a convergence question, not noise).
    """
    if min(scales, default=1) < 1:
        raise ValueError("n must be positive")
    u = log_norm_sweep(m, E, scales, sampler, kinds, budget=budget, threads=threads)
    mc = sampler.kind == "mc"

    def estimate(n, kind):
        v = u[n][kind]
        se = float(np.std(v, ddof=1) / math.sqrt(v.size)) if mc and v.size > 1 else 0.0
        return LyapunovEstimate(
            n=n, kind=kind, E=float(E), value=float(np.mean(v)), std_error=se,
            sampler=sampler.descriptor, model_hash=m.model_hash,
            seed=sampler.seed if mc else None,
        )

    return {n: {kind: estimate(n, kind) for kind in kinds} for n in u}


def lyapunov_finite(
    m: JacobiModel,
    E: float,
    n: int,
    sampler: Sampler,
    kind: str = "plain",
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> LyapunovEstimate:
    """Mean of (1/n) log||M_n|| over the sampler: the one-scale view of
    `lyapunov_estimates`."""
    return lyapunov_estimates(m, E, [n], sampler, (kind,), budget=budget,
                              threads=threads)[n][kind]


def lyapunov_profile(
    m: JacobiModel,
    E: float,
    scales: list[int],
    sampler: Sampler,
    kind: str = "plain",
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> tuple[list[LyapunovEstimate], list[float]]:
    """Estimates at each scale, all from one sweep, plus the running
    infimum (the L(E) proxy)."""
    if list(scales) != sorted(scales):
        raise ValueError("scales must be sorted ascending")
    ests = lyapunov_estimates(m, E, scales, sampler, (kind,), budget=budget,
                              threads=threads)
    estimates = [ests[n][kind] for n in scales]
    running: list[float] = []
    best = math.inf
    for est in estimates:
        best = min(best, est.value)
        running.append(best)
    return estimates, running


def lyapunov_all_kinds(
    m: JacobiModel,
    E: float,
    scales: list[int],
    sampler: Sampler,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> dict[int, dict[str, LyapunovEstimate]]:
    """All three normalizations at every scale from a single cocycle sweep."""
    return lyapunov_estimates(m, E, scales, sampler, KINDS, budget=budget,
                              threads=threads)


def almost_invariance_defect(
    m: JacobiModel,
    E: float,
    n: int,
    K: int,
    sampler: Sampler,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> float:
    """sup over sample points of |(1/K) sum_{k=1..K} u_n(T^k p) - u_n(p)|
    with u_n = (1/n) log||M_n^u||.  The empty average (K = 0) is 0.  The
    K + 1 sweeps are charged together against `budget` before the first."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    if K == 0:
        return 0.0
    charge((K + 1) * n, sampler, budget)

    def u(k):
        return log_norm_sweep(m, E, [n], sampler, ("unimodular",), shift=k,
                              budget=budget, threads=threads)[n]["unimodular"]

    base = u(0)
    acc = np.zeros_like(base)
    for k in range(1, K + 1):
        acc += u(k)
    return float(np.max(np.abs(acc / K - base)))


def subadditivity_check(
    m: JacobiModel,
    E: float,
    n: int,
    msteps: int,
    grid: Sampler,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> dict:
    """(n+m) L_{n+m} <= n L_n + m L_m on one matched grid.

    The L_m factor is evaluated at T^n of the grid points, so the inequality
    holds pointwise before averaging (||M_{n+m}(p)|| <= ||M_m(T^n p)||
    ||M_n(p)||) and the comparison is exact up to rounding.  L_n and
    L_{n+m} come from one sweep; both sweeps are charged together against
    `budget` before the first.
    """
    charge(n + 2 * msteps, grid, budget)
    u = log_norm_sweep(m, E, [n, n + msteps], grid, budget=budget, threads=threads)
    u_full, u_n = u[n + msteps]["plain"], u[n]["plain"]
    u_m = log_norm_sweep(m, E, [msteps], grid, shift=n, budget=budget,
                         threads=threads)[msteps]["plain"]
    lhs = (n + msteps) * float(np.mean(u_full))
    rhs = n * float(np.mean(u_n)) + msteps * float(np.mean(u_m))
    return {
        "n": n, "m": msteps,
        "lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
        "L_n": float(np.mean(u_n)),
        "L_m_shifted": float(np.mean(u_m)),
        "L_sum": float(np.mean(u_full)),
    }
