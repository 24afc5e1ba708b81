"""Multiscale induction verifier, scale scheduler, and continuity probe.

The induction step takes Lyapunov estimates at scales (n, 2n) plus two
large-deviation measurements and checks the hypotheses and conclusions of
the inductive lemma numerically, fitting the smallest constant that makes
the conclusions hold.  The scheduler computes the admissible scale ranges
of the two bootstrap stages and their overlap.  The continuity probe
measures |L_N(E) - L_N(E')| against the hard finite-scale Lipschitz bound
and a log-Hoelder fit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .deviation import (
    REFERENCE_GRID,
    DeviationReport,
    deviation_measure,
    initial_scale_check,
)
from .lyapunov import (  # noqa: F401 (lyapunov_finite, sample_log_norms re-exported)
    DEFAULT_WORK_BUDGET,
    LyapunovEstimate,
    Sampler,
    lyapunov_all_kinds,
    lyapunov_estimates,
    lyapunov_finite,
    sample_log_norms,
)
from .model import JacobiModel, model_to_dict
from .torus import diophantine_check

DEFAULT_C0 = 20.0
LDT_PROXY_BOUND = 0.05  # sampled stand-in for the paper's N^{-10}


class EstimatorNoiseError(RuntimeError):
    """Estimator noise too large to decide a hypothesis."""


class RunStageError(RuntimeError):
    """A pipeline stage refused; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage '{stage}' refused: {cause}")


@dataclass(frozen=True)
class ScaleSchedule:
    n0: int
    sigma: float
    threshold_ok: bool  # 9 n0 >= 20 log(2 n0^5)
    ranges: list[tuple[float, float]]
    overlap_ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def scale_schedule(n0: int, sigma: float) -> ScaleSchedule:
    """Stage ranges (n0^2, n0^5) and (n0^4, exp(n0^{5 sigma}/10)), the
    arithmetic admissibility threshold, and the overlap comparison."""
    if not 0.0 < sigma < 1.0 / 24.0:
        raise ValueError("sigma must lie in (0, 1/24)")
    if n0 < 2:
        raise ValueError("n0 must be >= 2")
    threshold_ok = 9.0 * n0 >= 20.0 * math.log(2.0 * n0 ** 5)
    try:
        stage2_hi = math.exp(n0 ** (5.0 * sigma) / 10.0)
    except OverflowError:
        stage2_hi = math.inf
    ranges = [(float(n0 ** 2), float(n0 ** 5)), (float(n0 ** 4), stage2_hi)]
    overlap_ok = float(n0 ** 4) <= stage2_hi
    return ScaleSchedule(n0=n0, sigma=sigma, threshold_ok=threshold_ok,
                         ranges=ranges, overlap_ok=overlap_ok)


@dataclass(frozen=True)
class InductionRecord:
    n: int
    N: int
    gamma: float
    S: float
    L_n_u: LyapunovEstimate
    L_2n_u: LyapunovEstimate
    L_N_u: LyapunovEstimate
    L_2N_u: LyapunovEstimate
    hyp_ldt_n: DeviationReport
    hyp_ldt_2n: DeviationReport
    ldt_paper_bound: float
    ldt_proxy_bound: float
    hyp_ldt_n_ok: bool
    hyp_ldt_2n_ok: bool
    hyp_min_L: bool
    hyp_gap: bool
    hyp_arith: bool
    C0: float
    concl_lower: float  # >= 0 means the lower conclusion holds at C0
    concl_gap: float    # >= 0 means the gap conclusion holds at C0
    C0_fit: float

    @property
    def hypotheses_ok(self) -> bool:
        return (self.hyp_ldt_n_ok and self.hyp_ldt_2n_ok and self.hyp_min_L
                and self.hyp_gap and self.hyp_arith)

    def to_json(self) -> dict:
        return {**asdict(self), "hyp_ldt_n": self.hyp_ldt_n.to_json(),
                "hyp_ldt_2n": self.hyp_ldt_2n.to_json()}


def arithmetic_hypothesis(gamma: float, S: float, n: int, N: int) -> bool:
    """9 gamma n S >= 10 log(2N) and n^2 <= N, exact arithmetic."""
    return 9.0 * gamma * n * S >= 10.0 * math.log(2.0 * N) and n * n <= N


def induction_steps(
    m: JacobiModel,
    E: float,
    pairs: list[tuple[int, int]],
    gamma: float,
    sampler: Sampler,
    deviation_sampler: Sampler | None = None,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> list[InductionRecord]:
    """Induction steps for several (n, N) pairs at one energy: estimate
    every pair's four Lyapunov scales n, 2n, N, 2N from one sweep (to the
    largest 2N), measure the two deviation hypotheses once per distinct
    scale, check every hypothesis, and fit the smallest constant making
    both conclusions hold at DEFAULT_C0.  One record per pair, in order.

    Every pair is validated before the sweep, which is charged against
    `budget` as one job.  The paper-level deviation bound N^{-10} is
    unreachable by sampling; the hypothesis booleans compare the Wilson
    upper bound against LDT_PROXY_BOUND instead, and both numbers are
    recorded.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")
    pairs = [(int(n), int(N)) for n, N in pairs]
    for n, N in pairs:
        if n < 2:
            raise ValueError("n must be >= 2")
        if N < n * n:
            raise ValueError("N must be >= n^2")
    S = m.scaling_factor(E)
    dev_s = deviation_sampler or sampler
    scales = {k for n, N in pairs for k in (n, 2 * n, N, 2 * N)}
    sweep = lyapunov_estimates(m, E, sorted(scales), sampler, ("unimodular",),
                               budget=budget, threads=threads)
    ests = {scale: by_kind["unimodular"] for scale, by_kind in sweep.items()}
    noise = max(e.std_error for e in ests.values())
    if noise > gamma * S / 100.0:
        raise EstimatorNoiseError(
            f"std_error {noise:.3g} exceeds gamma*S/100 = {gamma * S / 100:.3g}"
        )
    thr = S * gamma / 10.0
    devs = {
        k: deviation_measure(m, E, k, thr, dev_s, kind="unimodular",
                             reference=ests[k] if sampler.kind == "grid" else None,
                             budget=budget, threads=threads)
        for k in sorted({k for n, _ in pairs for k in (n, 2 * n)})
    }
    records = []
    for n, N in pairs:
        dev_n, dev_2n = devs[n], devs[2 * n]
        L_n, L_2n = ests[n].value, ests[2 * n].value
        L_N, L_2N = ests[N].value, ests[2 * N].value
        gap_small = L_n - L_2n
        concl_lower = L_N - (gamma * S - 2.0 * gap_small - DEFAULT_C0 * S * n / N)
        concl_gap = DEFAULT_C0 * S * n / N - (L_N - L_2N)
        c1 = (gamma * S - 2.0 * gap_small - L_N) * N / (S * n)
        c2 = (L_N - L_2N) * N / (S * n)
        records.append(InductionRecord(
            n=n, N=N, gamma=gamma, S=S,
            L_n_u=ests[n], L_2n_u=ests[2 * n], L_N_u=ests[N], L_2N_u=ests[2 * N],
            hyp_ldt_n=dev_n, hyp_ldt_2n=dev_2n,
            ldt_paper_bound=float(N) ** -10,
            ldt_proxy_bound=LDT_PROXY_BOUND,
            hyp_ldt_n_ok=dev_n.wilson[1] <= LDT_PROXY_BOUND,
            hyp_ldt_2n_ok=dev_2n.wilson[1] <= LDT_PROXY_BOUND,
            hyp_min_L=min(L_n, L_2n) >= gamma * S,
            hyp_gap=gap_small <= gamma * S / 40.0,
            hyp_arith=arithmetic_hypothesis(gamma, S, n, N),
            C0=DEFAULT_C0, concl_lower=concl_lower, concl_gap=concl_gap,
            C0_fit=max(0.0, c1, c2),
        ))
    return records


def induction_step(
    m: JacobiModel,
    E: float,
    n: int,
    N: int,
    gamma: float,
    sampler: Sampler,
    deviation_sampler: Sampler | None = None,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> InductionRecord:
    """One induction step (four Lyapunov scales from one sweep to 2N): the
    one-pair view of `induction_steps`."""
    return induction_steps(m, E, [(n, N)], gamma, sampler, deviation_sampler,
                           budget=budget, threads=threads)[0]


@dataclass(frozen=True)
class ContinuityRow:
    delta: float
    dL: float
    lipschitz_log_bound: float
    hard_ok: bool
    dL_proxy: float


@dataclass(frozen=True)
class ContinuityProbe:
    E_center: float
    N: int
    rows: list[ContinuityRow]
    loghoelder_C: float | None
    loghoelder_c: float | None
    loghoelder_residual: float | None
    sigma: float

    def to_json(self) -> dict:
        return asdict(self)


def continuity_probe(
    m: JacobiModel,
    E_center: float,
    deltas: list[float],
    N: int,
    s: Sampler,
    sigma: float = 1.0 / 25.0,
    budget: float = DEFAULT_WORK_BUDGET,
    threads: int | None = None,
) -> ContinuityProbe:
    """|L_N(E) - L_N(E +/- delta)| on matched samplers.

    The finite-scale bound |dL| <= base^N * delta (base dominating every
    one-step factor norm) is a pointwise algebraic consequence on matched
    samples and is asserted via `hard_ok`.  The log-Hoelder form is fitted
    against the running-infimum proxy of L over the scales N/4, N/2 and N
    and reported, not asserted.  Each energy takes one sweep covering them.
    """
    if not all(0 < d < math.inf for d in deltas):
        raise ValueError("deltas must be finite and positive")
    if sorted(deltas, reverse=True) != list(deltas):
        raise ValueError("deltas must be descending")
    scales = sorted({max(2, N // 4), max(3, N // 2), N})
    log_base = math.log(m.lipschitz_base)

    def estimate(E):  # (the L_N estimate, the proxy) at energy E
        ests = lyapunov_estimates(m, E, [N, *scales], s, ("unimodular",),
                                  budget=budget, threads=threads)
        return ests[N]["unimodular"], min(ests[n]["unimodular"].value for n in scales)

    center, proxy_center = estimate(E_center)
    if s.kind == "mc" and center.std_error > min(deltas) * math.exp(
            min(N * log_base, 700.0)):
        raise EstimatorNoiseError(
            "estimator noise exceeds the smallest measured difference"
        )
    rows = []
    pts = []
    for d in deltas:
        est, proxy_d = estimate(E_center + d)
        dL = abs(est.value - center.value)
        dproxy = abs(proxy_d - proxy_center)
        log_bound = N * log_base + math.log(d)
        hard_ok = dL == 0.0 or math.log(dL) <= log_bound + 1e-8
        rows.append(ContinuityRow(float(d), dL, log_bound, hard_ok, dproxy))
        if dproxy > 0:
            pts.append((d, dproxy))
    C_fit = c_fit = resid = None
    if len(pts) >= 2:
        g = np.array([(math.log(1.0 / d)) ** sigma for d, _ in pts])
        ld = np.array([math.log(v) for _, v in pts])
        A = np.vstack([-g, np.ones_like(g)]).T
        (c_coef, logC), *_ = np.linalg.lstsq(A, ld, rcond=None)
        r = ld - A @ np.array([c_coef, logC])
        C_fit, c_fit = float(math.exp(logC)), float(c_coef)
        resid = float(np.sqrt(np.mean(r ** 2)))
    return ContinuityProbe(
        E_center=float(E_center), N=N, rows=rows,
        loghoelder_C=C_fit, loghoelder_c=c_fit, loghoelder_residual=resid,
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# theorem-mode pipeline


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def resolve_config(config: dict) -> dict:
    """Fill in pipeline defaults; the resolved config is archived verbatim.

    A known key whose value is not of its default's JSON type raises
    ValueError naming it: finite numbers (not bools) or lists of them,
    `induction_pairs` null or [n, N] pairs, `model_path` and `output_dir`
    strings.  Nothing is coerced.
    """
    if not isinstance(config, dict):
        raise ValueError(f"the run config must be a JSON object, got {type(config).__name__}")
    cfg = {
        "n0": 16,
        "sigma": 1.0 / 25.0,
        "gamma": 0.5,
        "seed": 7,
        "mc_samples": 1000,
        "grid": 64,
        "E_grid": [0.0],
        "scales": [8, 16, 32, 64],
        "deviation_scales": [16, 32],
        "deviation_tau": 0.25,
        "induction_pairs": None,  # default derived from n0
        "continuity_deltas": [1e-2, 1e-4, 1e-6, 1e-8],
        "continuity_N": 8,
        "diophantine_nmax": 10_000,
        "work_budget": DEFAULT_WORK_BUDGET,
    }

    def numbers(v, size=None):
        return isinstance(v, list) and all(map(_finite, v)) and size in (None, len(v))

    for key, value in config.items():
        if key in ("model_path", "output_dir"):
            ok = isinstance(value, str)
        elif key == "induction_pairs":
            ok = value is None or isinstance(value, list) and all(numbers(p, 2) for p in value)
        else:
            ok = key not in cfg or (numbers if isinstance(cfg[key], list) else _finite)(value)
        if not ok:
            raise ValueError(f"config key {key!r} has the wrong JSON type: {value!r}")
    cfg.update(config)
    if cfg["induction_pairs"] is None:
        n0 = cfg["n0"]
        cfg["induction_pairs"] = [[n0, n0 * n0], [n0, 2 * n0 * n0]]
    return cfg


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dump_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _dump_csv(rows, header, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def theorem_mode_run(m: JacobiModel, config: dict, output_dir: str,
                     threads: int | None = None) -> dict:
    """Run the full pipeline and emit a self-contained archive directory.

    Layout: config.json, model.json, records/*.jsonl, tables/*.csv, and a
    MANIFEST with content hashes (the MANIFEST timestamp is excluded from
    the hashes, so replays from the same config and seed are byte-identical
    everywhere else).
    """
    cfg = resolve_config(config)
    if not m.theorem_mode:
        raise RunStageError("admission", ValueError("model is not in theorem mode"))
    E_grid = [float(E) for E in cfg["E_grid"]]
    if not E_grid or any(abs(E) > m.energy_bound for E in E_grid):
        raise RunStageError("admission", ValueError(
            "E grid must be nonempty and within the energy bound"))

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - stage name must propagate
            raise RunStageError(name, exc) from exc

    # frequency admission, refused before any archive directory is made
    freq_rec = stage("diophantine", lambda: dict(zip(
        ("passes", "worst_n", "worst_margin"),
        diophantine_check(m.frequency, cfg["diophantine_nmax"]),
    )))
    if not freq_rec["passes"]:
        raise RunStageError("admission", ValueError(
            f"frequency fails the Diophantine scan at n={freq_rec['worst_n']}"))
    os.makedirs(output_dir, exist_ok=True)
    os.makedirs(os.path.join(output_dir, "records"), exist_ok=True)
    os.makedirs(os.path.join(output_dir, "tables"), exist_ok=True)
    budget = cfg["work_budget"]
    seed = cfg["seed"]
    mc = Sampler.monte_carlo(cfg["mc_samples"], seed)
    grid = Sampler.grid(cfg["grid"])
    _dump_json({"diophantine": freq_rec, "schedule":
                scale_schedule(cfg["n0"], cfg["sigma"]).to_json()},
               os.path.join(output_dir, "records", "admission.json"))

    # Lyapunov profiles, all three normalizations per scale
    lyap_records = []
    lyap_rows = []
    for E in E_grid:
        by_scale = stage("lyapunov", lambda E=E: lyapunov_all_kinds(
            m, E, cfg["scales"], mc, budget=budget, threads=threads))
        best = math.inf
        for n in cfg["scales"]:
            ests = by_scale[n]
            best = min(best, ests["unimodular"].value)
            for kind, est in sorted(ests.items()):
                rec = est.to_json()
                rec["running_inf_u"] = best
                lyap_records.append(rec)
            lyap_rows.append([E, n, ests["plain"].value,
                              ests["unimodular"].value,
                              ests["a_normalized"].value, best])
    _dump_jsonl(lyap_records, os.path.join(output_dir, "records", "lyapunov.jsonl"))
    _dump_csv(lyap_rows, ["E", "n", "L_plain", "L_u", "L_a", "running_inf_u"],
              os.path.join(output_dir, "tables", "lyapunov.csv"))

    # one sweep of the reference grid per energy serves every deviation scale and n0
    refs = {E: stage("deviation", lambda E=E: lyapunov_estimates(
        m, E, [*cfg["deviation_scales"], cfg["n0"]], REFERENCE_GRID,
        ("plain", "unimodular"), budget=budget, threads=threads)) for E in E_grid}

    # initial-scale diagnostics
    init_records = []
    for E in E_grid:
        rep = stage("initial_scale", lambda E=E: initial_scale_check(
            m, E, cfg["n0"], mc, reference=refs[E][cfg["n0"]]["unimodular"],
            budget=budget, threads=threads))
        init_records.append(rep.to_json())
    _dump_jsonl(init_records, os.path.join(output_dir, "records", "initial_scale.jsonl"))

    # induction steps
    ind_records = []
    for E in E_grid:
        recs = stage("induction", lambda E=E: induction_steps(
            m, E, cfg["induction_pairs"], cfg["gamma"], grid,
            deviation_sampler=mc, budget=budget, threads=threads))
        ind_records.extend(rec.to_json() for rec in recs)
    _dump_jsonl(ind_records, os.path.join(output_dir, "records", "induction.jsonl"))

    # deviation trend
    dev_records = []
    dev_rows = []
    for E in E_grid:
        S = m.scaling_factor(E)
        for n in cfg["deviation_scales"]:
            thr = S * float(n) ** (-cfg["deviation_tau"])
            rep = stage("deviation", lambda n=n, E=E, thr=thr: deviation_measure(
                m, E, n, thr, mc, kind="plain", reference=refs[E][n]["plain"],
                budget=budget, threads=threads))
            dev_records.append(rep.to_json())
            dev_rows.append([n, E, thr, rep.empirical_measure,
                             rep.wilson[0], rep.wilson[1], rep.samples, seed])
    _dump_jsonl(dev_records, os.path.join(output_dir, "records", "deviation.jsonl"))
    _dump_csv(dev_rows,
              ["n", "E", "threshold", "measure", "ci_lo", "ci_hi", "samples", "seed"],
              os.path.join(output_dir, "tables", "deviation.csv"))

    # continuity probe at the first grid energy
    cont = stage("continuity", lambda: continuity_probe(
        m, E_grid[0], cfg["continuity_deltas"], cfg["continuity_N"], grid,
        sigma=cfg["sigma"], budget=budget, threads=threads))
    _dump_jsonl([cont.to_json()], os.path.join(output_dir, "records", "continuity.jsonl"))
    _dump_csv([[r.delta, r.dL, r.lipschitz_log_bound, int(r.hard_ok), r.dL_proxy]
               for r in cont.rows],
              ["delta", "dL", "lipschitz_log_bound", "hard_ok", "dL_proxy"],
              os.path.join(output_dir, "tables", "continuity.csv"))

    _dump_json(cfg, os.path.join(output_dir, "config.json"))
    _dump_json(model_to_dict(m), os.path.join(output_dir, "model.json"))
    manifest = write_manifest(output_dir)
    return manifest


def write_manifest(output_dir: str) -> dict:
    """Hash every archive file (except the MANIFEST itself) into MANIFEST."""
    hashes = {}
    for root, _dirs, files in os.walk(output_dir):
        for name in sorted(files):
            if name == "MANIFEST":
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, output_dir)
            with open(path, "rb") as fh:
                hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "files": dict(sorted(hashes.items())),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    _dump_json(manifest, os.path.join(output_dir, "MANIFEST"))
    return manifest
