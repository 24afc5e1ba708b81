"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means it passed.  The
checks test properties the method must have (determinant identities,
symmetries, bounds the archive claims) or compare against the exact-phase
reference in ``reference.py``, never against a stored copy of earlier
output.  ``selftest.py`` shows that each one fails on a perturbed output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

EPS = 2.0 ** -52
CASE2_BOUND = 8.0 + 2.0 * math.log(2.0)


def close_rel(got: float, want: float, rel: float, what: str) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= rel * abs(want)):
        return [f"{what}: {got!r} vs {want!r} (rel tol {rel:g})"]
    return []


def close_abs(got: float, want: float, tol: float, what: str) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{what}: {got!r} vs {want!r} (abs tol {tol:g})"]
    return []


# --- archive (pipeline_default) ---------------------------------------------

def _read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _archive_files(archive: str) -> dict[str, bytes]:
    files = {}
    for root, _dirs, names in os.walk(archive):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, archive)] = fh.read()
    return files


def manifest_ok(archive: str) -> list[str]:
    """MANIFEST lists every other file with its sha256."""
    files = _archive_files(archive)
    if "MANIFEST" not in files:
        return ["archive has no MANIFEST"]
    listed = json.loads(files.pop("MANIFEST"))["files"]
    problems = []
    if sorted(listed) != sorted(files):
        problems.append(f"MANIFEST lists {sorted(listed)}, archive has {sorted(files)}")
    for rel, digest in listed.items():
        if rel in files and hashlib.sha256(files[rel]).hexdigest() != digest:
            problems.append(f"MANIFEST hash mismatch for {rel}")
    return problems


def archives_identical(a: str, b: str) -> list[str]:
    """Byte identity of two archives, the MANIFEST timestamp excluded."""
    fa, fb = _archive_files(a), _archive_files(b)
    problems = []
    if sorted(fa) != sorted(fb):
        return [f"file sets differ: {sorted(set(fa) ^ set(fb))}"]
    for rel in sorted(fa):
        if rel == "MANIFEST":
            same = json.loads(fa[rel])["files"] == json.loads(fb[rel])["files"]
        else:
            same = fa[rel] == fb[rel]
        if not same:
            problems.append(f"{rel} differs")
    return problems


def continuity_ok(archive: str, lipschitz_base: float) -> list[str]:
    """|dL| <= lipschitz_base^N * delta for every row, bound recomputed."""
    problems = []
    for rec in _read_jsonl(os.path.join(archive, "records", "continuity.jsonl")):
        N = rec["N"]
        for row in rec["rows"]:
            bound = N * math.log(lipschitz_base) + math.log(row["delta"])
            problems += close_abs(row["lipschitz_log_bound"], bound, 1e-9 * abs(bound),
                                  f"continuity bound at delta={row['delta']}")
            dL = row["dL"]
            if dL != 0.0 and not math.log(dL) <= bound + 1e-8:
                problems.append(f"|dL|={dL!r} above the Lipschitz bound at delta={row['delta']}")
            if not row["hard_ok"]:
                problems.append(f"archive reports hard_ok false at delta={row['delta']}")
    return problems


def wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for k successes out of n."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def _deviation_records(archive: str) -> list[dict]:
    recs = list(_read_jsonl(os.path.join(archive, "records", "deviation.jsonl")))
    for rec in _read_jsonl(os.path.join(archive, "records", "induction.jsonl")):
        recs += [rec["hyp_ldt_n"], rec["hyp_ldt_2n"]]
    for rec in _read_jsonl(os.path.join(archive, "records", "initial_scale.jsonl")):
        if rec.get("deviation"):
            recs.append(rec["deviation"])
    return recs


def wilson_ok(archive: str) -> list[str]:
    """Each recorded Wilson interval, recomputed, matches and contains its measure."""
    problems = []
    recs = _deviation_records(archive)
    if not recs:
        return ["archive holds no deviation measures"]
    for rec in recs:
        n = rec["samples"]
        k = round(rec["measure"] * n)
        lo, hi = wilson(k, n)
        where = f"deviation n={rec['n']} E={rec['E']}"
        problems += close_abs(rec["ci_lo"], lo, 1e-12, where + " ci_lo")
        problems += close_abs(rec["ci_hi"], hi, 1e-12, where + " ci_hi")
        if not lo <= rec["measure"] <= hi:
            problems.append(f"{where}: measure {rec['measure']} outside [{lo}, {hi}]")
    return problems


def _unimodular_values(archive: str) -> list[tuple[str, float]]:
    vals = [(f"lyapunov n={r['n']} E={r['E']}", r["value"])
            for r in _read_jsonl(os.path.join(archive, "records", "lyapunov.jsonl"))
            if r["kind"] == "unimodular"]
    for rec in _read_jsonl(os.path.join(archive, "records", "induction.jsonl")):
        for key in ("L_n_u", "L_2n_u", "L_N_u", "L_2N_u"):
            vals.append((f"induction ({rec['n']},{rec['N']}) {key}", rec[key]["value"]))
    return vals


def lu_lower_ok(archive: str, lam: float) -> list[str]:
    """Large-disorder lower bound L_u >= (1/4) log lambda."""
    floor = 0.25 * math.log(lam)
    vals = _unimodular_values(archive)
    if not vals:
        return ["archive holds no unimodular estimates"]
    return [f"{where}: L_u={v!r} below (1/4) log lambda={floor!r}"
            for where, v in vals if not v >= floor]


def la_minus_lu_ok(archive: str, log_avg_a: float, tol: float) -> list[str]:
    """L_a - L_u is the orbit average of log|a|, so it matches the mean of
    log|a| within the Monte Carlo error `tol`."""
    rows = _read_csv(os.path.join(archive, "tables", "lyapunov.csv"))
    if not rows:
        return ["lyapunov table is empty"]
    problems = []
    for row in rows:
        diff = float(row["L_a"]) - float(row["L_u"])
        problems += close_abs(diff, log_avg_a, tol, f"L_a - L_u at n={row['n']} E={row['E']}")
    return problems


def induction_values(archive: str) -> list[dict]:
    return _read_jsonl(os.path.join(archive, "records", "induction.jsonl"))


# --- energy_scan -------------------------------------------------------------

def running_inf_ok(values: list[float], running: list[float], what: str) -> list[str]:
    want = [min(values[: i + 1]) for i in range(len(values))]
    return [] if running == want else [f"{what}: running infimum {running} != {want}"]


def symmetric_ok(values_pos: list[float], values_neg: list[float], E: float,
                 rel: float = 1e-9) -> list[str]:
    """L_n(E) = L_n(-E) on an even x-grid (x -> x + 1/2 maps v to -v)."""
    problems = []
    for i, (p, q) in enumerate(zip(values_pos, values_neg)):
        problems += close_rel(q, p, rel, f"L(E) vs L(-E) at E={E!r}, scale #{i}")
    return problems


def uniform_regime_ok(values: list[float], E: float) -> list[str]:
    """|L_n - log|E|| <= 8 + 2 log 2 in the uniform regime |E| > 2 lambda ||v||."""
    return [f"|L - log|E||={abs(v - math.log(abs(E)))!r} at E={E!r}, scale #{i}"
            for i, v in enumerate(values) if not abs(v - math.log(abs(E))) <= CASE2_BOUND]


# --- long_orbit --------------------------------------------------------------

def avalanche_ok(rep, blocks: int) -> list[str]:
    """Hypotheses hold, and the conclusion combination is at rounding level
    (its exact value is below C n / mu = C n exp(-log mu), far under eps)."""
    problems = []
    if not (rep.hyp_det and rep.hyp_norm and rep.hyp_cancel):
        problems.append(f"avalanche hypotheses fail: det={rep.hyp_det} "
                        f"norm={rep.hyp_norm} cancel={rep.hyp_cancel}")
    scale = abs(rep.log_norm_product) + abs(rep.sum_log_middle) + abs(rep.sum_log_pairwise)
    if not rep.lhs <= blocks * EPS * scale:
        problems.append(f"avalanche lhs {rep.lhs!r} above rounding level "
                        f"{blocks * EPS * scale!r}")
    return problems
