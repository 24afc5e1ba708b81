#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Every check in checks.py must pass on the program's real output and fail on
a deliberately perturbed one (a shifted energy or lambda, an edited archive
file, a wrong interval), so that none passes vacuously.  Also confirms that
run.py refuses to run, with a nonzero exit and no result line, in a
directory that holds only the benchmark.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, real: list[str], perturbed: list[str]) -> None:
    ok = not real and bool(perturbed)
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)
        print(f"     on real output: {real[:2]}\n     on perturbed output: {perturbed[:2]}")


def _edit_json_lines(path: str, edit) -> None:
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    edit(recs)
    with open(path, "w") as fh:
        for rec in recs:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def archive_checks(ss, tmp: str) -> None:
    w = run.PipelineDefault()
    w.setup(ss, 0, tmp)
    w.prepare()
    out, problems = w.run_pass(None, run.OpTimer())
    assert not problems, problems
    m = w.m

    def copy(tag):
        dst = os.path.join(tmp, tag)
        shutil.copytree(out, dst)
        return dst

    bad = copy("edited")
    with open(os.path.join(bad, "records", "lyapunov.jsonl"), "a") as fh:
        fh.write("\n")
    expect("MANIFEST hashes", checks.manifest_ok(out), checks.manifest_ok(bad))
    expect("archive byte identity", checks.archives_identical(out, copy("same")),
           checks.archives_identical(out, bad))

    shifted = ss.model.model_to_dict(m)
    shifted["lambda"] *= 2.0
    m2 = ss.model.model_from_dict(shifted)
    expect("continuity Lipschitz bound (shifted lambda)",
           checks.continuity_ok(out, m.lipschitz_base),
           checks.continuity_ok(out, m2.lipschitz_base))

    bad = copy("wilson")
    _edit_json_lines(os.path.join(bad, "records", "deviation.jsonl"),
                     lambda recs: recs[0].update(measure=recs[0]["measure"] + 0.3))
    expect("Wilson intervals", checks.wilson_ok(out), checks.wilson_ok(bad))

    expect("L_u >= log(lambda)/4 (shifted lambda)", checks.lu_lower_ok(out, m.lam),
           checks.lu_lower_ok(out, m.lam ** 8))
    tol = 5.0 * run._sd_log_a(m) / math.sqrt(w.cfg["mc_samples"])
    expect("L_a - L_u = mean log|a|", checks.la_minus_lu_ok(out, m.log_avg_a, tol),
           checks.la_minus_lu_ok(out, m.log_avg_a + 2 * tol, tol))

    L16 = checks.induction_values(out)[0]["L_n_u"]["value"]
    g = w.cfg["grid"]
    R2 = reference.ExactModel(dict(reference.THEOREM_MODEL, **{"lambda": 1.001e6}))
    expect("induction L_16^u vs reference (shifted lambda)",
           checks.close_rel(L16, w.ref[16], 1e-9, "L16"),
           checks.close_rel(L16, reference.grid_mean(R2, g, g, 0.0, 16), 1e-9, "L16"))
    expect("pipeline pass as a whole", w.check_pass((out, []))[0].problems,
           w.check_pass((bad, []))[0].problems)


def energy_checks(ss) -> None:
    m = ss.model.default_theorem_model()
    s = ss.lyapunov.Sampler.grid(16, 16)
    scales = [8, 16]
    E = 0.4 * m.lam

    def prof(energy):
        ests, running = ss.lyapunov.lyapunov_profile(m, energy, scales, s,
                                                     kind="unimodular")
        return [e.value for e in ests], running

    pos, running = prof(E)
    neg, _ = prof(-E)
    near, _ = prof(-E * (1 + 1e-6))
    expect("L(E) = L(-E) (shifted energy)", checks.symmetric_ok(pos, neg, E),
           checks.symmetric_ok(pos, near, E))
    odd = ss.lyapunov.Sampler.grid(15, 16)
    odd_neg = [e.value for e in ss.lyapunov.lyapunov_profile(
        m, -E, scales, odd, kind="unimodular")[0]]
    odd_pos = [e.value for e in ss.lyapunov.lyapunov_profile(
        m, E, scales, odd, kind="unimodular")[0]]
    expect("L(E) = L(-E) (odd x-grid breaks the symmetry)",
           checks.symmetric_ok(pos, neg, E), checks.symmetric_ok(odd_pos, odd_neg, E))
    expect("running infimum", checks.running_inf_ok(pos, running, "p"),
           checks.running_inf_ok(pos, [running[0] + 1.0] + running[1:], "p"))
    big = 1.2 * 2.0 * m.lam * m.sup_norm_v
    vals, _ = prof(big)
    expect("uniform regime |L - log|E|| bound (energy scaled down)",
           checks.uniform_regime_ok(vals, big), checks.uniform_regime_ok(vals, big * 1e-5))
    R = reference.ExactModel(reference.THEOREM_MODEL)
    ref = reference.grid_mean(R, 16, 16, E, 8)
    ref_shifted = reference.grid_mean(R, 16, 16, E * (1 + 1e-6), 8)
    expect("L_8 vs reference (shifted energy)", checks.close_rel(pos[0], ref, 1e-9, "L8"),
           checks.close_rel(pos[0], ref_shifted, 1e-9, "L8"))


def long_orbit_checks(ss) -> None:
    m = ss.model.default_theorem_model()
    cocycle = ss.cocycle
    p = ss.torus.TorusPoint(0.31, 0.17)
    n = 2000
    R = reference.ExactModel(reference.THEOREM_MODEL)
    R2 = reference.ExactModel(dict(reference.THEOREM_MODEL, **{"lambda": 1e6 * (1 + 1e-6)}))
    ref = reference.log_norms(R, p.x, p.y, 0.0, [n, n + 1])
    ref2 = reference.log_norms(R2, p.x, p.y, 0.0, [n])[n]
    c = cocycle.fundamental_matrix(m, p, 0.0, n)
    expect("scalar vs reference (shifted lambda)",
           checks.close_rel(c.log_norm, ref[n]["log_norm"], 1e-9, "scalar"),
           checks.close_rel(c.log_norm, ref2["log_norm"], 1e-9, "scalar"))
    expect("det M_n = a_1/a_(n+1) (a taken one step late)",
           checks.close_abs(c.log_det, ref[n]["log_a1"] - ref[n]["log_an1"], 1e-9, "det"),
           checks.close_abs(c.log_det, ref[n]["log_a1"] - ref[n + 1]["log_an1"], 1e-9, "det"))
    E = 1e3
    f = cocycle.fundamental_matrix_via_f(m, p, E, n)
    expect("via_f vs fundamental_matrix (sign-flipped energy)",
           checks.close_rel(f.log_norm, cocycle.fundamental_matrix(m, p, E, n).log_norm,
                            1e-8, "via_f"),
           checks.close_rel(f.log_norm, cocycle.fundamental_matrix(m, p, -E, n).log_norm,
                            1e-8, "via_f"))
    b = cocycle.batched_log_norms(m, np.array([p.x]), np.array([p.y]), 0.0, n)
    expect("batched vs reference (shifted lambda)",
           checks.close_rel(float(b["log_norm"][0]), ref[n]["log_norm"], 1e-9, "batched"),
           checks.close_rel(float(b["log_norm"][0]), ref2["log_norm"], 1e-9, "batched"))
    rep = ss.avalanche.avalanche_on_cocycle(m, p, 0.0, 64, 16)
    expect("avalanche hypotheses (gamma raised past the block norms)",
           checks.avalanche_ok(rep, 16),
           checks.avalanche_ok(ss.avalanche.avalanche_on_cocycle(m, p, 0.0, 64, 16,
                                                                  gamma=5.0), 16))
    expect("avalanche lhs at rounding level",
           checks.avalanche_ok(rep, 16),
           checks.avalanche_ok(dataclasses.replace(rep, lhs=rep.lhs + 1e-6), 16))


def bare_directory_refusal(tmp: str) -> None:
    """run.py must exit nonzero, printing no result, without the program."""
    bare = os.path.join(tmp, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    res = subprocess.run([sys.executable, os.path.join(os.path.basename(run.HERE), "run.py"),
                          "--workload", "long_orbit", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True, text=True,
                         timeout=180)
    ok = res.returncode != 0 and '"correct"' not in res.stdout
    print(f"{'ok  ' if ok else 'FAIL'} refuses to run without the program "
          f"(exit {res.returncode})")
    if not ok:
        FAILURES.append("bare directory")


def main() -> int:
    ss = run.load_program()
    os.makedirs(run.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        archive_checks(ss, tmp)
        energy_checks(ss)
        long_orbit_checks(ss)
        bare_directory_refusal(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failing" if FAILURES else "all checks have teeth")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
