#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the skewshift package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see README.md): pipeline_default, energy_scan,
long_orbit.  A run sets up ``SETUP_REPEATS`` times (import in a fresh
interpreter, model admission, input generation) and reports the median,
computes the exact-phase references, then repeats whole passes of the
workload until S seconds of passes have run.  Every pass is checked.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
MEDIAN_MIN = 5  # fewer timings of one kind of operation are averaged

sys.path.insert(0, HERE)
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

MODULES = ("torus", "model", "cocycle", "lyapunov", "deviation", "avalanche",
           "multiscale", "cli")


def load_program() -> types.SimpleNamespace:
    """Import skewshift from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "skewshift", "__init__.py")):
        raise SystemExit(f"run.py: no skewshift package under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import importlib

    ss = types.SimpleNamespace()
    for name in MODULES:
        setattr(ss, name, importlib.import_module(f"skewshift.{name}"))
    origin = os.path.realpath(ss.model.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"run.py: skewshift imported from {origin}, not {SRC}")
    return ss


def child_import_s() -> float:
    """Time of `import skewshift` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import skewshift; "
            "print(time.perf_counter() - t)")
    res = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


@dataclasses.dataclass
class Op:
    """One checked operation: the problems its checks found, and whether it
    is the known fault the benchmark keeps as a failing operation."""

    name: str
    problems: list[str]
    known_fault: bool = False


# --- workloads ---------------------------------------------------------------

class PipelineDefault:
    """`skewshift run` on a config holding only model_path (built-in theorem
    model), every other key at its default, one thread."""

    name = "pipeline_default"

    def setup(self, ss, seed: int, workdir: str) -> None:
        self.ss = ss
        self.m = ss.model.default_theorem_model()
        self.dir = workdir
        ss.model.save_model(self.m, os.path.join(workdir, "model.json"))
        self.config = os.path.join(workdir, "config.json")
        with open(self.config, "w") as fh:
            json.dump({"model_path": "model.json"}, fh)
        self.cfg = ss.multiscale.resolve_config({})

    def requested_steps(self) -> int:
        """Sum of n x points over every estimate the default pipeline asks for."""
        c = self.cfg
        mc, grid = c["mc_samples"], c["grid"] ** 2
        ref_grid = 128 * 128  # deviation_measure's default grid reference
        steps = 0
        for _E in c["E_grid"]:
            steps += sum(c["scales"]) * mc                  # lyapunov, 3 kinds per sweep
            steps += c["n0"] * mc + c["n0"] * (ref_grid + mc)  # initial scale + its deviation
            for n, N in c["induction_pairs"]:
                steps += (n + 2 * n + N + 2 * N) * grid     # four Lyapunov scales
                steps += (n + 2 * n) * mc                   # two deviation samples
            steps += sum(c["deviation_scales"]) * (ref_grid + mc)
        N = c["continuity_N"]
        proxy = sum(sorted({max(2, N // 4), max(3, N // 2), N}))
        steps += (N + proxy) * (1 + len(c["continuity_deltas"])) * grid
        return steps

    def prepare(self) -> None:
        # exact-phase grid means of the first induction pair's L_n^u, L_2n^u
        R = reference.ExactModel(reference.THEOREM_MODEL)
        n = self.cfg["induction_pairs"][0][0]
        g = self.cfg["grid"]
        E = float(self.cfg["E_grid"][0])
        self.ref = {k: reference.grid_mean(R, g, g, E, k) for k in (n, 2 * n)}
        self.sd_log_a = _sd_log_a(self.m)
        self.rounds = 0

    def _run_cli(self, out: str, threads: int) -> list[str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.ss.cli.main(["run", "--config", self.config, "--out", out,
                                   "--threads", str(threads)])
        if rc != 0:
            return [f"skewshift run exited {rc}"]
        if json.loads(buf.getvalue()) != {"archive": out}:
            return [f"unexpected stdout {buf.getvalue()!r}"]
        return []

    def run_pass(self, tracer, timed):
        out = os.path.join(self.dir, f"archive-{self.rounds}")
        self.rounds += 1
        with timed("run"), _span(tracer, "cli.main"):
            problems = self._run_cli(out, threads=1)
        return out, problems

    def check_pass(self, result) -> list[Op]:
        out, problems = result
        if not problems:
            m, cfg = self.m, self.cfg
            problems += checks.manifest_ok(out)
            problems += checks.continuity_ok(out, m.lipschitz_base)
            problems += checks.wilson_ok(out)
            problems += checks.lu_lower_ok(out, m.lam)
            tol = 5.0 * self.sd_log_a / math.sqrt(cfg["mc_samples"])
            problems += checks.la_minus_lu_ok(out, m.log_avg_a, tol)
            first = checks.induction_values(out)[0]
            problems += checks.close_rel(first["L_n_u"]["value"], self.ref[first["n"]],
                                         1e-9, "induction L_n_u vs exact-phase reference")
            problems += checks.close_rel(first["L_2n_u"]["value"], self.ref[2 * first["n"]],
                                         1e-9, "induction L_2n_u vs exact-phase reference")
            first_archive = os.path.join(self.dir, "archive-0")
            if out != first_archive:
                problems += checks.archives_identical(first_archive, out)
                shutil.rmtree(out)
        return [Op("skewshift run", problems)]

    def final_checks(self) -> list[str]:
        two = os.path.join(self.dir, "archive-threads2")
        problems = self._run_cli(two, threads=2)
        return problems or checks.archives_identical(os.path.join(self.dir, "archive-0"), two)


class EnergyScan:
    """Unimodular lyapunov_profile at scales 8..128 over nine energies
    symmetric about 0 and spanning +-1.25 * 2 lambda ||v||, on an even
    128 x 256 grid (two full chunks), threads = nproc."""

    name = "energy_scan"
    scales = [8, 16, 32, 64, 128]
    gx, gy = 128, 256
    # the positive energies are drawn from these bands, in units of 2 lambda ||v||
    bands = [(0.05, 0.3), (0.3, 0.6), (0.6, 0.95), (1.05, 1.25)]

    def setup(self, ss, seed: int, workdir: str) -> None:
        self.ss = ss
        self.m = ss.model.default_theorem_model()
        self.edge = 2.0 * self.m.lam * self.m.sup_norm_v
        rng = random.Random(seed)
        pos = [self.edge * rng.uniform(lo, hi) for lo, hi in self.bands]
        self.energies = [-e for e in reversed(pos)] + [0.0] + pos
        self.ref_index = rng.randrange(len(self.energies))
        self.sampler = ss.lyapunov.Sampler.grid(self.gx, self.gy)
        self.threads = len(os.sched_getaffinity(0))

    def requested_steps(self) -> int:
        return sum(self.scales) * self.gx * self.gy * len(self.energies)

    def prepare(self) -> None:
        R = reference.ExactModel(reference.THEOREM_MODEL)
        E = self.energies[self.ref_index]
        self.ref = reference.grid_mean(R, self.gx, self.gy, E, self.scales[0])

    def run_pass(self, tracer, timed):
        out = []
        for E in self.energies:
            with timed("profile"):
                ests, running = self.ss.lyapunov.lyapunov_profile(
                    self.m, E, self.scales, self.sampler, kind="unimodular",
                    threads=self.threads)
            out.append(([e.value for e in ests], running, [e.n for e in ests]))
        return out

    def check_pass(self, result) -> list[Op]:
        ops = []
        k = len(self.energies)
        for i, (E, (values, running, ns)) in enumerate(zip(self.energies, result)):
            what = f"profile at E={E!r}"
            problems = []
            if ns != self.scales:
                problems.append(f"{what}: scales {ns}")
            problems += checks.running_inf_ok(values, running, what)
            problems += checks.symmetric_ok(result[k - 1 - i][0], values, E)
            if abs(E) > self.edge:
                problems += checks.uniform_regime_ok(values, E)
            if i == self.ref_index:
                problems += checks.close_rel(values[0], self.ref, 1e-9,
                                             f"{what}: L_8 vs exact-phase reference")
            ops.append(Op(what, problems))
        return ops

    def final_checks(self) -> list[str]:
        return []


class LongOrbit:
    """Scalar products at n = 3e5, the f-recurrence cross-check at 2e4 and
    avalanche blocks (64 x 512) at two fixed base points and one drawn from
    the seed, E = 0; the batched kernel at n = 1e5 on the fixed points."""

    name = "long_orbit"
    fixed = [(0.31, 0.17), (0.7, 0.42)]
    n_scalar, n_via_f, n_batched = 300_000, 20_000, 100_000
    block, blocks = 512, 64
    E = 0.0

    def setup(self, ss, seed: int, workdir: str) -> None:
        self.ss = ss
        self.m = ss.model.default_theorem_model()
        rng = random.Random(seed)
        self.points = self.fixed + [(rng.random(), rng.random())]
        self.bases = [ss.torus.TorusPoint(x, y) for x, y in self.points]

    def requested_steps(self) -> int:
        per_point = self.n_scalar + 2 * self.n_via_f + self.block * self.blocks
        return len(self.points) * per_point + len(self.fixed) * self.n_batched

    def prepare(self) -> None:
        R = reference.ExactModel(reference.THEOREM_MODEL)
        cps = [self.n_via_f, self.n_batched, self.n_scalar]
        self.ref = [reference.log_norms(R, x, y, self.E, cps) for x, y in self.points]

    def run_pass(self, tracer, timed):
        cocycle, m, E = self.ss.cocycle, self.m, self.E
        out = {"scalar": [], "via_f": [], "avalanche": []}
        for p in self.bases:
            with timed("scalar"):
                out["scalar"].append(cocycle.fundamental_matrix(m, p, E, self.n_scalar))
            with timed("via_f"):
                out["via_f"].append((cocycle.fundamental_matrix_via_f(m, p, E, self.n_via_f),
                                     cocycle.fundamental_matrix(m, p, E, self.n_via_f)))
            with timed("avalanche"):
                out["avalanche"].append(self.ss.avalanche.avalanche_on_cocycle(
                    m, p, E, self.block, self.blocks))
        xs = np.array([x for x, _ in self.fixed])
        ys = np.array([y for _, y in self.fixed])
        with timed("batched"):
            out["batched"] = cocycle.batched_log_norms(m, xs, ys, E, self.n_batched)
        return out

    def check_pass(self, result) -> list[Op]:
        ops = []
        for i, (pt, ref) in enumerate(zip(self.points, self.ref)):
            at = f"base {pt}"
            c = result["scalar"][i]
            r = ref[self.n_scalar]
            problems = checks.close_rel(c.log_norm, r["log_norm"], 1e-9,
                                        f"{at}: scalar log-norm vs reference")
            problems += checks.close_abs(c.log_det, r["log_a1"] - r["log_an1"], 1e-9,
                                         f"{at}: log det M_n vs log a_1/a_(n+1)")
            ops.append(Op(f"fundamental_matrix {at}", problems))
            f, g = result["via_f"][i]
            problems = checks.close_rel(f.log_norm, g.log_norm, 1e-8,
                                        f"{at}: via_f vs fundamental_matrix")
            problems += checks.close_rel(g.log_norm, ref[self.n_via_f]["log_norm"], 1e-9,
                                         f"{at}: scalar log-norm at 2e4 vs reference")
            ops.append(Op(f"fundamental_matrix_via_f {at}", problems))
            ops.append(Op(f"avalanche_on_cocycle {at}",
                          checks.avalanche_ok(result["avalanche"][i], self.blocks)))
        b = result["batched"]["log_norm"]
        problems = []
        for i, pt in enumerate(self.fixed):
            problems += checks.close_rel(float(b[i]), self.ref[i][self.n_batched]["log_norm"],
                                         1e-9, f"base {pt}: batched log-norm vs reference")
        # known fault: the batched kernel's float closed-form phases drift like j^2
        ops.append(Op("batched_log_norms n=1e5", problems, known_fault=True))
        return ops

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (PipelineDefault, EnergyScan, LongOrbit)}


def _sd_log_a(m) -> float:
    ys = (np.arange(1 << 14) + 0.5) / (1 << 14)
    return float(np.std(np.log(np.abs(m.a(ys)))))


class OpTimer:
    """Wall time of each operation of the timed passes, grouped by kind.

    A pass is estimated as the sum over kinds of (operations of that kind
    per pass) x (typical time of one), so that a burst of other load on the
    CPUs moves the figure little.  The typical time is the median, or the
    mean for a kind timed fewer than MEDIAN_MIN times in the run (long_orbit's
    batched call runs once a pass): a median of so few samples rejects little.
    """

    def __init__(self):
        self.times: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def __call__(self, kind: str):
        t0 = time.perf_counter()
        yield
        self.times.setdefault(kind, []).append(time.perf_counter() - t0)

    def busy(self) -> float:
        return sum(sum(v) for v in self.times.values())

    def pass_time(self, passes: int) -> float:
        def typical(v):
            return statistics.median(v) if len(v) >= MEDIAN_MIN else statistics.mean(v)
        return sum(len(v) / passes * typical(v) for v in self.times.values())


@contextlib.contextmanager
def _span(tracer, name):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


# --- measurement -------------------------------------------------------------

def run(args) -> dict:
    os.environ.pop("SKEWSHIFT_THREADS", None)  # thread counts are set explicitly
    ss = load_program()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, ss)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, ss, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))


def _measure(args, ss, tracer, workdir) -> dict:
    w = WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_REPEATS):
        imp = child_import_s()
        t0 = time.perf_counter()
        w.setup(ss, args.seed, workdir)
        setups.append(imp + time.perf_counter() - t0)
    w.prepare()

    timed, ops, passes = OpTimer(), [], 0
    while passes == 0 or timed.busy() < args.seconds:
        if tracer is not None:
            tracer.phase, tracer.pass_no = "pass", passes
        result = w.run_pass(tracer, timed)
        if tracer is not None:
            tracer.phase = "check"
        passes += 1
        ops += w.check_pass(result)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = w.final_checks()
    if ss.model.model_to_dict(w.m) != reference.THEOREM_MODEL:
        final.append("the built-in theorem model differs from the reference's copy")

    failed = [op for op in ops if op.problems]
    unexpected = [op for op in failed if not op.known_fault]
    for op in unexpected[:5] + [op for op in failed if op.known_fault][:1]:
        print(f"{op.name}: {'; '.join(op.problems[:3])}", file=sys.stderr)
    for problem in final:
        print(f"final check: {problem}", file=sys.stderr)
    wall = timed.pass_time(passes)
    print(f"{args.workload} seed={args.seed}: {passes} passes, pass time {wall:.3f} s, "
          f"busy {timed.busy():.3f} s", file=sys.stderr)
    if tracer is not None:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in tracing.per_layer(tracer, passes).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "sample_steps_per_s": {"value": w.requested_steps() / wall, "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {
        "correct": not unexpected and not final,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name.endswith(".ns_per_point") or name.endswith(".ns_per_sample_step"):
        return "ns"
    if name.endswith(".us_per_step"):
        return "us"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_efficiency"):
        return "ratio"
    return "count"


UNITS = {k: _unit(k) for k in tracing.per_layer(tracing.Tracer(), 1)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
