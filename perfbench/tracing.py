"""In-memory span tracer for the traced benchmark run.

Public functions of each skewshift module are wrapped by patching the name
in the module that calls them (for example ``skewshift.lyapunov.
batched_log_norms``), so the program itself is unchanged.  Every wrapped
call becomes a span (id, parent, name, start, end, attributes); array
evaluations of the trigonometric data are too frequent for one span each
and are counted instead.  Spans are kept in memory and written out as JSON
lines when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and counters of one traced run, plus the patches that feed them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"  # "setup" | "pass" | "check"; set by the runner
        self.pass_no = None   # index of the current pass of the workload
        self.trig = {"calls": 0, "points": 0, "s": 0.0}  # counted in passes only
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        # a worker thread's first span belongs to the main-thread call
        # (e.g. sample_log_norms) that handed it its chunk
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        rec = {"id": sid, "parent": parent["id"] if parent else None,
               "name": name, "phase": self.phase, "pass": self.pass_no,
               "attrs": attrs}
        stack.append(rec)
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owners, attr: str, name: str, attrs_of=None) -> None:
        """Replace `attr` on every owner with one traced wrapper."""
        original = getattr(owners[0], attr)
        tracer = self

        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with tracer.span(name, **attrs):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        for owner in owners:
            self._patch(owner, attr, traced)

    def count_trig(self, owner) -> None:
        """Count array evaluations of TrigPoly1/2.__call__ (scalars excluded)."""
        original = owner.__call__
        tracer = self

        def traced(self_, *args):
            t0 = time.perf_counter()
            out = original(self_, *args)
            dt = time.perf_counter() - t0
            if tracer.phase == "pass" and isinstance(out, np.ndarray):
                with tracer._lock:
                    tracer.trig["calls"] += 1
                    tracer.trig["points"] += out.size
                    tracer.trig["s"] += dt
            return out

        self._patch(owner, "__call__", traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec, sort_keys=True, default=float) + "\n")
            fh.write(json.dumps({"counter": "model.trig_eval", **self.trig}) + "\n")


def install(tracer: Tracer, ss) -> None:
    """Wrap the public functions of every skewshift module.

    `ss` is a namespace holding the imported modules (torus, model,
    cocycle, lyapunov, deviation, avalanche, multiscale, cli).
    """
    def n_at(i):
        def attrs(*args, **kwargs):
            return {"n": int(args[i] if len(args) > i else kwargs["n"])}
        return attrs

    def batched_attrs(m, x, y, E, n):
        xa = np.ascontiguousarray(x, dtype=np.float64)
        ya = np.ascontiguousarray(y, dtype=np.float64)
        key = hashlib.blake2b(xa.tobytes() + ya.tobytes(), digest_size=12).hexdigest()
        return {"n": int(n), "B": int(xa.size), "key": f"{key}:{float(E)!r}"}

    def sample_attrs(m, E, n, sampler, kind="plain", shift=0, threads=None):
        return {"n": int(n), "threads": 1 if threads is None else max(1, int(threads))}

    t = tracer
    t.wrap([ss.avalanche], "skew_shift_iterate", "torus.skew_shift_iterate")
    t.wrap([ss.multiscale], "diophantine_check", "torus.diophantine_check")
    t.wrap([ss.model], "derive_constants", "model.derive_constants")
    t.count_trig(ss.model.TrigPoly1)
    t.count_trig(ss.model.TrigPoly2)
    t.wrap([ss.cocycle, ss.lyapunov], "batched_log_norms", "cocycle.batched",
           batched_attrs)
    t.wrap([ss.cocycle, ss.avalanche], "fundamental_matrix", "cocycle.scalar", n_at(3))
    t.wrap([ss.cocycle], "fundamental_matrix_a", "cocycle.scalar", n_at(3))
    t.wrap([ss.cocycle], "orbit_values", "cocycle.orbit_values")
    t.wrap([ss.cocycle], "fundamental_matrix_via_f", "cocycle.via_f", n_at(3))
    t.wrap([ss.lyapunov, ss.deviation, ss.multiscale], "sample_log_norms",
           "lyapunov.sample_log_norms", sample_attrs)
    t.wrap([ss.lyapunov.Sampler], "points", "lyapunov.points")
    t.wrap([ss.lyapunov, ss.deviation, ss.multiscale], "lyapunov_finite",
           "lyapunov.lyapunov_finite")
    t.wrap([ss.lyapunov], "lyapunov_profile", "lyapunov.lyapunov_profile")
    t.wrap([ss.multiscale], "lyapunov_all_kinds", "lyapunov.lyapunov_all_kinds")
    t.wrap([ss.deviation, ss.multiscale], "deviation_measure", "deviation.deviation_measure")
    t.wrap([ss.multiscale], "initial_scale_check", "deviation.initial_scale_check")
    t.wrap([ss.avalanche], "cocycle_blocks", "avalanche.cocycle_blocks")
    t.wrap([ss.avalanche], "avalanche_check", "avalanche.avalanche_check")
    t.wrap([ss.avalanche], "avalanche_on_cocycle", "avalanche.avalanche_on_cocycle")
    t.wrap([ss.multiscale], "induction_step", "multiscale.induction_step")
    t.wrap([ss.multiscale], "continuity_probe", "multiscale.continuity_probe")
    for writer in ("_dump_json", "_dump_jsonl", "_dump_csv", "write_manifest"):
        t.wrap([ss.multiscale], writer, "multiscale.archive")
    t.wrap([ss.cli], "theorem_mode_run", "multiscale.theorem_mode_run")


# theorem_mode_run's stages, named by the call it makes for each one
_STAGE_OF = {
    "torus.diophantine_check": "diophantine",
    "lyapunov.lyapunov_all_kinds": "lyapunov",
    "deviation.initial_scale_check": "initial_scale",
    "multiscale.induction_step": "induction",
    "deviation.deviation_measure": "deviation",
    "multiscale.continuity_probe": "continuity",
    "multiscale.archive": "archive",
}
STAGES = ("diophantine", "lyapunov", "initial_scale", "induction", "deviation",
          "continuity", "archive")


def per_layer(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, as totals per pass of the timed section."""
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    in_passes = [s for s in spans if s["phase"] == "pass"]
    dur = lambda s: s["t1"] - s["t0"]  # noqa: E731
    tot = defaultdict(float)
    calls = defaultdict(int)
    for s in in_passes:
        tot[s["name"]] += dur(s)
        calls[s["name"]] += 1
    r = float(max(passes, 1))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    batched = [s for s in in_passes if s["name"] == "cocycle.batched"]
    steps = sum(s["attrs"]["n"] * s["attrs"]["B"] for s in batched)
    longest: dict[tuple, int] = {}
    for s in batched:
        key = (s["pass"], s["attrs"]["key"])
        longest[key] = max(longest.get(key, 0), s["attrs"]["n"] * s["attrs"]["B"])
    scalar = [s for s in in_passes if s["name"] == "cocycle.scalar"]
    scalar_steps = sum(s["attrs"]["n"] for s in scalar)

    # parallel efficiency: chunk sweep time over threads x call wall time
    chunk_s = defaultdict(float)
    chunks = defaultdict(int)
    for s in batched:
        chunk_s[s["parent"]] += dur(s)
        chunks[s["parent"]] += 1
    eff_num = eff_den = 0.0
    for s in in_passes:
        if s["name"] == "lyapunov.sample_log_norms":
            used = min(s["attrs"]["threads"], max(chunks[s["id"]], 1))
            eff_num += chunk_s[s["id"]]
            eff_den += used * dur(s)

    stage_s = dict.fromkeys(STAGES, 0.0)
    for s in in_passes:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "multiscale.theorem_mode_run":
            stage = _STAGE_OF.get(s["name"])
            if stage is not None:
                stage_s[stage] += dur(s)

    derive = [dur(s) for s in spans if s["name"] == "model.derive_constants"]
    out = {
        "torus.skew_shift_iterate.calls": calls["torus.skew_shift_iterate"] / r,
        "torus.skew_shift_iterate.s": tot["torus.skew_shift_iterate"] / r,
        "model.derive_constants.s": sum(derive) / len(derive) if derive else 0.0,
        "model.trig_eval.points": tracer.trig["points"] / r,
        "model.trig_eval.ns_per_point": ratio(tracer.trig["s"], tracer.trig["points"], 1e9),
        "cocycle.batched.calls": len(batched) / r,
        "cocycle.batched.sample_steps": steps / r,
        "cocycle.batched.ns_per_sample_step": ratio(tot["cocycle.batched"], steps, 1e9),
        "cocycle.batched.useful_ratio": ratio(sum(longest.values()), steps),
        "cocycle.scalar.steps": scalar_steps / r,
        "cocycle.scalar.us_per_step": ratio(tot["cocycle.scalar"], scalar_steps, 1e6),
        "cocycle.orbit_values.s": tot["cocycle.orbit_values"] / r,
        "lyapunov.sample_log_norms.s": tot["lyapunov.sample_log_norms"] / r,
        "lyapunov.points.s": tot["lyapunov.points"] / r,
        "lyapunov.parallel_efficiency": ratio(eff_num, eff_den),
        "deviation.deviation_measure.calls": calls["deviation.deviation_measure"] / r,
        "deviation.deviation_measure.s": tot["deviation.deviation_measure"] / r,
        "deviation.initial_scale_check.s": tot["deviation.initial_scale_check"] / r,
        "avalanche.cocycle_blocks.s": tot["avalanche.cocycle_blocks"] / r,
        "avalanche.avalanche_check.s": tot["avalanche.avalanche_check"] / r,
    }
    for stage in STAGES:
        out[f"multiscale.stage.{stage}.s"] = stage_s[stage] / r
    out["cli.overhead_s"] = (tot["cli.main"] - tot["multiscale.theorem_mode_run"]) / r
    return out
