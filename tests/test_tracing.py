"""The benchmark wraps and calls package functions by name; a deleted or
renamed one would break every benchmark run, so the names it reads are checked
here."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
MODULES = ("torus", "model", "cocycle", "lyapunov", "deviation", "avalanche",
           "multiscale", "cli")


def load_tracing(monkeypatch):
    # imported from its file, leaving perfbench/ and sys.modules untouched
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_install_finds_names_and_uninstall_restores(monkeypatch):
    tracing = load_tracing(monkeypatch)
    ss = types.SimpleNamespace(**{
        name: importlib.import_module(f"skewshift.{name}") for name in MODULES})
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, ss)  # AttributeError on a name that is gone
        patches = list(tracer._patches)
        assert patches
        originals = {}
        for owner, attr, original in patches:
            originals.setdefault((owner, attr), original)
            assert getattr(owner, attr) is not originals[owner, attr], attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr


def test_trig_counter_counts_each_array_evaluation_once(monkeypatch):
    # TrigPoly1 evaluates through TrigPoly2's loop; with both classes'
    # __call__ wrapped, 10 points of a and 10 of v must read 20, not 30
    tracing = load_tracing(monkeypatch)
    ss = types.SimpleNamespace(**{
        name: importlib.import_module(f"skewshift.{name}") for name in MODULES})
    m = ss.model.default_theorem_model()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, ss)
        tracer.phase = "pass"
        t = np.linspace(0.0, 1.0, 10)
        m.a(t)
        m.v(t, t)
    finally:
        tracer.uninstall()
    assert tracer.trig["calls"] == 2
    assert tracer.trig["points"] == 20


def _package_reads(path):
    """(module, name) for each attribute chain ss.<module>.<name> or
    self.ss.<module>.<name> in the file, and for <alias>.<name> where the
    file binds <alias> to such a module (`cocycle = ss.cocycle`, also in a
    tuple assignment)."""
    tree = ast.parse(path.read_text())

    def module_of(node):
        # "cocycle" for ss.cocycle or self.ss.cocycle, else None
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("ss", "self.ss"):
            return node.attr
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [(target, value)])
            for t, v in pairs:
                if isinstance(t, ast.Name) and (module := module_of(v)) is not None:
                    aliases[t.id] = module
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = module_of(node.value)
        if module is None and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
        if module is not None:
            reads.add((module, node.attr))
    return reads


def test_benchmark_reads_only_names_the_package_has():
    reads = _package_reads(PERFBENCH / "run.py") | _package_reads(PERFBENCH / "selftest.py")
    # the names the benchmark's workloads and self-test rest on
    assert {("multiscale", "resolve_config"), ("model", "save_model"),
            ("model", "default_theorem_model"), ("torus", "TorusPoint"),
            ("lyapunov", "lyapunov_profile"), ("avalanche", "avalanche_on_cocycle"),
            ("cocycle", "fundamental_matrix_via_f")} <= reads
    for module, name in sorted(reads):
        assert module in MODULES, module
        assert hasattr(importlib.import_module(f"skewshift.{module}"), name), \
            f"skewshift.{module}.{name}"


def test_benchmark_selftest_has_teeth(tmp_path):
    # the benchmark's checks must each fail on a perturbed output of this
    # package; run as a script, writing no bytecode into perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "all checks have teeth" in proc.stdout
