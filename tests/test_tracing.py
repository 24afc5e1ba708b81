"""The benchmark tracer wraps package functions by name; a deleted or renamed
one would break traced benchmark runs, so its patches are checked here."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
