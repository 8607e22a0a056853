"""The benchmark's tracer (``perfbench/tracing.py``) wraps domsolve functions
by name, so a refactor that drops one of those names fails here instead of in
a traced benchmark run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracing = importlib.import_module("tracing")
    boundaries = [
        (importlib.import_module(f"domsolve.{module}"), attr)
        for module, attr, *_ in tracing.BOUNDARIES
    ]
    originals = [getattr(module, attr) for module, attr in boundaries]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(boundaries, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(boundaries, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
