"""The benchmark's tracer (``perfbench/tracing.py``) wraps domsolve functions
by name, so a refactor that drops one of those names fails here instead of in
a traced benchmark run."""

import importlib
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    return importlib.import_module("tracing")


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _tracing(monkeypatch)
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


def test_traced_kernels_record_their_calls(monkeypatch):
    # The batch rules look their kernels up at call time, so a traced run
    # reaches the wrapped names; one bound at definition time would read 0.
    from domsolve import montecarlo
    from domsolve.games import Seed

    tracer = _tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        montecarlo.run(
            montecarlo.ExperimentSpec(
                montecarlo.POINT_RAT_UNIQUE, montecarlo.GameSource(m=3, n=4), 200, Seed(16)
            )
        )
        pointrat_calls = tracer.totals["simkernels.pointrat"][0]
        montecarlo.solvability_chain(montecarlo.GameSource(m=3, n=3), 64, Seed(16))
    finally:
        tracer.uninstall()
    assert pointrat_calls > 0
    assert tracer.totals["simkernels.pointrat"][0] > pointrat_calls
    # Both dominance rules of the chain: the pure one under eliminate_batch,
    # the mixed one straight under the batch worker.
    parents = Counter(f.parent.name for f in tracer.spans if f.name == "simkernels.dominance")
    assert parents["simkernels.eliminate"] > 0
    assert parents["montecarlo.batch"] > 0
