"""The benchmark tracer (benchmarks/tracer.py) wraps mpir functions by
module and name; renaming or deleting one of them breaks every traced
benchmark run, so each name must still resolve to a function."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # the tracer also records montecarlo.rake_template's output length
    return [*tracer.span_names(), "montecarlo.rake_template"]


def test_traced_names_resolve_to_functions():
    names = _traced_names()
    missing = []
    for name in names:
        module, _, fn = name.partition(".")
        if not callable(getattr(importlib.import_module(f"mpir.{module}"), fn, None)):
            missing.append(name)
    assert not missing, f"benchmarks/tracer.py wraps names mpir no longer has: {missing}"
