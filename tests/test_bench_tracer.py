"""The benchmark tracer (bench/tracer.py) wraps package attributes by name;
every one it names must exist, or a traced benchmark run fails to start."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # read-only: leave no bytecode cache under bench/
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    return [(layer, module, attr) for layer, targets in tracer.TARGETS.items()
            for module, attr in targets]


@pytest.mark.parametrize("layer, module, attr", _targets(), ids=str)
def test_every_traced_attribute_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{layer}: {module}.{attr} does not exist"
