"""The benchmark's span tracer wraps dcboost functions by attribute name
(``perfbench/tracer.py``, ``TARGETS``).  A src change that unbinds one
silently zeroes its per-layer metrics, so every target must resolve."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=lambda t: f"{t.owner}.{t.attr}")
def test_tracer_target_resolves(target):
    owner = tracer._resolve_owner(target.owner)
    assert callable(tracer._lookup(owner, target.attr))
