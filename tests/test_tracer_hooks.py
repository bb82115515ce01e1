"""The per-layer tracer of the benchmark wraps package attributes by name;
every one it names must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooks():
    tracer = load_tracer()
    pairs = [pair for entries in tracer.SPANS.values() for pair in entries]
    return pairs + list(tracer.COUNTED)


@pytest.mark.parametrize("owner, attr", hooks())
def test_tracer_hook_resolves(owner, attr):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(f"affinehecke.{module_name}")
    if cls_name:
        # the tracer reads the class's own __dict__, not an inherited attribute
        assert attr in getattr(module, cls_name).__dict__
    else:
        assert callable(getattr(module, attr))
