"""The traced benchmark wraps library functions by name; keep those names alive.

perfbench/tracing.py replaces each hooked function at the name its caller
looks up.  A hook whose target is gone is reported as absent and its metrics
are left out of the traced result, which then lacks metrics that
BENCHMARK.json declares.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_hook_target_is_callable(tracing):
    missing = [f"{h.module}.{h.attr}" for h in tracing.HOOKS
               if not callable(getattr(importlib.import_module(h.module), h.attr, None))]
    assert missing == []


def test_per_layer_names_match_benchmark(tracing):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [name for name, _, _ in tracing.PER_LAYER] == [m["name"] for m in declared]
