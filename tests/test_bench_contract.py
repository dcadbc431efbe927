"""The traced benchmark wraps library functions by name; keep those names alive.

perfbench/tracing.py replaces each hooked function at the name its caller
looks up.  A hook whose target is gone is reported as absent and its metrics
are left out of the traced result, which then lacks metrics that
BENCHMARK.json declares.  So is a metric whose function the program calls
through another name than the hooked one.
"""
import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from gibbstree import cli

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


# per-layer metrics the benchmark worker adds from the op outcomes, not the tracer
WORKER_METRICS = {"solver.count_misses", "trace.ops", "trace.overhead_share",
                  "trace.unaccounted_share", "failed_share"}
MODEL = ("--q", "3", "--k", "3", "--theta", "0.1")


@pytest.mark.parametrize("argv", [
    ("solve", *MODEL, "--set", "all", "--json"),
    ("sweep", "--q", "3", "--k", "3", "--theta-min", "0.1", "--theta-max", "0.3",
     "--steps", "3", "--set", "im:1", "--out", "{tmp}/s.csv", "--svg", "{tmp}/s.svg",
     "--json"),
    ("verify", *MODEL, "--set", "im:1", "--depth", "2", "--json"),
    ("verify", *MODEL, "--set", "imprime:1", "--depth", "2", "--json"),
], ids=["solve", "sweep", "verify-im", "verify-imprime"])
def test_traced_op_reports_every_per_layer_metric(tracing, tmp_path, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    tracer = tracing.Tracer()
    tracer.op = 0
    traced_main = tracer.span(tracing.ROOT_SPAN, cli.main)
    absent = tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = traced_main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert absent == []
    metrics = tracer.summarize([0])
    missing = [name for name, _, _ in tracing.PER_LAYER
               if name not in WORKER_METRICS and name not in metrics]
    assert missing == []
