"""The benchmark still runs against this source: ``perfbench/workloads.py``
and ``perfbench/tracer.py`` import, the tracer's hooks name functions that
exist with the arguments it reads, every workload listed in
``BENCHMARK.json`` builds a scenario and a config that parse, and a smoke
run of each one passes the benchmark's own output check.

The modules are loaded, and the smoke runs started, without writing
bytecode, so the test leaves ``perfbench/`` as it found it.
"""
from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from icsadv import pipeline, plantsim

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_inputs_parse(workload, smoke):
    workloads = _load("workloads")
    plantsim.parse_scenario(workloads.scenario(7, smoke))
    if workload == "score-long":
        plantsim.parse_scenario(workloads.long_scenario(7, smoke))
    pipeline.normalize_config(workloads.config(workload, 7, smoke))


def test_tracer_hooks_name_live_functions():
    tracer = _load("tracer")
    for span_name in tracer._HOOKS:
        layer, name = span_name.split(".")
        public = dict(tracer.public_functions(tracer.LAYERS[layer]))
        assert name in public, span_name
    # the split-scan hooks unpack ``X, _y, feats = args``
    for name in ("gini_best_split", "sse_best_split"):
        fn = getattr(tracer.LAYERS["kernels"], name)
        positional = [p for p in inspect.signature(fn).parameters.values()
                      if p.kind == p.POSITIONAL_OR_KEYWORD]
        assert len(positional) == 3, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload):
    """One untraced operation on the desk inputs: exit 0, and a last line
    that reports it correct with no failed operation."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
