"""The benchmark's call contract as a tier-1 test.

``perfbench/run.py --trace 1`` wraps natvqe's layers with ``perfbench/tracer.py``
and refuses a traced pass that never reaches a layer its workload's ``required``
list names.  This test runs a small share of each workload's units the same way:
the qubit-a units of ``presets``, 16 ``landscape`` points and one ``wide``
circuit, so a change under ``src/`` that would make that refusal fails here
first.  The perfbench files are only imported.
"""
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


def some_units(workload):
    """The qubit-a units of presets, the first 16 landscape points, the first wide circuit."""
    units = workload.units()
    if workload.name == "presets":
        return [unit for key, unit in units if key[0] == "qubit-a"]
    count = 16 if workload.name == "landscape" else 1
    return [unit for _, unit in units[:count]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_units_reach_every_required_layer(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    recorder = tracer.Tracer()
    with recorder.installed():
        for unit in some_units(workload):
            unit()
    assert tracer.required_calls_errors(recorder, workload.required, name) == []
