"""The benchmark's call contract as a tier-1 test.

``perfbench/run.py --trace 1`` wraps natvqe's layers with ``perfbench/tracer.py``
and refuses a traced pass that never reaches a layer its workload's ``required``
list names.  This test runs a small share of each workload's units the same way:
the qubit-a units of ``presets``, 16 ``landscape`` points and one ``wide``
circuit, so a change under ``src/`` that would make that refusal fails here
first.  ``presets`` also meets its ``linalg.eigvalsh`` requirement through
``Problem.reference_energy``, outside any run, so a second test checks that each
metric run decomposes its metrics.  The perfbench files are only imported.
"""
import importlib.util
from collections import Counter
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


def traced(name, tmp_path):
    """The workload ``name`` and a Tracer that recorded its ``some_units``."""
    workload = workloads.WORKLOADS[name](1, tmp_path)
    recorder = tracer.Tracer()
    with recorder.installed():
        for unit in some_units(workload):
            unit()
    return workload, recorder


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_units_reach_every_required_layer(name, tmp_path):
    workload, recorder = traced(name, tmp_path)
    assert tracer.required_calls_errors(recorder, workload.required, name) == []


def test_every_metric_run_decomposes_its_metrics(tmp_path):
    """In the qubit-a presets units, each natural, ite or classical run builds a
    MetricMatrix and an eigendecomposition per recorded iterate; vanilla's builds neither."""
    spans = traced("presets", tmp_path)[1].spans
    # each span's enclosing optimizers.run span; parents always precede children
    run_of, counts = [], {}
    for index, (name, _, _, parent, _) in enumerate(spans):
        run = index if name == tracer.RUN else (run_of[parent] if parent >= 0 else -1)
        run_of.append(run)
        if name == tracer.RUN:
            counts[index] = Counter()
        elif run >= 0:
            counts[run][name] += 1
    kinds = set()
    for run, count in counts.items():
        note = spans[run][4]  # (optimizer, iterates), or None for a run that raised
        metrics, eigs = count["geometry.MetricMatrix"], sum(count[n] for n in tracer.EIGEN)
        if note is not None and note[0] == "vanilla":
            assert (metrics, eigs) == (0, 0)
        else:
            iterates = 1 if note is None else note[1]  # classical raises before it returns
            assert metrics >= iterates and eigs >= iterates, (note, metrics, eigs)
        kinds.add(None if note is None else note[0])
    assert len(counts) == 4 and {"vanilla", "natural", "ite"} <= kinds
