"""Span recorder that wraps natvqe's public functions from outside the package.

Every binding of a wrapped function is patched, including the names other
natvqe modules bound with ``from ... import`` (``natvqe.optimizers`` holds its
own ``energy_and_gradient``), so each call records one span: name, start, end
and the span that was open when it began. Nothing under ``src/`` changes.
Spans stay in memory while the traced pass runs; ``write_spans`` saves them
once it has ended.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# span name -> (module, attribute). ``geometry.MetricMatrix`` times the class's
# validation hook, which every construction of a metric runs.
LAYERS = {
    "states.state_and_tangents": ("natvqe.states", "state_and_tangents"),
    "states.build_state": ("natvqe.states", "build_state"),
    "observables.energy_and_gradient": ("natvqe.observables", "energy_and_gradient"),
    "observables.spectral_decompose": ("natvqe.observables", "spectral_decompose"),
    "geometry.fubini_study_metric": ("natvqe.geometry", "fubini_study_metric"),
    "geometry.ite_matrix": ("natvqe.geometry", "ite_matrix"),
    "geometry.classical_fisher_metric": ("natvqe.geometry", "classical_fisher_metric"),
    "geometry.singularity_report": ("natvqe.geometry", "singularity_report"),
    "geometry.MetricMatrix": ("natvqe.geometry", "MetricMatrix.__post_init__"),
    "optimizers.run": ("natvqe.optimizers", "run"),
    "optimizers.solve_regularized": ("natvqe.optimizers", "solve_regularized"),
    "experiments.compare": ("natvqe.experiments", "compare"),
    "cli.main": ("natvqe.cli", "main"),
    "cli.trajectory_to_csv": ("natvqe.cli", "trajectory_to_csv"),
    "cli.trajectory_to_json": ("natvqe.cli", "trajectory_to_json"),
    "svgplot.line_plot": ("natvqe.svgplot", "line_plot"),
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.solve": ("numpy.linalg", "solve"),
}
SWEEP = "states.state_and_tangents"
RUN = "optimizers.run"
COMPARE = "experiments.compare"
EIGEN = ("linalg.eigh", "linalg.eigvalsh")
KINDS = ("vanilla", "natural", "ite", "classical")


def sweep_flop(circ) -> int:
    """Real flops of one ``state_and_tangents`` sweep, counted from array shapes.

    Each gate contracts its 2^k x 2^k matrix with the (m + 1) x 2^n batch; a
    parametrized gate also pushes the generator through row 0 and adds the
    result into its tangent row. A complex multiply-add counts as 8 flops.
    """
    dim, rows = 2 ** circ.n_qubits, circ.n_params + 1
    total = 0
    for gate in circ.gates:
        width = 2 ** len(gate.targets)
        total += 8 * dim * width * rows
        if gate.param_index is not None:
            total += 8 * dim * width + 2 * dim
    return total


class Tracer:
    """Records spans ``(name, start, end, parent, note)`` for wrapped calls.

    The note of an optimizers.run span is (optimizer, iterates recorded); that
    of an experiments.compare span is the preset's name; others have none.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.flop = 0
        self._stack: list[int] = []
        self._flop_of: dict = {}  # circuit -> flops of one sweep; keeps the circuit alive

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                note = self._note(name, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, note)

        return wrapper

    def _note(self, name, args, kwargs, result):
        if name == SWEEP:
            circ = args[0] if args else kwargs["circ"]
            flop = self._flop_of.get(circ)
            if flop is None:
                flop = self._flop_of[circ] = sweep_flop(circ)
            self.flop += flop
        elif name == RUN:
            kind = args[0] if args else kwargs["kind"]
            return kind.value, len(result.steps)
        elif name == COMPARE:
            return (args[0] if args else kwargs["preset"]).name
        return None

    @contextmanager
    def installed(self):
        """Patch every binding of every layer, and restore them on exit."""
        patches = []  # (owner, attribute, original)
        for name, (module_name, attr) in LAYERS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, method)
                patches.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for owner in _binding_modules(module_name):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, key, original))
                        setattr(owner, key, wrapper)
        originals = {id(original) for _, _, original in patches}
        leftover = [
            f"{owner.__name__}.{key}"
            for owner in _binding_modules("natvqe")
            for key, value in vars(owner).items()
            if id(value) in originals
        ]
        try:
            if leftover:
                raise RuntimeError(f"unwrapped bindings left: {leftover}")
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def write_spans(self, path: Path, origin: float) -> None:
        """Write the spans as gzipped JSON lines, times in seconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for index, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "note": note}) + "\n")


def _binding_modules(module_name: str):
    """Modules that may bind a function of ``module_name``: every loaded natvqe
    module, or numpy.linalg alone (natvqe reaches it as ``np.linalg.<name>``)."""
    if module_name == "numpy.linalg":
        return [sys.modules[module_name]]
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "natvqe" or name.startswith("natvqe."))]


def layer_metrics(tracer: Tracer, wall: float, points: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds.

    ``points`` is the number of landscape points the pass evaluated (0 when it
    ran optimizers instead). Ratios whose base is zero on a workload read 0.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    self_s: Counter = Counter()
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    # spans[i]'s enclosing optimizers.run span; parents always precede children
    run_of = [-1] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_s[index]
        run_of[index] = index if name == RUN else (run_of[parent] if parent >= 0 else -1)

    iterates: Counter = Counter()
    sweeps: Counter = Counter()
    eigs: Counter = Counter()
    for index, (name, _, _, _, note) in enumerate(spans):
        if name == RUN and note is not None:
            iterates[note[0]] += note[1]
        run = run_of[index]
        if run < 0 or spans[run][4] is None:
            continue  # outside any optimizer run, or inside one that raised
        kind = spans[run][4][0]
        if name == SWEEP:
            sweeps[kind] += 1
        elif name in EIGEN:
            eigs[kind] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
        out[f"{name}.self_frac"] = (ratio(self_s[name], wall), "fraction")
    all_iterates = sum(iterates.values())
    out["states.sweeps_per_step"] = (ratio(sum(sweeps.values()), all_iterates), "sweeps/step")
    out["linalg.eig_per_step"] = (ratio(sum(eigs.values()), all_iterates), "eig/step")
    for kind in KINDS:
        out[f"states.sweeps_per_step.{kind}"] = (ratio(sweeps[kind], iterates[kind]), "sweeps/step")
        out[f"linalg.eig_per_step.{kind}"] = (ratio(eigs[kind], iterates[kind]), "eig/step")
    n_eig = sum(calls[name] for name in EIGEN)
    out["states.sweeps_per_point"] = (ratio(calls[SWEEP], points), "sweeps/point")
    out["linalg.eig_per_point"] = (ratio(n_eig, points), "eig/point")
    out["states.sweep.mflop_computed"] = (tracer.flop / 1e6, "Mflop")
    out["states.sweep.gflops_achieved"] = (ratio(tracer.flop / 1e9, self_s[SWEEP]), "Gflop/s")
    return out


def required_calls_errors(tracer: Tracer, required: tuple[str, ...], workload: str) -> list[str]:
    """Names this workload must reach that recorded no call."""
    seen = {span[0] for span in tracer.spans}
    return [f"traced run of {workload!r} recorded no call to {name}"
            for name in required if name not in seen]
