"""The benchmark's three workloads and their correctness gates.

Each workload builds its inputs from the seed alone, fills natvqe's caches in
``warm_up`` and splits one pass of work into units. A unit is a callable the
timer runs; ``summarize`` turns what it returned into (points evaluated, data
to check) outside the timed region. The gate functions at module level take
the expected value as an argument, so the smoke test can hand them a wrong one.

Why these workloads:

* presets: the paper's case studies, 1-2 qubits with m <= 4, where per-call
  Python/numpy overhead in the states sweep dominates. It is the only workload
  that writes CSV and SVG, and it includes ``classical`` on qubit-a/qubit-b,
  which raises MetricUndefinedError today. Those runs stay in every pass and
  are counted as ``undefined``: the raise is the outcome checked for them, and
  any other exception, or the same one anywhere else, is a failure.
* landscape: independent random points, the traffic of the geometry checks and
  of future basin maps. geometry and MetricMatrix validation carry most of the
  work and optimizers none, so batching shows here first.
* wide: 6-qubit circuits (m = 36, 51 gates) through ``natvqe run --config``,
  where the sweep, the m x m eigendecompositions and the FC projector loop are
  real arithmetic, phase gates make F != A, and the CLI parses a config and
  writes JSON.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from natvqe import cli, experiments, geometry, observables, optimizers, states, svgplot

KINDS = tuple(kind.value for kind in optimizers.OptimizerKind)

# README "Case-study results": steps to threshold at each preset's eta and max_steps
README_STEPS = {
    ("qubit-a", "vanilla"): 18, ("qubit-a", "natural"): 16, ("qubit-a", "ite"): 16,
    ("qubit-b", "vanilla"): 18, ("qubit-b", "natural"): 16, ("qubit-b", "ite"): 25,
    ("h2-a", "vanilla"): 30, ("h2-a", "natural"): 25,
    ("h2-plateau", "vanilla"): 491, ("h2-plateau", "natural"): 487,
    ("toy", "vanilla"): 40, ("toy", "natural"): 29,
}
THRESHOLDS = {"h2-plateau": 0.05}  # plateau escape; every other preset uses 0.01
# runs that stop with MetricUndefinedError today: the classical Fisher metric of
# a single qubit degenerates on the way down (ROADMAP item 4)
KNOWN_UNDEFINED = frozenset({("qubit-a", "classical"), ("qubit-b", "classical")})
UNDEFINED = "undefined"  # steps to threshold of a run that stopped on MetricUndefinedError

CLOSED_FORM_TOL = 1e-10
ORDER_TOL = 1e-9
RECORD0_TOL = 1e-12
VARIATIONAL_TOL = 1e-9
GRADIENT_TOL = 1e-6


# ---------------------------------------------------------------------------
# correctness gates: each returns a list of messages, empty when the check holds

def steps_errors(label: str, observed: int | None, expected: int) -> list[str]:
    """Steps to threshold of one (preset, optimizer) run; None when it never got there."""
    return [] if observed == expected else [f"{label}: steps to threshold {observed} != {expected}"]


def undefined_errors(label: str, stopped: bool, known: bool) -> list[str]:
    """A run may stop on MetricUndefinedError only where that is known to happen today."""
    return [f"{label}: stopped on MetricUndefinedError"] if stopped and not known else []


def same_bytes_errors(label: str, digest: str, expected: str) -> list[str]:
    return [] if digest == expected else [f"{label}: output bytes differ between passes"]


def closed_form_errors(label: str, values: np.ndarray, expected: np.ndarray) -> list[str]:
    err = float(np.max(np.abs(values - expected)))
    return [] if err <= CLOSED_FORM_TOL else [f"{label}: F deviates from its closed form by {err:.3e}"]


def order_errors(label: str, upper: np.ndarray, lower: np.ndarray) -> list[str]:
    """upper - lower is PSD up to ORDER_TOL relative to the larger matrix."""
    gap = np.linalg.eigvalsh(upper - lower)[0]
    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(upper)))),
                float(np.max(np.abs(np.linalg.eigvalsh(lower)))))
    return [] if gap >= -ORDER_TOL * scale else [f"{label}: min eigenvalue of the gap {gap:.3e}"]


def record0_errors(label: str, energy0: float, expected: float) -> list[str]:
    err = abs(energy0 - expected)
    return [] if err <= RECORD0_TOL else [f"{label}: record-0 energy off by {err:.3e}"]


def variational_errors(label: str, energies, lam_min: float) -> list[str]:
    low = min(energies)
    return ([] if low >= lam_min - VARIATIONAL_TOL
            else [f"{label}: energy {low!r} below the ground energy {lam_min!r}"])


def gradient_errors(label: str, grad: np.ndarray, expected: np.ndarray) -> list[str]:
    err = float(np.max(np.abs(grad - expected)))
    return [] if err <= GRADIENT_TOL else [f"{label}: gradient off the central difference by {err:.3e}"]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def single_qubit_metric(theta) -> np.ndarray:
    return np.diag([1.0, math.sin(2 * theta[0]) ** 2])


def two_layer_metric(theta) -> np.ndarray:
    t1, t2 = theta[0], theta[1]
    f = np.eye(4)
    f[0, 2] = f[2, 0] = math.sin(2 * t2)
    f[1, 3] = f[3, 1] = math.cos(2 * t1)
    f[2, 3] = f[3, 2] = -math.sin(2 * t1) * math.cos(2 * t2)
    return f


def _first_of_each(records) -> dict:
    first = {}
    for index, rec in enumerate(records):
        if rec.error is None:
            first.setdefault(rec.unit, index)
    return first


# ---------------------------------------------------------------------------

class Presets:
    """All 5 presets x all 4 optimizers at each preset's published settings."""

    name = "presets"
    min_passes = 1
    per_point = False
    required = (
        "states.state_and_tangents", "observables.energy_and_gradient",
        "observables.spectral_decompose", "geometry.fubini_study_metric",
        "geometry.ite_matrix", "geometry.classical_fisher_metric", "geometry.MetricMatrix",
        "optimizers.run", "optimizers.solve_regularized", "experiments.compare",
        "cli.trajectory_to_csv", "svgplot.line_plot", "linalg.eigh", "linalg.eigvalsh",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.presets = {name: experiments.load_preset(name) for name in experiments.PRESET_NAMES}
        self.kinds = {k.value: k for k in optimizers.OptimizerKind}
        # the seed fixes the order in which presets and optimizers run
        self.order = [(name, [KINDS[i] for i in rng.permutation(len(KINDS))])
                      for name in (experiments.PRESET_NAMES[i]
                                   for i in rng.permutation(len(experiments.PRESET_NAMES)))]
        self._series: dict[str, list] = {}  # this pass's energy curves, per preset
        self.known_undefined = KNOWN_UNDEFINED

    def warm_up(self) -> None:
        for name, kinds in self.order:
            preset = self.presets[name]
            experiments.compare(preset, [self.kinds[kind] for kind in kinds], max_steps=1)

    def units(self) -> list:
        units = []
        for name, kinds in self.order:
            for kind in kinds:
                units.append(((name, kind), self._run_unit(name, kind)))
            units.append(((name, "svg"), self._plot_unit(name)))
        return units

    def _run_unit(self, name: str, kind: str):
        preset, opt = self.presets[name], self.kinds[kind]
        threshold = THRESHOLDS.get(name, 0.01)
        path = self.workdir / f"{name}_{kind}.csv"

        def unit():
            try:
                result = experiments.compare(preset, [opt], threshold=threshold).results[opt]
            except geometry.MetricUndefinedError as exc:
                return UNDEFINED, 0, f"{type(exc).__name__}: {exc}"
            traj = result.trajectory
            text = cli.trajectory_to_csv(traj)
            path.write_text(text, encoding="utf-8", newline="")
            self._series.setdefault(name, []).append(
                (kind, [s.k for s in traj.steps], [s.energy for s in traj.steps]))
            return result.steps_to_threshold, len(traj.steps), text

        return unit

    def _plot_unit(self, name: str):
        path = self.workdir / f"{name}_energy.svg"

        def unit():
            svg = svgplot.line_plot(self._series.pop(name, []), title=f"{name}: energy per iteration",
                                    xlabel="iteration", ylabel="energy")
            path.write_text(svg, encoding="utf-8", newline="")
            return None, 0, svg

        return unit

    def summarize(self, key, raw):
        steps_to_threshold, items, text = raw
        return items, (steps_to_threshold, _digest(text.encode()))

    def check(self, records, expected=README_STEPS) -> dict[int, list[str]]:
        errors: dict[int, list[str]] = {}
        first = _first_of_each(records)
        observed = {rec.unit: rec.data[0] for rec in records if rec.error is None}
        for key, want in expected.items():
            msgs = steps_errors("/".join(key), observed.get(key), want)
            if msgs:
                errors.setdefault(first.get(key, -1), []).extend(msgs)
        for index, rec in enumerate(records):
            if rec.error is None:
                label = "/".join(rec.unit)
                ref = records[first[rec.unit]].data[1]
                msgs = (same_bytes_errors(label, rec.data[1], ref)
                        + undefined_errors(label, rec.data[0] == UNDEFINED,
                                           rec.unit in self.known_undefined))
                if msgs:
                    errors.setdefault(index, []).extend(msgs)
        return errors

    @staticmethod
    def undefined(records) -> int:
        """Runs that stopped on MetricUndefinedError."""
        return sum(1 for rec in records if rec.error is None and rec.data[0] == UNDEFINED)


class Landscape:
    """Seeded random points on the h2 ansatz and the single-qubit ansatz."""

    name = "landscape"
    min_passes = 1
    per_point = True
    # exact shares, so the latency median falls inside the costlier h2 group
    # instead of on the seed-dependent border between the two groups
    n_single_qubit, n_h2 = 250, 750
    required = (
        "states.state_and_tangents", "observables.spectral_decompose",
        "geometry.fubini_study_metric", "geometry.ite_matrix",
        "geometry.classical_fisher_metric", "geometry.singularity_report",
        "geometry.MetricMatrix", "linalg.eigvalsh",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        problems = [
            (experiments.single_qubit_ansatz(), experiments.sigma_x_hamiltonian(), single_qubit_metric),
            (experiments.hardware_efficient_ansatz(), experiments.h2_hamiltonian(), two_layer_metric),
        ]
        choices = rng.permutation([0] * self.n_single_qubit + [1] * self.n_h2)
        self.points = []
        for choice in choices:
            circ, hamiltonian, closed_form = problems[choice]
            theta = rng.uniform(-math.pi, math.pi, circ.n_params)
            self.points.append((circ, hamiltonian, theta, closed_form))
        self._seen: set[int] = set()

    def warm_up(self) -> None:
        for _, unit in self.units()[:16]:
            unit()

    def units(self) -> list:
        return [(i, self._unit(*point[:3])) for i, point in enumerate(self.points)]

    @staticmethod
    def _unit(circ, hamiltonian, theta):
        def unit():
            f = geometry.fubini_study_metric(circ, theta)
            a = geometry.ite_matrix(circ, theta)
            fc = geometry.classical_fisher_metric(circ, theta, observables.spectral_decompose(hamiltonian))
            report = geometry.singularity_report(f)
            return f.values, a.values, fc.values, report

        return unit

    def summarize(self, key, raw):
        """Keep the matrices of a point's first evaluation, and a digest of later ones."""
        f, a, fc, _ = raw
        digest = _digest(b"".join(np.ascontiguousarray(x).tobytes() for x in (f, a, fc)))
        if key in self._seen:
            return 1, (None, digest)
        self._seen.add(key)
        return 1, (raw, digest)

    def check(self, records, closed_forms=None) -> dict[int, list[str]]:
        errors: dict[int, list[str]] = {}
        first = _first_of_each(records)
        for index, rec in enumerate(records):
            if rec.error is not None:
                continue
            label = f"point {rec.unit}"
            if first[rec.unit] != index:
                msgs = same_bytes_errors(label, rec.data[1], records[first[rec.unit]].data[1])
            else:
                f, a, fc, _ = rec.data[0]
                _, _, theta, closed_form = self.points[rec.unit]
                expected = (closed_forms or {}).get(rec.unit, closed_form(theta))
                msgs = (closed_form_errors(label, f, expected)
                        + order_errors(label + " A >= F", a, f)
                        + order_errors(label + " 4F >= FC", 4.0 * f, fc))
            if msgs:
                errors[index] = msgs
        return errors

    @staticmethod
    def undefined(records) -> int:
        return 0


class Wide:
    """Seeded 6-qubit circuits run through ``natvqe run --config ... --format json``."""

    name = "wide"
    min_passes = 2  # the output bytes are compared between passes
    per_point = False
    n_qubits = 6
    n_layers = 3
    n_terms = 16
    n_circuits = 4
    steps = 20
    eta = 0.05
    required = (
        "states.state_and_tangents", "observables.energy_and_gradient",
        "observables.spectral_decompose", "geometry.fubini_study_metric",
        "geometry.ite_matrix", "geometry.classical_fisher_metric", "geometry.MetricMatrix",
        "optimizers.run", "optimizers.solve_regularized", "cli.main",
        "cli.trajectory_to_json", "linalg.eigh", "linalg.eigvalsh",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.problems = []
        for index in range(self.n_circuits):
            spec = self._circuit_spec(rng)
            terms = self._hamiltonian_terms(rng)
            n_params = sum("param_index" in g for g in spec)
            theta0 = [float(x) for x in rng.uniform(-math.pi, math.pi, n_params)]
            config = workdir / f"wide{index}.json"
            config.write_text(json.dumps({
                "hamiltonian": terms,
                "circuit": {"n_qubits": self.n_qubits, "gates": spec},
                "theta0": theta0, "eta": self.eta,
            }), encoding="utf-8")
            self.problems.append((config, spec, terms, theta0))

    def _circuit_spec(self, rng) -> list[dict]:
        """Per layer: ry and phase (in seeded order) on every qubit, then a seeded CNOT chain."""
        gates, slot = [], 0
        for _ in range(self.n_layers):
            for qubit in range(self.n_qubits):
                pair = [{"kind": "ry", "targets": [qubit], "param_index": slot},
                        {"kind": "phase", "targets": [qubit], "param_index": slot + 1}]
                slot += 2
                gates += pair[::-1] if rng.random() < 0.5 else pair
            chain = [int(q) for q in rng.permutation(self.n_qubits)]
            gates += [{"kind": "cnot", "targets": [c, t]} for c, t in zip(chain, chain[1:])]
        return gates

    def _hamiltonian_terms(self, rng) -> list:
        labels: set[str] = set()
        while len(labels) < self.n_terms:
            label = "".join(rng.choice(list("IXYZ"), self.n_qubits))
            if label != "I" * self.n_qubits:
                labels.add(label)
        return [[float(rng.uniform(-1.0, 1.0)), label] for label in sorted(labels)]

    def _argv(self, config: Path, out_dir: Path, steps: int) -> list[str]:
        return ["run", "--config", str(config), "--optimizer", ",".join(KINDS),
                "--format", "json", "--steps", str(steps), "--out-dir", str(out_dir)]

    def _call(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        for config, *_ in self.problems:
            code = self._call(self._argv(config, self.workdir / "warm", 1))
            if code != 0:
                raise RuntimeError(f"warm-up of {config.name} exited {code}")

    def units(self) -> list:
        units = []
        for index, (config, *_) in enumerate(self.problems):
            argv = self._argv(config, self.workdir / f"out{index}", self.steps)
            units.append((index, lambda argv=argv: self._call(argv)))
        return units

    def summarize(self, key, raw):
        if raw != 0:
            raise RuntimeError(f"natvqe run exited {raw}")
        config = self.problems[key][0]
        energies, digests = {}, {}
        for kind in KINDS:
            data = (self.workdir / f"out{key}" / f"{config.stem}_{kind}.json").read_bytes()
            energies[kind] = [step["energy"] for step in json.loads(data)["steps"]]
            digests[kind] = _digest(data)
        return sum(len(e) for e in energies.values()), (energies, digests)

    def problem(self, key):
        _, spec, terms, theta0 = self.problems[key]
        make = {"ry": states.ry, "phase": states.phase}
        gates = [make[g["kind"]](g["targets"][0], g["param_index"]) if g["kind"] in make
                 else states.cnot(*g["targets"]) for g in spec]
        circ = states.circuit(self.n_qubits, gates)
        return circ, observables.pauli_sum(self.n_qubits, [tuple(t) for t in terms]), np.array(theta0)

    def oracles(self, key) -> dict:
        """Reference values computed outside the timed pass."""
        circ, hamiltonian, theta0 = self.problem(key)
        _, grad = observables.energy_and_gradient(hamiltonian, circ, theta0)
        h = 1e-5
        fd = np.empty_like(grad)
        for i in range(len(theta0)):
            step = np.zeros_like(theta0)
            step[i] = h
            up = observables.energy(hamiltonian, states.build_state(circ, theta0 + step))
            down = observables.energy(hamiltonian, states.build_state(circ, theta0 - step))
            fd[i] = (up - down) / (2 * h)
        return {
            "energy0": observables.energy(hamiltonian, states.build_state(circ, theta0)),
            "lam_min": float(np.linalg.eigvalsh(observables.dense_matrix(hamiltonian))[0]),
            "grad": grad,
            "fd_grad": fd,
        }

    def check(self, records, oracles=None) -> dict[int, list[str]]:
        errors: dict[int, list[str]] = {}
        first = _first_of_each(records)
        oracles = oracles or {key: self.oracles(key) for key in first}
        for key in first:
            ref = oracles[key]
            msgs = gradient_errors(f"circuit {key}", ref["grad"], ref["fd_grad"])
            if msgs:
                errors.setdefault(first[key], []).extend(msgs)
        for index, rec in enumerate(records):
            if rec.error is not None:
                continue
            energies, digests = rec.data
            ref = oracles[rec.unit]
            first_digests = records[first[rec.unit]].data[1]
            msgs = []
            for kind in KINDS:
                label = f"circuit {rec.unit}/{kind}"
                msgs += record0_errors(label, energies[kind][0], ref["energy0"])
                msgs += variational_errors(label, energies[kind], ref["lam_min"])
                msgs += same_bytes_errors(label, digests[kind], first_digests[kind])
            if msgs:
                errors[index] = msgs
        return errors

    @staticmethod
    def undefined(records) -> int:
        return 0


WORKLOADS = {cls.name: cls for cls in (Presets, Landscape, Wide)}
