"""Problem instances, the built-in case studies and optimizer comparisons.

A ``Problem`` is a Hamiltonian, an ansatz, a start and run settings; its
``from_json``/``to_json`` pair is the one reader and writer of the JSON
problem documents that ``natvqe run --config`` reads and that ``--format
json`` trajectories echo.  Two problem families are packaged as named presets,
one row each of the ``_PRESETS`` table, whose keys in order are ``PRESET_NAMES``:

* ``qubit-a`` / ``qubit-b``: drive a single qubit to the ground state of
  sigma_x from two different starting points; the ansatz
  [cos(t1), e^{2i*t2} sin(t1)] has singular lines at t1 = 0 and t1 = pi/2
  where t2 stops moving the state.
* ``h2-a`` / ``h2-plateau`` / ``toy``: a two-qubit molecular Hamiltonian
  alpha*(ZI + IZ) + beta*XX under a hardware-efficient Ry/CNOT/Ry ansatz,
  including a plateau start near the first excited state and a weakly
  coupled variant whose ground state sits next to the singular set.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Mapping, Sequence

import numpy as np

from .geometry import check_tolerance
from .observables import PauliHamiltonian, dense_matrix, pauli_sum
from .optimizers import (
    DEFAULT_POLICY,
    ConstantRate,
    OptimizerKind,
    RegularizationPolicy,
    Trajectory,
    check_limits,
    run,
)
from .states import (AnsatzCircuit, Gate, GateKind, check_parameters, check_real, circuit, cnot,
                     phase, ry)

__all__ = [
    "Problem",
    "OptimizerResult",
    "ComparisonReport",
    "PRESET_NAMES",
    "single_qubit_ansatz",
    "hardware_efficient_ansatz",
    "sigma_x_hamiltonian",
    "h2_hamiltonian",
    "load_preset",
    "steps_to_threshold",
    "compare",
]

DEFAULT_THRESHOLD = 0.01


def single_qubit_ansatz() -> AnsatzCircuit:
    """Two-gate realization of [cos(t1), e^{2i*t2} sin(t1)]."""
    return circuit(1, [ry(0, 0), phase(0, 1)])


def hardware_efficient_ansatz() -> AnsatzCircuit:
    """Two qubits: an Ry layer, one CNOT, another Ry layer (4 parameters)."""
    return circuit(2, [ry(0, 0), ry(1, 1), cnot(0, 1), ry(0, 2), ry(1, 3)])


def sigma_x_hamiltonian() -> PauliHamiltonian:
    return pauli_sum(1, [(1.0, "X")])


def h2_hamiltonian(alpha: float = 0.4, beta: float = 0.2) -> PauliHamiltonian:
    """Two-qubit molecular model alpha*(ZI + IZ) + beta*XX."""
    return pauli_sum(2, [(alpha, "ZI"), (alpha, "IZ"), (beta, "XX")])


@dataclass(frozen=True, eq=False)
class Problem:
    """A named problem instance: a Hamiltonian, an ansatz, a start and run settings.

    The Hamiltonian and the circuit must act on the same qubits, the circuit have a parameter
    slot, ``theta0`` be numbers that fit it, ``eta`` be positive and finite and ``max_steps``
    a whole number from 1 to ``optimizers.MAX_STEPS``; all are checked at construction, and
    ``theta0`` and ``eta`` are stored as Python floats, ``max_steps`` as an int.
    ``reference_energy`` is not an input: it is the Hamiltonian's ground energy,
    computed by exact diagonalization, which ``compare`` measures against.

    ``from_json`` reads and ``to_json`` writes a problem as a JSON document,
    the format of ``natvqe run --config``::

        {"hamiltonian": [[0.4, "ZI"], [0.4, "IZ"], [0.2, "XX"]],
         "circuit": {"n_qubits": 2, "gates": [
             {"kind": "ry", "targets": [0], "param_index": 0},
             {"kind": "ry", "targets": [1], "param_index": 1},
             {"kind": "cnot", "targets": [0, 1]},
             {"kind": "phase", "targets": [0], "param_index": 2},
             {"kind": "unitary", "targets": [0], "matrix": [[[0,0],[1,0]],[[1,0],[0,0]]]}]},
         "theta0": [0.1, 0.2, 0.3], "eta": 0.05, "max_steps": 200}

    Gate kinds: "ry" (y-rotation by twice the parameter), "phase"
    (diag(1, e^{2i*theta})), "cnot" (targets = [control, target]), "unitary"
    (explicit matrix; entries are [re, im] pairs).  ``n_qubits`` (1 to
    ``states.MAX_QUBITS``), targets and ``param_index`` must be JSON integers,
    and coefficients, matrix entries, ``theta0``, ``eta`` (default 0.05) and
    ``max_steps`` (default 100) JSON numbers that fit a float, not strings or
    booleans.
    """

    name: str
    hamiltonian: PauliHamiltonian
    circuit: AnsatzCircuit
    theta0: tuple[float, ...]
    eta: float
    max_steps: int

    def __post_init__(self) -> None:
        if self.hamiltonian.n_qubits != self.circuit.n_qubits:
            raise ValueError(f"hamiltonian acts on {self.hamiltonian.n_qubits} qubit(s), "
                             f"circuit on {self.circuit.n_qubits}")
        theta0 = check_parameters(self.circuit, self.theta0, "theta0 entry")
        object.__setattr__(self, "theta0", tuple(theta0.tolist()))
        object.__setattr__(self, "eta", ConstantRate(self.eta).eta)  # the schedule's own check
        check_limits(self.max_steps)
        object.__setattr__(self, "max_steps", int(self.max_steps))

    @property
    def reference_energy(self) -> float:
        """The Hamiltonian's ground energy, the lowest eigenvalue of its dense matrix."""
        return float(np.linalg.eigvalsh(dense_matrix(self.hamiltonian))[0])

    @classmethod
    def from_json(cls, doc: Mapping, name: str) -> Problem:
        """The problem a JSON document describes; a ``ValueError`` says what is wrong with it."""
        try:
            circ = _circuit_from_json(doc["circuit"])
            hamiltonian = _hamiltonian_from_json(doc["hamiltonian"], circ.n_qubits)
            return cls(name, hamiltonian, circ, doc["theta0"], doc.get("eta", 0.05),
                       doc.get("max_steps", 100))
        except KeyError as exc:
            raise ValueError(f"config file missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad config file: {exc}") from exc

    def to_json(self) -> dict:
        """The problem as a JSON document, which ``from_json`` reads back gate for gate."""
        return {
            "hamiltonian": [[c, s] for c, s in self.hamiltonian.terms],
            "circuit": {"n_qubits": self.circuit.n_qubits,
                        "gates": [_gate_to_json(g) for g in self.circuit.gates]},
            "theta0": list(self.theta0),
            "eta": self.eta,
            "max_steps": self.max_steps,
        }


def _gate_from_json(entry, index: int) -> Gate:
    try:
        kind = GateKind(entry["kind"])
        targets = tuple(entry["targets"])
        rows = entry["matrix"] if kind is GateKind.UNITARY else None
    except KeyError as exc:
        raise ValueError(f"gate {index} missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad gate entry {entry!r}: {exc}") from exc
    matrix = None
    if kind is GateKind.UNITARY:
        try:
            matrix = np.array([[complex(check_real(real, "matrix entry"),
                                        check_real(imag, "matrix entry"))
                                for real, imag in row] for row in rows])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad unitary matrix in gate {index}: {exc}") from exc
    return Gate(kind, targets, entry.get("param_index"), matrix)


def _gate_to_json(gate: Gate) -> dict:
    entry = {"kind": gate.kind.value, "targets": list(gate.targets)}
    if gate.param_index is not None:
        entry["param_index"] = gate.param_index
    if gate.matrix is not None:
        entry["matrix"] = [[[z.real, z.imag] for z in row] for row in gate.matrix.tolist()]
    return entry


def _circuit_from_json(entry) -> AnsatzCircuit:
    try:
        n_qubits = entry["n_qubits"]
        gates = [_gate_from_json(g, i) for i, g in enumerate(entry["gates"])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"circuit entry needs n_qubits and gates: {exc}") from exc
    return circuit(n_qubits, gates)


def _hamiltonian_from_json(terms, n_qubits: int) -> PauliHamiltonian:
    try:
        return pauli_sum(n_qubits, terms)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad hamiltonian terms: {exc}") from exc


# name -> (Hamiltonian, ansatz function, theta0, eta, max_steps); a preset's
# ground energy is computed from its Hamiltonian, like any problem's
_PRESETS = {
    "qubit-a": (sigma_x_hamiltonian(), single_qubit_ansatz, (pi / 12, pi / 12), 0.05, 300),
    "qubit-b": (sigma_x_hamiltonian(), single_qubit_ansatz, (5 * pi / 12, pi / 12), 0.05, 300),
    "h2-a": (h2_hamiltonian(0.4, 0.2), hardware_efficient_ansatz,
             (-0.2, -0.2, 0.0, 0.0), 0.05, 1000),
    "h2-plateau": (h2_hamiltonian(0.4, 0.2), hardware_efficient_ansatz,
                   (7 * pi / 32, pi / 2, 0.0, 0.0), 0.05, 3000),
    "toy": (h2_hamiltonian(0.4, 0.02), hardware_efficient_ansatz,
            (-0.2, -0.2, 0.0, 0.0), 0.05, 3000),
}

PRESET_NAMES = tuple(_PRESETS)


def load_preset(name: str) -> Problem:
    """Look up a built-in preset by name; each call builds a fresh circuit."""
    if name not in PRESET_NAMES:  # a tuple: an unhashable name is unknown, not a TypeError
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    hamiltonian, ansatz, theta0, eta, max_steps = _PRESETS[name]
    return Problem(name, hamiltonian, ansatz(), theta0, eta, max_steps)


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    """Outcome of one optimizer on one problem."""

    steps_to_threshold: int | None
    trajectory: Trajectory


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-optimizer outcomes for one problem under identical run settings."""

    results: Mapping[OptimizerKind, OptimizerResult]


def steps_to_threshold(trajectory: Trajectory, reference: float, threshold: float) -> int | None:
    """Index of the first record with energy <= reference + threshold, if any."""
    for record in trajectory.steps:
        if record.energy <= reference + threshold:
            return record.k
    return None


def compare(
    problem: Problem,
    kinds: Sequence[OptimizerKind],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    policy: RegularizationPolicy = DEFAULT_POLICY,
    max_steps: int | None = None,
) -> ComparisonReport:
    """Run each optimizer on any problem at its constant rate ``eta`` under one policy and
    count its steps to within ``threshold`` (finite, >= 0) of the problem's ground energy;
    to run it at another rate, pass ``dataclasses.replace(problem, eta=...)``."""
    check_tolerance(threshold, "threshold")
    schedule = ConstantRate(problem.eta)
    limit = max_steps if max_steps is not None else problem.max_steps
    reference = problem.reference_energy
    results: dict[OptimizerKind, OptimizerResult] = {}
    for kind in kinds:
        trajectory = run(kind, problem.hamiltonian, problem.circuit, problem.theta0,
                         schedule, policy, max_steps=limit)
        results[kind] = OptimizerResult(
            steps_to_threshold(trajectory, reference, threshold), trajectory)
    return ComparisonReport(results)
