"""Dense statevector simulation of small parametrized circuits.

States live in the full 2**n complex amplitude space; qubit 0 is the most
significant bit of the amplitude index, so a two-qubit product state is
``kron(qubit0, qubit1)``.  Parameter derivatives are exact: every
parametrized gate carries its generator, and one forward sweep accumulates
d|phi>/d(theta_i) for all parameters simultaneously via the product rule.

Each circuit compiles its sweep once, at construction.  The batch of the
state and its m tangents is a ``(m+1, 2**n)`` array whose columns hold the
amplitudes in a layout the compiler tracks.  A CNOT permutes basis states, so
it only relabels that layout and costs nothing at run time.  Every other gate
is one step: an optional precomputed gather of the columns that puts the
gate's targets last, in listed order, then one ``np.dot`` of the batch, viewed
as ``(rows * 2**(n-k), 2**k)``, by ``U.T``; a final gather restores the
natural amplitude order.  Those are the operands, in the same layout, that
``np.tensordot`` builds, so every amplitude equals that of a tensordot sweep
bit for bit (a CNOT contracted by tensordot may flip the sign of a zero).  The
kernel replays tensordot's arithmetic on purpose: at the ``h2-plateau`` start
three of the four gradient components are round-off (1e-17 to 1e-16), so
round-off seeds the plateau escape.  An ``einsum`` sweep, which differs from
this one only in the last bit of some amplitudes, takes 450 natural-gradient
steps to escape instead of the 487 that tensordot's arithmetic gives.

A state is its read-only complex amplitude array, of length 2**n.  Every
circuit also keeps its last ``state_and_tangents`` result, keyed by the bytes
of theta, so the energy, gradient and metrics at one point share a single
sweep.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12

__all__ = [
    "GateKind",
    "Gate",
    "AnsatzCircuit",
    "ry",
    "phase",
    "cnot",
    "fixed_unitary",
    "circuit",
    "check_parameters",
    "state_and_tangents",
    "build_state",
]


class GateKind(Enum):
    RY = "ry"            # exp(-i*theta*sigma_y), a y-rotation by angle 2*theta
    PHASE = "phase"      # diag(1, exp(2i*theta))
    CNOT = "cnot"
    UNITARY = "unitary"  # fixed explicit matrix


# d/dtheta exp(-i*theta*sigma_y) = (-i*sigma_y) @ U
_RY_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
# d/dtheta diag(1, e^{2i*theta}) = (2i |1><1|) @ U
_PHASE_GENERATOR = np.array([[0.0, 0.0], [0.0, 2.0j]], dtype=complex)

_PARAMETRIZED = (GateKind.RY, GateKind.PHASE)


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit element acting on ``targets`` (control first for CNOT)."""

    kind: GateKind
    targets: tuple[int, ...]
    param_index: int | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(set(self.targets)) != len(self.targets) or any(t < 0 for t in self.targets):
            raise ValueError(f"gate targets must be distinct and non-negative, got {self.targets}")
        if self.kind in _PARAMETRIZED:
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind.value} acts on exactly one qubit")
            if self.param_index is None or self.param_index < 0:
                raise ValueError(f"{self.kind.value} requires a parameter slot")
            if self.matrix is not None:
                raise ValueError(f"{self.kind.value} does not take an explicit matrix")
            return
        if self.param_index is not None:
            raise ValueError(f"{self.kind.value} takes no parameter")
        if self.kind is GateKind.CNOT:
            if len(self.targets) != 2:
                raise ValueError("cnot acts on (control, target)")
            if self.matrix is not None:
                raise ValueError("cnot does not take an explicit matrix")
            return
        # fixed unitary
        if self.matrix is None:
            raise ValueError("unitary gate requires an explicit matrix")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(self.targets)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not fit {len(self.targets)} qubit(s)")
        if np.max(np.abs(mat @ mat.conj().T - np.eye(dim))) > 1e-12:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "matrix", _frozen(mat))


def ry(target: int, param_index: int) -> Gate:
    """Rotation exp(-i*theta*sigma_y) on one qubit, driven by parameter slot ``param_index``."""
    return Gate(GateKind.RY, (target,), param_index)


def phase(target: int, param_index: int) -> Gate:
    """Relative phase diag(1, e^{2i*theta}) on one qubit."""
    return Gate(GateKind.PHASE, (target,), param_index)


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def fixed_unitary(matrix: np.ndarray, *targets: int) -> Gate:
    return Gate(GateKind.UNITARY, tuple(targets), matrix=matrix)


@dataclass(frozen=True, eq=False)
class AnsatzCircuit:
    """Ordered gate list defining U(theta) on ``n_qubits`` with ``n_params`` slots.

    ``_plan`` is the compiled sweep ``(steps, restore)``: one ``(gather, gate)``
    step per gate other than CNOT, and the gather back to natural order.
    ``_memo`` holds the last ``state_and_tangents`` result as
    ``(theta bytes, phi, tangents)``.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int
    _plan: tuple = field(init=False, repr=False)
    _memo: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        used: set[int] = set()
        for gate in self.gates:
            if any(t >= self.n_qubits for t in gate.targets):
                raise ValueError(f"gate targets {gate.targets} exceed {self.n_qubits} qubits")
            if gate.param_index is not None:
                if gate.param_index >= self.n_params:
                    raise ValueError(f"parameter index {gate.param_index} out of range")
                used.add(gate.param_index)
        missing = set(range(self.n_params)) - used
        if missing:
            raise ValueError(f"parameter slots never used by any gate: {sorted(missing)}")
        object.__setattr__(self, "_plan", _compile(self.gates, self.n_qubits))


def circuit(n_qubits: int, gates: Iterable[Gate]) -> AnsatzCircuit:
    """Build a circuit, inferring the parameter count from the gate list."""
    gates = tuple(gates)
    indices = {g.param_index for g in gates if g.param_index is not None}
    n_params = max(indices) + 1 if indices else 0
    return AnsatzCircuit(n_qubits, gates, n_params)


def check_parameters(circ: AnsatzCircuit, theta: Sequence[float]) -> np.ndarray:
    """Validate a parameter vector against a circuit and return it as a float array."""
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (circ.n_params,):
        raise ValueError(f"circuit takes {circ.n_params} parameter(s), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("parameters must be finite")
    return arr


def _gate_unitary(gate: Gate, theta: np.ndarray) -> np.ndarray:
    if gate.kind is GateKind.RY:
        t = theta[gate.param_index]
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind is GateKind.PHASE:
        t = theta[gate.param_index]
        return np.array([[1.0, 0.0], [0.0, np.exp(2.0j * t)]], dtype=complex)
    return gate.matrix


def _gate_tangent(gate: Gate, unitary: np.ndarray) -> np.ndarray | None:
    """d/dtheta of the gate unitary, or None for fixed gates."""
    if gate.kind is GateKind.RY:
        return _RY_GENERATOR @ unitary
    if gate.kind is GateKind.PHASE:
        return _PHASE_GENERATOR @ unitary
    return None


def _gather(held: np.ndarray, want: np.ndarray) -> np.ndarray | None:
    """The column index that turns layout ``held`` into ``want``, or None if they agree."""
    column = np.empty_like(held)
    column[held] = np.arange(held.size)
    index = column[want]
    if np.array_equal(index, np.arange(index.size)):
        return None
    index.setflags(write=False)
    return index


def _compile(gates: tuple[Gate, ...], n: int) -> tuple:
    """The sweep as ``(steps, restore)``; ``held[j]`` is the amplitude column j holds.

    A CNOT flips the target bit of every held index whose control bit is set.
    Any other gate is a step ``(gather, gate)``, where ``out[:, j] =
    in[:, gather[j]]`` puts the other qubits first, in natural order, and the
    targets last, in listed order.
    """
    held = natural = np.arange(2 ** n)
    steps = []
    for gate in gates:
        if gate.kind is GateKind.CNOT:
            control, target = (1 << (n - 1 - q) for q in gate.targets)
            held = np.where(held & control, held ^ target, held)
            continue
        order = [q for q in range(n) if q not in gate.targets] + list(gate.targets)
        want = natural.reshape((2,) * n).transpose(order).ravel()
        steps.append((_gather(held, want), gate))
        held = want
    return tuple(steps), _gather(held, natural)


def state_and_tangents(circ: AnsatzCircuit, theta: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Return the state U(theta)|0..0> and all its parameter derivatives.

    Returns a pair ``(phi, tangents)`` of read-only arrays with shapes (2**n,)
    and (m, 2**n).  Row i of ``tangents`` is the exact d|phi>/d(theta_i),
    obtained by inserting the gate generator at every occurrence of parameter
    i and summing (product rule), all in a single sweep over the gate list:
    the generator is pushed through the state row and added to row i after
    the gate is applied.  The circuit remembers the last result, so asking
    again at the same theta (the same bytes) returns the same arrays.
    """
    theta = check_parameters(circ, theta)
    key = theta.tobytes()
    memo = circ._memo
    if memo is not None and memo[0] == key:
        return memo[1], memo[2]
    rows, n = circ.n_params + 1, circ.n_qubits
    half = 2 ** (n - 1)
    batch = np.zeros((rows, 2 ** n), dtype=complex)
    batch[0, 0] = 1.0
    steps, restore = circ._plan
    for gather, gate in steps:
        if gather is not None:
            batch = batch.take(gather, axis=1)
        unitary = _gate_unitary(gate, theta)
        tangent = _gate_tangent(gate, unitary)
        flat = batch.reshape(-1, len(unitary))
        if tangent is not None:
            pushed = np.dot(flat[:half], tangent.T)
        flat = np.dot(flat, unitary.T)
        if tangent is not None:
            row = (1 + gate.param_index) * half
            flat[row:row + half] += pushed
        batch = flat.reshape(rows, -1)
    flat = batch if restore is None else batch.take(restore, axis=1)
    flat.setflags(write=False)
    phi, tangents = flat[0], flat[1:]
    object.__setattr__(circ, "_memo", (key, phi, tangents))
    return phi, tangents


def build_state(circ: AnsatzCircuit, theta: Sequence[float]) -> np.ndarray:
    """Evaluate U(theta)|0..0> as a read-only amplitude array (norm 1 within NORM_TOL).

    It is the state row of ``state_and_tangents``, the same array: a sweep of
    the state row alone would round differently in BLAS.
    """
    amps, _ = state_and_tangents(circ, theta)
    if abs(np.vdot(amps, amps).real - 1.0) > NORM_TOL:
        raise ArithmeticError("circuit application lost normalization")
    return amps
