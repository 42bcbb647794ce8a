"""Dense statevector simulation of small parametrized circuits.

States live in the full 2**n complex amplitude space; qubit 0 is the most
significant bit of the amplitude index, so a two-qubit product state is
``kron(qubit0, qubit1)``.  Parameter derivatives are exact: every
parametrized gate carries its generator, and one forward sweep accumulates
d|phi>/d(theta_i) for all parameters simultaneously via the product rule.

Each circuit compiles its sweep once, at construction.  The batch of the state
and its m tangents is a ``(m+1, 2**n)`` array whose columns hold the
amplitudes in a layout the compiler tracks.  A CNOT permutes basis states, so
it only relabels that layout and costs nothing at run time.  Every other gate
is one step: an optional precomputed gather, one flat index into the batch,
that puts the gate's targets last, in listed order, then one ``np.dot`` of the
batch, viewed as ``(rows * 2**(n-k), 2**k)``, by ``U.T``; a final gather
restores the natural amplitude order.  Those are the operands, in the same
layout, that ``np.tensordot`` builds, so every amplitude equals that of a
tensordot sweep bit for bit (a CNOT contracted by tensordot may flip the sign
of a zero).  The kernel replays tensordot's arithmetic on purpose: at the
``h2-plateau`` start three of the four gradient components are round-off
(1e-17 to 1e-16), so round-off seeds the plateau escape.  An ``einsum`` sweep,
which differs from this one only in the last bit of some amplitudes, takes 450
natural-gradient steps to escape instead of the 487 that tensordot's
arithmetic gives.

Tangent row i is exactly zero until the first gate of slot i, so a step
multiplies only a prefix of the batch: the state row, every tangent row up to
the highest slot opened so far and one stand-in zero row, at most m + 1 rows.
When a gate opens a slot beyond the prefix, the rows it adds are copies of the
stand-in, made by the step's gather, so they go through its dot like every
other row.  This keeps the bits of the full batch.  Each row of a ``np.dot``
product is the same whatever the row count, as long as there are at least two
rows (numpy sends a one-row product to gemv, which rounds differently from
gemm), and the stand-in has gone through every gate, so it carries the signed
zeros that the full product gives the rows it has not reached yet (a plain
+0.0 row would differ in the sign of some zeros).  The ry and phase matrices
are built once per sweep: one sin, cos and exp over all their angles, and one
stacked product with the generators for the derivatives, bit for bit the
matrices that building each gate alone gives.

A state is its read-only complex amplitude array, of length 2**n.  Every
circuit also keeps its last ``state_and_tangents`` result, keyed only by the
bytes of a float theta (any other input passes ``check_parameters`` first), so
the energy, gradient and metrics at one point share a single sweep.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
MAX_QUBITS = 10  # a dense 10-qubit Hamiltonian takes 16 MB, a 12-qubit one 256 MB

__all__ = [
    "MAX_QUBITS",
    "GateKind",
    "Gate",
    "AnsatzCircuit",
    "ry",
    "phase",
    "cnot",
    "fixed_unitary",
    "circuit",
    "check_integer",
    "check_real",
    "check_numbers",
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
_ONE_ZERO = np.array([1.0, 0.0], dtype=complex)
_TWO_I = np.array(2.0j)


def check_integer(value, what: str) -> int:
    """``value`` as a Python int: a Python or numpy integer passes, a bool or anything else not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_real(value, what: str) -> float:
    """``value`` as a Python float: a Python or numpy integer or float passes, a bool or
    anything else not, and an integer past the float range is named, not echoed."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def check_numbers(values, what: str, dtype: type = float) -> np.ndarray:
    """``values`` as a ``dtype`` (float or complex) array: an int or float ndarray (or complex, for
    complex) is cast, and passes untouched if it has ``dtype``; any other input is cast after each
    entry passes ``check_real`` (or is complex, for complex), so a bool or a string is refused."""
    if isinstance(values, np.ndarray) and values.dtype.kind in ("iufc" if dtype is complex else "iuf"):
        return values if values.dtype == dtype else values.astype(dtype)
    arr = np.asarray(values, dtype=object)
    for x in arr.flat:
        if not (dtype is complex and isinstance(x, (complex, np.complexfloating))):
            check_real(x, what)
    return arr.astype(dtype)


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit element acting on ``targets`` (control first for CNOT)."""

    kind: GateKind
    targets: tuple[int, ...]
    param_index: int | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets",
                           tuple(check_integer(t, "gate target") for t in self.targets))
        if self.param_index is not None:
            object.__setattr__(self, "param_index", check_integer(self.param_index, "param_index"))
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
        mat = np.array(check_numbers(self.matrix, "matrix entry", complex))  # a copy, frozen below
        dim = 2 ** len(self.targets)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not fit {len(self.targets)} qubit(s)")
        with np.errstate(invalid="ignore"):  # a NaN or infinite entry fails the check
            if not np.max(np.abs(mat @ mat.conj().T - np.eye(dim))) <= 1e-12:
                raise ValueError("matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


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

    ``n_params`` is derived: the highest slot + 1.  Every slot below it must be used.

    ``_plan`` is the compiled sweep ``(steps, restore, start, unitary_plan)``:
    one step per gate other than CNOT, the gather back to natural order, the
    read-only starting batch (the state |0..0> and the stand-in zero row) and
    what ``_unitaries`` needs to build the ry and phase matrices.  A step
    multiplies the whole batch it is handed: the state row, every tangent row
    up to the highest slot opened so far and one stand-in zero row, at most
    m + 1 rows.  The stand-in has gone through every gate so far, so it holds
    the zeros, signs included, that the rows not yet reached hold in a
    full-batch sweep; a step that opens a slot beyond the batch copies it into
    the new rows with its gather, before its dot.  Every gather is one flat
    index into the batch.  A batch short of m + 1 rows has at least two, so
    BLAS gives each row the bits it has in the full batch.
    ``_memo`` holds the last ``state_and_tangents`` result as
    ``(theta bytes, phi, tangents)``.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int = field(init=False)
    _plan: tuple = field(init=False, repr=False)
    _memo: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", check_integer(self.n_qubits, "n_qubits"))
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be between 1 and {MAX_QUBITS}, got {self.n_qubits}")
        used: set[int] = set()
        for gate in self.gates:
            if any(t >= self.n_qubits for t in gate.targets):
                raise ValueError(f"gate targets {gate.targets} exceed {self.n_qubits} qubits")
            if gate.param_index is not None:
                used.add(gate.param_index)
        n_params = max(used) + 1 if used else 0
        if len(used) < n_params:
            # the first ten gaps: a slot number can be huge, the gate count is not
            missing = [k for k in range(min(n_params, len(used) + 10)) if k not in used][:10]
            more = n_params - len(used) - len(missing)
            raise ValueError(f"parameter slots never used by any gate: {missing}"
                             + (f" and {more} more" if more else ""))
        object.__setattr__(self, "n_params", n_params)
        object.__setattr__(self, "_plan", _compile(self.gates, self.n_qubits, n_params))


def circuit(n_qubits: int, gates: Iterable[Gate]) -> AnsatzCircuit:
    """Build a circuit from any iterable of gates."""
    return AnsatzCircuit(n_qubits, tuple(gates))


def check_parameters(circ: AnsatzCircuit, theta: Sequence[float], what="theta entry") -> np.ndarray:
    """Validate a parameter vector against a circuit and return it as a float array, whose
    entries pass ``check_numbers`` as ``what``; the sweep memo is keyed only on such an array."""
    arr = check_numbers(theta, what)
    if arr.shape != (circ.n_params,):
        raise ValueError(f"circuit takes {circ.n_params} parameter(s), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("parameters must be finite")
    return arr


def _unitaries(theta: np.ndarray, slots: np.ndarray, rotations: bool, phases: bool,
               table: np.ndarray, generators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transposes of every parametrized gate's unitary and of its d/dtheta, in gate order.

    Gate j has the angle ``theta[slots[j]]``.  One sin, cos and exp over the
    angles fill the values ``[1, 0, cos, sin, -sin, exp(2i*theta)]`` (the
    trigonometric part only if there are ``rotations``, the exponential only
    if there are ``phases``), ``table`` gathers them into a ``(G, 2, 2)``
    stack, and one stacked product with ``generators`` gives the derivatives.
    Each matrix has the bits of building its gate alone.
    """
    angles = theta[slots]
    values = [_ONE_ZERO]
    if rotations:
        sines = np.sin(angles)
        values += (np.cos(angles), sines, -sines)
    if phases:
        values.append(np.exp(_TWO_I * angles))
    unitaries = np.concatenate(values).take(table).reshape(-1, 2, 2)
    return unitaries.transpose(0, 2, 1), np.matmul(generators, unitaries).transpose(0, 2, 1)


def _gather(held: np.ndarray, want: np.ndarray, rows: int, grown: int) -> np.ndarray | None:
    """The flat index from ``rows`` rows in layout ``held`` to ``grown`` rows in ``want``.

    Row r is row min(r, rows - 1), so new rows copy the stand-in.  None if it changes nothing.
    """
    column = np.empty_like(held)
    column[held] = np.arange(held.size)
    columns = column[want]
    if grown == rows and np.array_equal(columns, np.arange(columns.size)):
        return None
    index = np.minimum(np.arange(grown), rows - 1)[:, None] * held.size + columns
    index.setflags(write=False)
    return index


def _unitary_plan(params: list[Gate]) -> tuple:
    """The arguments of ``_unitaries`` after theta, for the parametrized gates in gate order."""
    g = len(params)
    rotations = any(gate.kind is GateKind.RY for gate in params)
    phases = any(gate.kind is GateKind.PHASE for gate in params)
    cos, sin, minus_sin = 2, 2 + g, 2 + 2 * g
    exp = 2 + 3 * g if rotations else 2
    table = []
    for j, gate in enumerate(params):
        if gate.kind is GateKind.RY:
            table += [cos + j, minus_sin + j, sin + j, cos + j]
        else:
            table += [0, 1, 1, exp + j]
    slots = np.array([gate.param_index for gate in params], dtype=np.intp)
    generators = [_RY_GENERATOR if gate.kind is GateKind.RY else _PHASE_GENERATOR
                  for gate in params]
    return (slots, rotations, phases, np.array(table, dtype=np.intp),
            np.array(generators, dtype=complex).reshape(-1, 2, 2))


def _compile(gates: tuple[Gate, ...], n: int, m: int) -> tuple:
    """The sweep as ``(steps, restore, start, unitary_plan)``; see ``AnsatzCircuit``.

    ``held[j]`` is the amplitude column j holds.  A CNOT flips the target bit
    of every held index whose control bit is set.  Any other gate is a step
    ``(gather, index, matrix, offset)``, where ``gather`` (see ``_gather``)
    indexes the flattened batch: it puts the other qubits first, in natural
    order, and the targets last, in listed order, and a gate that opens a slot
    beyond the batch also copies the stand-in into the new rows.  A fixed gate
    carries its ``matrix``, transposed.  The parametrized gate number
    ``index`` adds its pushed state row at flat row ``offset``.
    """
    dim = 2 ** n
    held = natural = np.arange(dim)
    half = dim // 2
    start = np.zeros((min(2, m + 1), dim), dtype=complex)
    start[0, 0] = 1.0
    start.setflags(write=False)
    rows = len(start)
    steps, index = [], 0
    for gate in gates:
        if gate.kind is GateKind.CNOT:
            control, target = (1 << (n - 1 - q) for q in gate.targets)
            held = np.where(held & control, held ^ target, held)
            continue
        order = [q for q in range(n) if q not in gate.targets] + list(gate.targets)
        want = natural.reshape((2,) * n).transpose(order).ravel()
        if gate.kind in _PARAMETRIZED:
            grown = max(rows, min(gate.param_index + 3, m + 1))
            step = (index, None, (1 + gate.param_index) * half)
            index += 1
        else:
            grown, step = rows, (None, gate.matrix.T, None)
        steps.append((_gather(held, want, rows, grown), *step))
        held, rows = want, grown
    unitary_plan = _unitary_plan([g for g in gates if g.kind in _PARAMETRIZED])
    return tuple(steps), _gather(held, natural, rows, rows), start, unitary_plan


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
    if not (isinstance(theta, np.ndarray) and theta.dtype == float):
        theta = check_parameters(circ, theta)  # the memo answers only validated bytes
    key = theta.tobytes()
    memo = circ._memo
    # a stored key was finite when it was stored; the shape test comes first
    # because an array of another shape can carry the same bytes
    if theta.shape == (circ.n_params,) and memo is not None and memo[0] == key:
        return memo[1], memo[2]
    theta = check_parameters(circ, theta)
    steps, restore, batch, unitary_plan = circ._plan
    dim = batch.shape[1]
    half = dim // 2
    unitaries, derivatives = _unitaries(theta, *unitary_plan)
    for gather, index, matrix, offset in steps:
        if gather is not None:
            batch = batch.take(gather)
        if matrix is not None:
            batch = np.dot(batch.reshape(-1, len(matrix)), matrix).reshape(-1, dim)
            continue
        flat = batch.reshape(-1, 2)
        pushed = np.dot(flat[:half], derivatives[index])
        flat = np.dot(flat, unitaries[index])
        flat[offset:offset + half] += pushed
        batch = flat.reshape(-1, dim)
    flat = batch if restore is None else batch.take(restore)
    flat.setflags(write=False)
    phi, tangents = flat[0], flat[1:]
    object.__setattr__(circ, "_memo", (key, phi, tangents))
    return phi, tangents


def build_state(circ: AnsatzCircuit, theta: Sequence[float]) -> np.ndarray:
    """Evaluate U(theta)|0..0> as a read-only amplitude array (norm 1 within NORM_TOL).

    It is the state row of ``state_and_tangents``, the same array.  A sweep
    of the state row alone would not give its bits: a gate on every qubit
    (any gate of a one-qubit circuit) would make that a one-row product,
    which numpy sends to gemv, and gemv rounds differently from gemm.
    """
    amps, _ = state_and_tangents(circ, theta)
    if abs(np.vdot(amps, amps).real - 1.0) > NORM_TOL:
        raise ArithmeticError("circuit application lost normalization")
    return amps
