"""Statevector construction and exact parameter derivatives."""
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from natvqe import (
    ConstantRate,
    OptimizerKind,
    build_state,
    circuit,
    classical_fisher_metric,
    cnot,
    energy_and_gradient,
    fixed_unitary,
    fubini_study_metric,
    ite_matrix,
    phase,
    ry,
    run,
    spectral_decompose,
    state_and_tangents,
)
from natvqe.experiments import hardware_efficient_ansatz, single_qubit_ansatz
from natvqe.observables import pauli_sum
from natvqe.states import MAX_QUBITS, AnsatzCircuit, Gate, GateKind, check_numbers, check_parameters

angle = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def repeated_param_circuit():
    # parameter 0 drives two gates, exercising the product-rule sum
    return circuit(2, [ry(0, 0), ry(1, 0), fixed_unitary(HADAMARD, 0), cnot(0, 1), phase(1, 1)])


def finite_difference_states(circ, theta, delta=1e-6):
    theta = np.asarray(theta, float)
    rows = []
    for i in range(circ.n_params):
        up, down = theta.copy(), theta.copy()
        up[i] += delta
        down[i] -= delta
        rows.append((build_state(circ, up) - build_state(circ, down)) / (2 * delta))
    return np.array(rows)


class TestBuildState:
    def test_all_rotations_identity(self):
        state = build_state(single_qubit_ansatz(), [0.0, 0.0])
        np.testing.assert_allclose(state, [1.0, 0.0], atol=1e-15)

    def test_quarter_rotation(self):
        state = build_state(single_qubit_ansatz(), [np.pi / 4, 0.0])
        np.testing.assert_allclose(state, [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)

    @given(angle, angle)
    def test_single_qubit_closed_form(self, t1, t2):
        state = build_state(single_qubit_ansatz(), [t1, t2])
        expected = np.array([np.cos(t1), np.exp(2j * t2) * np.sin(t1)])
        np.testing.assert_allclose(state, expected, atol=1e-14)

    @given(angle, angle)
    def test_two_qubit_first_layer_closed_form(self, t1, t2):
        state = build_state(hardware_efficient_ansatz(), [t1, t2, 0.0, 0.0])
        expected = np.array([
            np.cos(t1) * np.cos(t2),
            np.cos(t1) * np.sin(t2),
            np.sin(t1) * np.sin(t2),
            np.sin(t1) * np.cos(t2),
        ])
        np.testing.assert_allclose(state, expected, atol=1e-14)

    @given(st.lists(angle, min_size=4, max_size=4))
    def test_normalized(self, theta):
        state = build_state(hardware_efficient_ansatz(), theta)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="parameter"):
            build_state(single_qubit_ansatz(), [0.1])

    def test_non_finite_parameters(self):
        with pytest.raises(ValueError, match="finite"):
            build_state(single_qubit_ansatz(), [np.nan, 0.0])


class TestDerivativeStates:
    def test_at_origin(self):
        d1, d2 = state_and_tangents(single_qubit_ansatz(), [0.0, 0.0])[1]
        np.testing.assert_allclose(d1, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(d2, [0.0, 0.0], atol=1e-15)

    @given(angle, angle)
    def test_phase_derivative_closed_form(self, t1, t2):
        _, d2 = state_and_tangents(single_qubit_ansatz(), [t1, t2])[1]
        expected = np.array([0.0, 2j * np.exp(2j * t2) * np.sin(t1)])
        np.testing.assert_allclose(d2, expected, atol=1e-14)

    @pytest.mark.parametrize(
        "circ", [single_qubit_ansatz(), hardware_efficient_ansatz(), repeated_param_circuit()],
        ids=["single-qubit", "hardware-efficient", "repeated-param"],
    )
    def test_matches_finite_differences(self, circ):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            _, tangents = state_and_tangents(circ, theta)
            oracle = finite_difference_states(circ, theta)
            assert np.max(np.abs(tangents - oracle)) < 1e-8

    @pytest.mark.parametrize(
        "circ", [single_qubit_ansatz(), hardware_efficient_ansatz()],
        ids=["single-qubit", "hardware-efficient"],
    )
    def test_norm_preservation_orthogonality(self, circ):
        # moving along any parameter keeps the norm: Re<d_i phi|phi> = 0
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            phi, tangents = state_and_tangents(circ, theta)
            overlaps = tangents.conj() @ phi
            assert np.max(np.abs(overlaps.real)) < 1e-10

    def test_real_circuit_full_orthogonality(self):
        # with only real gates the overlap vanishes entirely, not just its real part
        rng = np.random.default_rng(4)
        circ = hardware_efficient_ansatz()
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi, 4)
            phi, tangents = state_and_tangents(circ, theta)
            overlaps = tangents.conj() @ phi
            assert np.max(np.abs(overlaps)) < 1e-10


class TestCircuitValidation:
    def test_parameter_on_fixed_gate_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (0, 1), param_index=0)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateKind.RY, (0,))
        # a bool or fractional slot used to be taken (True as slot 1), a string to raise TypeError
        for slot in (1.0, 1.5, True, "1"):
            with pytest.raises(ValueError) as err:
                ry(0, slot)
            assert str(err.value) == f"param_index must be an integer, got {slot!r}"

    def test_non_unitary_matrix_rejected(self):
        for entry in (1, np.nan, np.inf):
            with pytest.raises(ValueError, match="unitary"):
                fixed_unitary(np.array([[1, entry], [0, 1]], dtype=complex), 0)

    @pytest.mark.parametrize("matrix, shown", [
        ([["1", "0"], ["0", "1"]], "'1'"),
        (np.array([["0", "1"], ["1", "0"]]), "'0'"),
        (np.eye(2, dtype=bool), "True"),
    ], ids=["text", "numpy-text", "numpy-bool"])
    def test_bool_and_text_matrix_entries_rejected(self, matrix, shown):
        # these used to build through numpy's complex cast
        with pytest.raises(ValueError) as info:
            fixed_unitary(matrix, 0)
        assert str(info.value) == f"matrix entry must be a number, got {shown}"

    def test_matrix_is_a_frozen_copy(self):
        matrix = np.array([[0, 1], [1, 0]], dtype=complex)
        gate = fixed_unitary(matrix, 0)
        matrix[0, 0] = 1.0
        assert gate.matrix.tolist() == [[0, 1], [1, 0]] and not gate.matrix.flags.writeable

    def test_unused_parameter_slot_rejected(self):
        with pytest.raises(ValueError, match="never used"):
            AnsatzCircuit(1, (ry(0, 1),))

    def test_parameter_count_is_derived_from_the_gates(self):
        assert AnsatzCircuit(1, (ry(0, 0), phase(0, 2), ry(0, 1))).n_params == 3
        assert AnsatzCircuit(2, (cnot(0, 1),)).n_params == 0
        with pytest.raises(TypeError):
            AnsatzCircuit(1, (ry(0, 0),), 1)

    @pytest.mark.parametrize("gates, message", [
        ([ry(0, 3)], "[0, 1, 2]"),
        ([ry(0, 10)], "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"),
        ([ry(0, 11)], "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] and 1 more"),
        ([ry(0, 0), ry(0, 2), phase(0, 15)], "[1, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 3 more"),
    ], ids=["three-missing", "ten-missing", "eleven-missing", "gaps"])
    def test_unused_slots_listed_up_to_ten(self, gates, message):
        with pytest.raises(ValueError) as err:
            circuit(1, gates)
        assert str(err.value) == f"parameter slots never used by any gate: {message}"

    @pytest.mark.parametrize("slot", [10 ** 6, 10 ** 30])
    def test_huge_slot_rejected_at_once(self, slot):
        # the check used to build set(range(slot)) and list every missing slot
        start = time.perf_counter()
        with pytest.raises(ValueError, match="never used") as err:
            circuit(1, [ry(0, slot)])
        assert time.perf_counter() - start < 0.1
        assert len(str(err.value)) < 300

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            circuit(1, [ry(1, 0)])
        # these used to reach the circuit, which said "gate targets (True,) exceed 1 qubits"
        for target in (1.0, 1.5, True, "1"):
            with pytest.raises(ValueError) as err:
                circuit(1, [ry(target, 0)])
            assert str(err.value) == f"gate target must be an integer, got {target!r}"

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            cnot(0, 0)

    @pytest.mark.parametrize("n_qubits, message", [
        pytest.param(n, f"n_qubits must be between 1 and {MAX_QUBITS}, got {n}", id=str(n))
        for n in (0, MAX_QUBITS + 1, 10 ** 30)
    ] + [
        # 2.0 used to raise TypeError from the sweep compiler
        pytest.param(n, f"n_qubits must be an integer, got {n!r}", id=repr(n))
        for n in (2.0, 2.9, True)
    ])
    def test_qubit_count_out_of_bounds_rejected(self, n_qubits, message):
        # checked before the sweep is compiled: 2**n amplitudes are never allocated
        with pytest.raises(ValueError) as err:
            AnsatzCircuit(n_qubits, ())
        assert str(err.value) == message

    def test_hamiltonian_qubit_count_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_QUBITS}"):
            pauli_sum(MAX_QUBITS + 1, [(1.0, "Z" * (MAX_QUBITS + 1))])
        # 2.0 used to build, and dense_matrix then raised TypeError
        for n_qubits in (2.0, 2.9, True):
            with pytest.raises(ValueError) as err:
                pauli_sum(n_qubits, [(1.0, "ZZ")])
            assert str(err.value) == f"n_qubits must be an integer, got {n_qubits!r}"

    def test_numpy_integers_are_stored_as_python_ints(self):
        circ = circuit(np.int64(2), [ry(np.int64(0), np.int64(0)), cnot(np.intp(0), np.int32(1))])
        assert type(circ.n_qubits) is int and type(circ.n_params) is int
        for gate in circ.gates:
            assert all(type(t) is int for t in gate.targets)
            assert gate.param_index is None or type(gate.param_index) is int
        assert type(pauli_sum(np.int64(2), [(1.0, "ZZ")]).n_qubits) is int

    def test_largest_qubit_count_accepted(self):
        circ = circuit(MAX_QUBITS, [ry(MAX_QUBITS - 1, 0)])
        assert state_and_tangents(circ, [0.3])[0].shape == (2 ** MAX_QUBITS,)


# ---------------------------------------------------------------------------
# The compiled sweep against the tensordot sweep it replays

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_RY_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
_PHASE_GENERATOR = np.array([[0.0, 0.0], [0.0, 2.0j]], dtype=complex)


def _tensordot_unitary(gate, theta):
    if gate.kind is GateKind.RY:
        t = theta[gate.param_index]
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind is GateKind.PHASE:
        t = theta[gate.param_index]
        return np.array([[1.0, 0.0], [0.0, np.exp(2.0j * t)]], dtype=complex)
    if gate.kind is GateKind.CNOT:
        return _CNOT
    return gate.matrix


def _tensordot_apply(mat, targets, batch):
    k = len(targets)
    axes = [1 + t for t in targets]
    out = np.tensordot(batch, mat.reshape((2,) * (2 * k)), axes=(axes, list(range(k, 2 * k))))
    return np.moveaxis(out, range(out.ndim - k, out.ndim), axes)


def _permute_cnot(targets, batch):
    """Apply a CNOT by moving amplitudes, so every zero keeps its sign."""
    control, target = targets
    where = [slice(None)] * batch.ndim
    where[1 + control] = 1
    out = batch.copy()
    axis = 1 + target if target < control else target  # the control axis is gone
    out[tuple(where)] = np.flip(batch[tuple(where)], axis=axis)
    return out


def tensordot_sweep(circ, theta, permute_cnots=False):
    """Reference sweep: one tensordot + moveaxis per gate, generator pushed through row 0.

    With ``permute_cnots`` a CNOT moves amplitudes instead of being
    contracted, as the compiled sweep's relabelling does, so the two agree
    byte for byte, signed zeros included.
    """
    theta = np.asarray(theta, dtype=float)
    n, m = circ.n_qubits, circ.n_params
    batch = np.zeros((m + 1, 2 ** n), dtype=complex)
    batch[0, 0] = 1.0
    batch = batch.reshape((m + 1,) + (2,) * n)
    for gate in circ.gates:
        if permute_cnots and gate.kind is GateKind.CNOT:
            batch = _permute_cnot(gate.targets, batch)
            continue
        unitary = _tensordot_unitary(gate, theta)
        generator = {GateKind.RY: _RY_GENERATOR, GateKind.PHASE: _PHASE_GENERATOR}.get(gate.kind)
        pushed = None
        if generator is not None:
            pushed = _tensordot_apply(generator @ unitary, gate.targets, batch[:1])
        batch = _tensordot_apply(unitary, gate.targets, batch)
        if pushed is not None:
            batch[1 + gate.param_index] += pushed[0]
    flat = batch.reshape(m + 1, -1)
    return flat[0], flat[1:]


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng):
    """1-6 qubits; ry, phase, cnot, 1- to 3-qubit fixed unitaries; slots drawn with repeats.

    A fifth of the circuits start with a fixed gate, the rest with an ry.
    """
    n = int(rng.integers(1, 7))
    slots = int(rng.integers(1, 5))
    kinds = ["ry", "phase", "u1"] + (["cnot", "u2"] if n > 1 else []) + (["u3"] if n > 2 else [])
    gates = []
    if rng.random() < 0.2:
        gates.append(fixed_unitary(random_unitary(rng, 2), int(rng.integers(n))))
    gates.append(ry(int(rng.integers(n)), int(rng.integers(slots))))
    for _ in range(int(rng.integers(1, 13))):
        kind = rng.choice(kinds)
        if kind == "ry":
            gates.append(ry(int(rng.integers(n)), int(rng.integers(slots))))
        elif kind == "phase":
            gates.append(phase(int(rng.integers(n)), int(rng.integers(slots))))
        elif kind == "cnot":
            gates.append(cnot(*(int(q) for q in rng.choice(n, 2, replace=False))))
        else:
            k = int(kind[1])
            targets = (int(q) for q in rng.choice(n, k, replace=False))
            gates.append(fixed_unitary(random_unitary(rng, 2 ** k), *targets))
    # renumber the slots in use to 0..m-1
    used = sorted({g.param_index for g in gates if g.param_index is not None})
    slot = {old: new for new, old in enumerate(used)}
    return circuit(n, [g if g.param_index is None else Gate(g.kind, g.targets, slot[g.param_index])
                       for g in gates])


class TestCompiledSweep:
    def test_bit_identical_to_tensordot_sweep(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(400):
            circ = random_circuit(rng)
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            phi, tangents = state_and_tangents(circ, theta)
            ref_phi, ref_tangents = tensordot_sweep(circ, theta)
            if any(g.kind is GateKind.CNOT for g in circ.gates):
                # a permutation may flip the sign of a zero, which array_equal ignores
                assert np.array_equal(phi, ref_phi)
                assert np.array_equal(tangents, ref_tangents)
                moved_phi, moved_tangents = tensordot_sweep(circ, theta, permute_cnots=True)
                assert phi.tobytes() == moved_phi.tobytes()
                assert tangents.tobytes() == moved_tangents.tobytes()
            else:
                assert phi.tobytes() == ref_phi.tobytes()
                assert tangents.tobytes() == ref_tangents.tobytes()
            # downstream BLAS calls round by layout, so the layout must match too
            assert phi.strides == ref_phi.strides and tangents.strides == ref_tangents.strides
            assert np.array_equal(build_state(circ, theta), phi)
            for before, g in zip((None,) + circ.gates, circ.gates):
                if g.kind is GateKind.CNOT:
                    if before is not None and before.kind is GateKind.CNOT:
                        # two relabellings composed with no step between them
                        seen.add("cnot after cnot")
                    seen.add("cnot down" if g.targets[0] < g.targets[1] else "cnot up")
                    if abs(g.targets[0] - g.targets[1]) > 1:
                        seen.add("cnot non-adjacent")
                elif g.kind is GateKind.UNITARY:
                    seen.add(f"unitary {len(g.targets)}")
            slots = [g.param_index for g in circ.gates if g.param_index is not None]
            if len(slots) > len(set(slots)):
                seen.add("shared slot")
            seen.add(f"last {circ.gates[-1].kind.value}")
            # the cases that move the batch's stand-in row around
            if circ.gates[0].kind is GateKind.UNITARY:
                seen.add("fixed gate before the first parameter")
            if circ.n_params > 1 and slots[0] == circ.n_params - 1:
                seen.add("first gate uses the highest slot")
            if any(s < max(slots[:k]) and s not in slots[:k] for k, s in enumerate(slots) if k):
                seen.add("slot opened out of order")
        assert seen == {"cnot down", "cnot up", "cnot non-adjacent", "cnot after cnot", "unitary 1",
                        "unitary 2", "unitary 3", "shared slot", "last ry", "last phase", "last cnot",
                        "last unitary", "slot opened out of order",
                        "fixed gate before the first parameter", "first gate uses the highest slot"}

    def test_wide_circuit_bit_identical_to_tensordot_sweep(self):
        # the benchmark's 6-qubit shape: per layer an ry/phase pair on every qubit in
        # seeded order, then a seeded CNOT chain; m = 36 rows grow one slot at a time
        rng = np.random.default_rng(36)
        gates, slot = [], 0
        for _ in range(3):
            for qubit in range(6):
                pair = [ry(qubit, slot), phase(qubit, slot + 1)]
                gates += pair[::-1] if rng.random() < 0.5 else pair
                slot += 2
            chain = rng.permutation(6)
            gates += [cnot(int(c), int(t)) for c, t in zip(chain, chain[1:])]
        circ = circuit(6, gates)
        assert circ.n_params == 36
        for k in range(50):
            uniform = rng.uniform(-np.pi, np.pi, 36)
            quarter_turns = rng.integers(-4, 5, 36) * (np.pi / 2)
            signed_zeros = rng.choice([0.0, -0.0], 36)
            mixed = rng.random(36) < 0.5
            theta = [uniform, quarter_turns, signed_zeros, np.where(mixed, signed_zeros, uniform),
                     np.where(mixed, signed_zeros, quarter_turns)][k % 5]
            phi, tangents = state_and_tangents(circ, theta)
            ref_phi, ref_tangents = tensordot_sweep(circ, theta, permute_cnots=True)
            assert phi.tobytes() == ref_phi.tobytes()
            assert tangents.tobytes() == ref_tangents.tobytes()
            assert phi.strides == ref_phi.strides and tangents.strides == ref_tangents.strides
            contracted_phi, contracted_tangents = tensordot_sweep(circ, theta)
            assert np.array_equal(phi, contracted_phi)
            assert np.array_equal(tangents, contracted_tangents)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blas_rows_do_not_depend_on_the_row_count(self, k):
        # the sweep multiplies a prefix of the batch's rows; each row must round as in
        # the full product, for every prefix of at least two rows (one row goes to gemv)
        rng = np.random.default_rng(k)
        rows = 37 * 2 ** (6 - k)
        x = rng.normal(size=(rows, 2 ** k)) + 1j * rng.normal(size=(rows, 2 ** k))
        x[rng.random(rows) < 0.2] = rng.choice([0.0, -0.0], size=2 ** k)
        x.real[rng.random(x.shape) < 0.1] = -0.0
        diagonal = np.diag(np.exp(1j * rng.uniform(-3, 3, 2 ** k)))
        for unitary in (random_unitary(rng, 2 ** k), diagonal):
            full = np.dot(x, unitary.T)
            for m in range(2, rows + 1):
                assert np.dot(x[:m], unitary.T).tobytes() == full[:m].tobytes()


class TestSweepMemo:
    def test_results_are_read_only(self):
        phi, tangents = state_and_tangents(hardware_efficient_ansatz(), [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError):
            phi[0] = 0.0
        with pytest.raises(ValueError):
            tangents[0, 0] = 0.0

    def test_build_state_is_the_remembered_state_row(self):
        circ = hardware_efficient_ansatz()
        phi = build_state(circ, [0.1, 0.2, 0.3, 0.4])
        assert phi is state_and_tangents(circ, [0.1, 0.2, 0.3, 0.4])[0]
        with pytest.raises(ValueError):
            phi[0] = 0.0

    def test_same_theta_returns_the_remembered_arrays(self):
        circ = hardware_efficient_ansatz()
        first = state_and_tangents(circ, [0.1, 0.2, 0.3, 0.4])
        again = state_and_tangents(circ, np.array([0.1, 0.2, 0.3, 0.4]))
        assert again[0] is first[0] and again[1] is first[1]

    def test_alternating_thetas(self):
        circ = repeated_param_circuit()
        thetas = [np.array([0.3, -1.1]), np.array([2.0, 0.7])]
        refs = [tensordot_sweep(circ, t) for t in thetas]
        for i in [0, 1, 0, 0, 1, 1, 0]:
            phi, tangents = state_and_tangents(circ, thetas[i])
            assert np.array_equal(phi, refs[i][0]) and np.array_equal(tangents, refs[i][1])

    def test_alternating_circuits(self):
        # two equal gate lists are two circuits, each with its own memo
        circuits = [hardware_efficient_ansatz(), hardware_efficient_ansatz(), repeated_param_circuit()]
        thetas = [np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.5, 0.6])]
        refs = [tensordot_sweep(c, t) for c, t in zip(circuits, thetas)]
        for i in [0, 1, 2, 0, 2, 1, 1, 0]:
            phi, tangents = state_and_tangents(circuits[i], thetas[i])
            assert np.array_equal(phi, refs[i][0]) and np.array_equal(tangents, refs[i][1])

    def test_signed_zero_parameters(self):
        # at theta = -0.0 the phase-then-ry tangents carry -0.0 where +0.0 gives +0.0
        circ = circuit(1, [phase(0, 0), ry(0, 1)])
        for theta in ([0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0]):
            phi, tangents = state_and_tangents(circ, theta)
            ref_phi, ref_tangents = tensordot_sweep(circ, theta)
            assert phi.tobytes() == ref_phi.tobytes()
            assert tangents.tobytes() == ref_tangents.tobytes()

    def test_non_finite_theta_rejected_after_a_memo_fill(self):
        circ = hardware_efficient_ansatz()
        state_and_tangents(circ, [0.1, 0.2, 0.3, 0.4])
        for bad in ([np.nan, 0.2, 0.3, 0.4], [0.1, 0.2, np.inf, 0.4]):
            with pytest.raises(ValueError, match="parameters must be finite"):
                state_and_tangents(circ, bad)

    def test_wrong_shape_with_the_remembered_bytes_rejected(self):
        # a (2, 2) array can carry the bytes of the remembered 4-vector
        circ = hardware_efficient_ansatz()
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        state_and_tangents(circ, theta)
        with pytest.raises(ValueError, match=r"takes 4 parameter\(s\), got shape \(2, 2\)"):
            state_and_tangents(circ, theta.reshape(2, 2))

    def test_string_theta_with_the_remembered_value_rejected(self):
        # the memo used to answer ["0.3", "0.2"] from the bytes of its float cast
        circ = single_qubit_ansatz()
        state_and_tangents(circ, np.array([0.3, 0.2]))
        for text in (["0.3", "0.2"], np.array(["0.3", "0.2"])):
            with pytest.raises(ValueError) as info:
                state_and_tangents(circ, text)
            assert str(info.value) == "theta entry must be a number, got '0.3'"

    def test_every_call_checks_theta_once(self, monkeypatch):
        # a miss must not check twice, and a hit, even on a float array, must not skip the check
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return check_parameters(*args, **kwargs)

        monkeypatch.setattr("natvqe.states.check_parameters", counting)
        for theta in ([0.1, 0.2, 0.3, 0.4], np.array([0.4, 0.3, 0.2, 0.1])):
            circ = hardware_efficient_ansatz()
            for _ in ("miss", "hit"):
                calls.clear()
                state_and_tangents(circ, theta)
                assert len(calls) == 1

    def test_circuit_is_freed_after_use(self):
        # plan and memo live on the circuit; nothing else keeps it alive
        circ = repeated_param_circuit()
        state_and_tangents(circ, [0.3, 0.4])
        build_state(circ, [0.5, 0.6])
        ref = weakref.ref(circ)
        del circ
        assert ref() is None


def drifting_circuit():
    # each gate passes the unitarity check, but three of them lift the norm past NORM_TOL
    drift = fixed_unitary(np.diag([1 + 4.9e-13, 1]), 0)
    return circuit(1, [drift, drift, drift, ry(0, 0)])


Z = pauli_sum(1, [(1.0, "Z")])


class TestNormalizationRule:
    @pytest.mark.parametrize("evaluate", [
        lambda circ: build_state(circ, [0.0]),
        lambda circ: energy_and_gradient(Z, circ, [0.3]),
        lambda circ: fubini_study_metric(circ, [0.3]),
        lambda circ: ite_matrix(circ, [0.3]),
        lambda circ: classical_fisher_metric(circ, [0.3], spectral_decompose(Z)),
        lambda circ: run(OptimizerKind.NATURAL_FS, Z, circ, [0.3], ConstantRate(0.05)),
    ], ids=["build_state", "energy_and_gradient", "fubini_study", "ite", "classical_fisher",
            "run"])
    def test_every_consumer_refuses_a_state_the_circuit_failed_to_normalize(self, evaluate):
        # energy_and_gradient used to return 1.0000000000029403, above Z's top eigenvalue
        with pytest.raises(ArithmeticError, match="circuit application lost normalization"):
            evaluate(drifting_circuit())

    def test_a_refused_theta_is_not_remembered(self):
        circ = drifting_circuit()
        for _ in ("first", "again"):
            with pytest.raises(ArithmeticError, match="lost normalization"):
                state_and_tangents(circ, [0.3])

    def test_checked_once_per_miss_and_not_on_a_hit(self, monkeypatch):
        vdot, calls = np.vdot, []
        monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(1) or vdot(a, b))
        circ = hardware_efficient_ansatz()
        for expected in (1, 0):  # a miss, then a hit
            calls.clear()
            state_and_tangents(circ, [0.1, 0.2, 0.3, 0.4])
            assert len(calls) == expected


class TestNumberRule:
    """``check_numbers``: the one rule for the real and complex arrays the API takes."""

    @pytest.mark.parametrize("dtype, values", [
        (float, np.array([0.1, -0.2])),
        (complex, np.array([0.6, 0.8j])),
    ])
    def test_an_array_of_the_dtype_passes_untouched(self, dtype, values):
        assert check_numbers(values, "entry", dtype) is values

    def test_float_theta_is_returned_as_it_is(self):
        theta = np.array([0.1, -0.2])
        assert check_parameters(single_qubit_ansatz(), theta) is theta

    @pytest.mark.parametrize("values", [
        [1, np.int64(-2), np.int32(3)],
        [1.5, np.float32(0.25), np.float64(-0.5)],
        np.array([1, 2], dtype=np.int8),
        np.array([0.5, 0.25], dtype=np.float32),
    ], ids=["ints", "floats", "int8-array", "float32-array"])
    def test_ints_and_floats_are_cast_like_numpy(self, values):
        for dtype in (float, complex):
            out = check_numbers(values, "entry", dtype)
            assert out.dtype == dtype
            assert out.tobytes() == np.asarray(values, dtype=dtype).tobytes()

    def test_complex_entries_pass_only_as_complex(self):
        values = [0.6, 0.8j, np.complex64(1j), 1]
        assert check_numbers(values, "amplitude", complex).tobytes() == \
            np.asarray(values, dtype=complex).tobytes()
        for entries, shown in ((values, "0.8j"), (np.array(values), "(0.6+0j)")):
            with pytest.raises(ValueError) as info:
                check_numbers(entries, "theta entry")
            assert str(info.value) == f"theta entry must be a number, got {shown}"

    @pytest.mark.parametrize("values, shown", [
        (["0.1", True], "'0.1'"),
        (np.array(["0.1", "0.2"]), "'0.1'"),
        (np.array([True, False]), "True"),
        ([0.1, np.True_], repr(np.True_)),
    ], ids=["text-and-bool", "numpy-text", "numpy-bool", "numpy-bool-entry"])
    def test_bools_and_text_refused_by_every_theta_reader(self, values, shown):
        # each of these used to run from numpy's float cast, ["0.1", True] from (0.1, 1.0)
        circ, h = single_qubit_ansatz(), pauli_sum(1, [(1.0, "X")])
        readers = [
            lambda t: build_state(circ, t),
            lambda t: state_and_tangents(circ, t),
            lambda t: energy_and_gradient(h, circ, t),
            lambda t: fubini_study_metric(circ, t),
            lambda t: ite_matrix(circ, t),
            lambda t: classical_fisher_metric(circ, t, spectral_decompose(h)),
        ]
        for read in readers:
            build_state(circ, np.asarray(values, dtype=float))  # the memo holds the cast's bytes
            with pytest.raises(ValueError) as info:
                read(values)
            assert str(info.value) == f"theta entry must be a number, got {shown}"
        with pytest.raises(ValueError) as info:
            run(OptimizerKind.VANILLA, h, circ, values, ConstantRate(0.05), max_steps=2)
        assert str(info.value) == f"theta0 entry must be a number, got {shown}"
