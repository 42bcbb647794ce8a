"""Energy, exact energy gradient, and spectral decomposition."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from natvqe import (build_state, circuit, cnot, energy, energy_and_gradient, pauli_sum, phase, ry,
                    spectral_decompose)
from natvqe.experiments import (
    h2_hamiltonian,
    hardware_efficient_ansatz,
    sigma_x_hamiltonian,
    single_qubit_ansatz,
)
from natvqe.observables import SpectralDecomposition, dense_matrix, outcome_distribution

angle = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)

H2_GROUND = -math.sqrt(4 * 0.4 ** 2 + 0.2 ** 2)  # -0.8246211251235321


def h2_ground_state():
    v = np.array([-0.2, 0.0, 0.0, 0.8 + math.sqrt(0.68)])
    return v / np.linalg.norm(v)


def finite_difference_gradient(hamiltonian, circ, theta, delta=1e-6):
    theta = np.asarray(theta, float)
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += delta
        down[i] -= delta
        grad[i] = (energy(hamiltonian, build_state(circ, up))
                   - energy(hamiltonian, build_state(circ, down))) / (2 * delta)
    return grad


def projectors(decomp):
    """Orthogonal projector E_i = B_i B_i^H of each outcome, from the eigenbasis blocks."""
    ends = np.append(decomp.starts[1:], len(decomp.basis))
    return [decomp.basis[:, lo:hi] @ decomp.basis[:, lo:hi].conj().T
            for lo, hi in zip(decomp.starts, ends)]


class TestEnergy:
    def test_single_qubit_value(self, single_qubit):
        circ, h = single_qubit
        value = energy(h, build_state(circ, [np.pi / 12, np.pi / 12]))
        assert abs(value - math.sin(math.pi / 6) * math.cos(math.pi / 6)) < 1e-14

    def test_zero_at_north_pole(self, single_qubit):
        circ, h = single_qubit
        assert abs(energy(h, build_state(circ, [0.0, 1.3]))) < 1e-14

    def test_h2_ground_energy(self, h2_problem):
        _, h = h2_problem
        assert abs(energy(h, h2_ground_state()) - H2_GROUND) < 1e-12

    @given(angle, angle)
    def test_energy_formula(self, t1, t2):
        circ, h = single_qubit_ansatz(), sigma_x_hamiltonian()
        value = energy(h, build_state(circ, [t1, t2]))
        assert abs(value - math.sin(2 * t1) * math.cos(2 * t2)) < 1e-13

    @pytest.mark.parametrize("state", [np.array([1.0, 0.0]), np.eye(2), np.ones((4, 1)), np.ones(8)],
                             ids=["1-qubit", "matrix", "column", "3-qubit"])
    def test_dimension_mismatch(self, h2_problem, state):
        _, h = h2_problem
        with pytest.raises(ValueError, match="qubit"):
            energy(h, state)

    @given(st.lists(angle, min_size=4, max_size=4))
    def test_bounded_by_spectrum(self, theta):
        circ, h = hardware_efficient_ansatz(), h2_hamiltonian()
        value = energy(h, build_state(circ, theta))
        decomp = spectral_decompose(h)
        assert decomp.eigenvalues[0] - 1e-12 <= value <= decomp.eigenvalues[-1] + 1e-12


    @pytest.mark.parametrize("state, shown", [
        (["1", "0"], "'1'"),
        ([True, False], "True"),
        (np.array(["1", "0"]), "'1'"),
        (np.array([True, False]), "True"),
    ], ids=["text", "bool", "numpy-text", "numpy-bool"])
    def test_bool_and_text_amplitudes_rejected(self, state, shown):
        # ["1", "0"] used to read as |0>, with energy 0.0 and p = [0.5, 0.5]
        h = sigma_x_hamiltonian()
        for read in (lambda s: energy(h, s), lambda s: outcome_distribution(spectral_decompose(h), s)):
            with pytest.raises(ValueError) as info:
                read(state)
            assert str(info.value) == f"amplitude must be a number, got {shown}"

    def test_int_float_and_complex_amplitudes_accepted(self):
        h = sigma_x_hamiltonian()
        plus_i = [1 / math.sqrt(2), 1j / math.sqrt(2)]
        for state in ([1, 0], [np.int64(0), 1.0], plus_i, np.array([0, 1j], dtype=np.complex64)):
            assert abs(energy(h, state)) < 1e-15
            assert outcome_distribution(spectral_decompose(h), state).dtype == float


class TestEnergyGradient:
    def test_single_qubit_value(self, single_qubit):
        circ, h = single_qubit
        grad = energy_and_gradient(h, circ, [np.pi / 12, np.pi / 12])[1]
        np.testing.assert_allclose(grad, [1.5, -0.5], atol=1e-14)

    def test_zero_at_optimum_direction(self, single_qubit):
        circ, h = single_qubit
        grad = energy_and_gradient(h, circ, [np.pi / 4, 0.0])[1]
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("problem", ["single_qubit", "h2"])
    def test_matches_finite_differences(self, problem, single_qubit, h2_problem):
        circ, h = single_qubit if problem == "single_qubit" else h2_problem
        rng = np.random.default_rng(17)
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            grad = energy_and_gradient(h, circ, theta)[1]
            oracle = finite_difference_gradient(h, circ, theta)
            assert np.max(np.abs(grad - oracle)) < 1e-8

    @pytest.mark.parametrize("scale", [1e7, 1e9])
    def test_imaginary_residue_tolerance_follows_the_coefficients(self, scale):
        # the round-off in <phi|H|phi> grows with H; a fixed 1e-10 refused these points
        circ = circuit(2, [ry(0, 0), phase(0, 1), ry(1, 2), phase(1, 3), cnot(0, 1),
                           ry(0, 4), phase(1, 5)])
        terms = [(0.4, "YI"), (0.3, "XY"), (0.2, "ZZ"), (-0.5, "YY")]
        h = pauli_sum(2, [(scale * c, label) for c, label in terms])
        rng = np.random.default_rng(5)
        for _ in range(200):
            energy_and_gradient(h, circ, rng.uniform(-np.pi, np.pi, circ.n_params))


class TestSpectralDecomposition:
    def test_sigma_x(self):
        decomp = spectral_decompose(sigma_x_hamiltonian())
        np.testing.assert_allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-14)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        projs = projectors(decomp)
        np.testing.assert_allclose(projs[0], minus, atol=1e-12)
        np.testing.assert_allclose(projs[1], plus, atol=1e-12)

    def test_h2_eigenvalues(self):
        decomp = spectral_decompose(h2_hamiltonian())
        expected = [H2_GROUND, -0.2, 0.2, -H2_GROUND]
        np.testing.assert_allclose(decomp.eigenvalues, expected, atol=1e-12)

    def test_full_degeneracy_merges(self):
        h = pauli_sum(1, [(2.0, "I")])
        decomp = spectral_decompose(h)
        np.testing.assert_allclose(decomp.eigenvalues, [2.0])
        np.testing.assert_allclose(projectors(decomp)[0], np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("h", [sigma_x_hamiltonian(), h2_hamiltonian(), h2_hamiltonian(0.4, 0.02)])
    def test_projector_invariants(self, h):
        decomp = spectral_decompose(h)
        projs = projectors(decomp)
        dim = projs[0].shape[0]
        total = sum(projs)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
        rebuilt = sum(lam * proj for lam, proj in zip(decomp.eigenvalues, projs))
        np.testing.assert_allclose(rebuilt, dense_matrix(h), atol=1e-10)

    def test_h2_ground_is_eigenvector(self, h2_problem):
        _, h = h2_problem
        vec = h2_ground_state()
        residual = dense_matrix(h) @ vec - H2_GROUND * vec
        assert np.linalg.norm(residual) < 1e-10


def skewed_basis(dim, delta, overlap):
    """A unitary times sqrt(I + delta M): Gram matrix I + delta M up to round-off.

    M is e_0 e_0^T (column 0 longer) or e_0 e_1^T + e_1 e_0^T (columns 0 and 1
    not orthogonal).
    """
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    m = np.zeros((dim, dim))
    m[0, 1 if overlap else 0] = m[1 if overlap else 0, 0] = 1.0
    lam, w = np.linalg.eigh(np.eye(dim) + delta * m)
    return q @ (w * np.sqrt(lam)) @ w.T


class TestSpectralDecompositionValidation:
    def test_accepts_an_orthonormal_basis(self):
        decomp = SpectralDecomposition([-1.0, 2.0], np.eye(3), [0, 2])
        projs = projectors(decomp)
        np.testing.assert_array_equal(projs[0], np.diag([1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(projs[1], np.diag([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("eigenvalues", [[1.0, 0.0, 2.0], [0.0, 0.0, 2.0], [0.0, np.nan, 2.0]])
    def test_eigenvalues_must_ascend(self, eigenvalues):
        with pytest.raises(ValueError, match="ascending"):
            SpectralDecomposition(eigenvalues, np.eye(3), [0, 1, 2])

    @pytest.mark.parametrize("starts", [[1, 2], [0, 0], [2, 1], [0], [0, 1, 2]])
    def test_starts_ascend_from_zero_one_per_eigenvalue(self, starts):
        with pytest.raises(ValueError, match="starts"):
            SpectralDecomposition([0.0, 1.0], np.eye(3), starts)

    @pytest.mark.parametrize("basis", [np.eye(3)[:, :2], np.eye(3)[:2], np.eye(2)])
    def test_basis_square_with_a_block_per_eigenvalue(self, basis):
        with pytest.raises(ValueError, match="square"):
            SpectralDecomposition([0.0, 1.0, 2.0], basis, [0, 1, 2])

    def test_copies_the_callers_arrays(self):
        eigenvalues, basis, starts = np.array([0.0, 1.0]), np.eye(2, dtype=complex), np.array([0, 1])
        decomp = SpectralDecomposition(eigenvalues, basis, starts)
        for arr in (eigenvalues, basis, starts):
            assert arr.flags.writeable
        eigenvalues[0] = -1.0
        assert decomp.eigenvalues[0] == 0.0
        with pytest.raises(ValueError):
            decomp.eigenvalues[0] = 2.0

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_gram_tolerance_is_1e10_over_dim(self, dim, overlap):
        tol = 1e-10 / dim
        eigenvalues, starts = np.arange(dim, dtype=float), np.arange(dim)
        accepted = SpectralDecomposition(eigenvalues, skewed_basis(dim, 0.99 * tol, overlap), starts)
        assert accepted.basis.shape == (dim, dim)
        with pytest.raises(ValueError, match="orthonormal"):
            SpectralDecomposition(eigenvalues, skewed_basis(dim, 1.01 * tol, overlap), starts)
        nan_basis = skewed_basis(dim, 0.0, overlap)
        nan_basis[0, 0] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            SpectralDecomposition(eigenvalues, nan_basis, starts)


class TestOutcomeDistribution:
    @given(angle, angle)
    def test_bernoulli_formula(self, t1, t2):
        circ, h = single_qubit_ansatz(), sigma_x_hamiltonian()
        decomp = spectral_decompose(h)
        probs = outcome_distribution(decomp, build_state(circ, [t1, t2]))
        p_plus = (1 + math.sin(2 * t1) * math.cos(2 * t2)) / 2
        assert abs(probs[1] - p_plus) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_eigenstate(self, single_qubit):
        circ, h = single_qubit
        probs = outcome_distribution(spectral_decompose(h), build_state(circ, [np.pi / 4, 0.0]))
        np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-14)

    def test_h2_ground_concentrated(self, h2_problem):
        _, h = h2_problem
        probs = outcome_distribution(spectral_decompose(h), h2_ground_state())
        np.testing.assert_allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_read_only_array(self, single_qubit):
        circ, h = single_qubit
        probs = outcome_distribution(spectral_decompose(h), build_state(circ, [0.3, 0.2]))
        assert type(probs) is np.ndarray and probs.dtype == float
        assert not probs.flags.writeable

    def test_unnormalized_state_rejected(self, single_qubit):
        _, h = single_qubit
        with pytest.raises(ValueError, match="sum to 1"):
            outcome_distribution(spectral_decompose(h), np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            outcome_distribution(spectral_decompose(h), np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("state", [np.array([1.0, 0.0]), np.eye(2), np.ones((4, 1)), np.ones(8)],
                             ids=["1-qubit", "matrix", "column", "3-qubit"])
    def test_dimension_mismatch(self, h2_problem, state):
        _, h = h2_problem
        with pytest.raises(ValueError, match="dimension"):
            outcome_distribution(spectral_decompose(h), state)

    @given(st.lists(angle, min_size=4, max_size=4))
    def test_energy_is_spectral_average(self, theta):
        circ, h = hardware_efficient_ansatz(), h2_hamiltonian()
        state = build_state(circ, theta)
        decomp = spectral_decompose(h)
        probs = outcome_distribution(decomp, state)
        assert abs(energy(h, state) - float(decomp.eigenvalues @ probs)) < 1e-10


class TestHamiltonianValidation:
    def test_bad_label(self):
        with pytest.raises(ValueError):
            pauli_sum(2, [(1.0, "ZQ")])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_sum(2, [(1.0, "Z")])

    def test_lowercase_accepted(self):
        h = pauli_sum(2, [(0.4, "zi")])
        assert h.terms[0][1] == "ZI"

    @pytest.mark.parametrize("coeff", [True, np.True_, "0.5"])
    def test_coefficient_must_be_a_number(self, coeff):
        # a bool used to be taken as 1.0 and a numeric string read by float()
        with pytest.raises(ValueError) as info:
            pauli_sum(1, [(coeff, "X")])
        assert str(info.value) == f"hamiltonian coefficient must be a number, got {coeff!r}"
