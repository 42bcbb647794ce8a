"""Metric matrices, singularity diagnostics, and entanglement entropy.

The two-layer two-qubit ansatz carries four parameters on the 3-dimensional
manifold of real two-qubit states, so its state-space metric is rank-deficient
at every point: besides the unit diagonal and the cross-layer couplings
sin(2*t2) at (1,3) and cos(2*t1) at (2,4), the exact metric has a
second-layer coupling -sin(2*t1)*cos(2*t2) at (3,4) that makes det(F)
vanish identically.  An independent overlap-based oracle below confirms the
full closed form, including that entry.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from natvqe import (
    ConstantRate,
    MetricUndefinedError,
    OptimizerKind,
    build_state,
    circuit,
    classical_fisher_metric,
    cnot,
    energy,
    energy_and_gradient,
    entanglement_entropy,
    fixed_unitary,
    fubini_study_metric,
    ite_matrix,
    pauli_sum,
    phase,
    run,
    ry,
    singularity_report,
    spectral_decompose,
    state_and_tangents,
)
from natvqe import geometry, observables
from natvqe.experiments import hardware_efficient_ansatz, load_preset, single_qubit_ansatz
from natvqe.geometry import PROB_FLOOR, MetricMatrix
from natvqe.observables import SpectralDecomposition, outcome_distribution
from natvqe.optimizers import metric_for
from natvqe.states import Gate, GateKind
from test_observables import projectors
from test_optimizers import edge_floats, same_bits
from test_states import random_circuit

angle = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)


def single_qubit_metric_closed_form(t1):
    return np.diag([1.0, math.sin(2 * t1) ** 2])


def single_qubit_gram_closed_form(t1):
    return np.diag([1.0, 4 * math.sin(t1) ** 2])


def two_layer_metric_closed_form(t1, t2):
    f = np.eye(4)
    f[0, 2] = f[2, 0] = math.sin(2 * t2)
    f[1, 3] = f[3, 1] = math.cos(2 * t1)
    f[2, 3] = f[3, 2] = -math.sin(2 * t1) * math.cos(2 * t2)
    return f


def separability_indicator(values):
    """Product of the two coupling-block determinants; zero exactly on product states."""
    return float((1.0 - values[0, 2] ** 2) * (1.0 - values[1, 3] ** 2))


def overlap_metric_oracle(circ, theta, delta=1e-4, directions=None):
    """Quadratic-form fit of 1 - |<phi(theta)|phi(theta + x)>|^2, the defining
    infinitesimal distance of the metric.  Independent of derivative states.

    The displacements x run along the columns of ``directions`` (default: the
    slots), so for theta = J phi and ``directions`` J the fit is the metric in phi.
    """
    theta = np.asarray(theta, float)
    directions = np.eye(circ.n_params) if directions is None else directions
    m = directions.shape[1]
    base = build_state(circ, theta)

    def loss(x):
        return 1.0 - abs(np.vdot(base, build_state(circ, theta + x))) ** 2

    fit = np.zeros((m, m))
    for i in range(m):
        ei = directions[:, i] * delta
        fit[i, i] = (loss(ei) + loss(-ei)) / (2 * delta ** 2)
        for j in range(i + 1, m):
            ej = directions[:, j] * delta
            fit[i, j] = fit[j, i] = (
                loss(ei + ej) - loss(ei - ej) + loss(-ei - ej) - loss(-ei + ej)
            ) / (8 * delta ** 2)
    return fit


class TestFubiniStudyMetric:
    def test_single_qubit_closed_form_grid(self):
        circ = single_qubit_ansatz()
        grid = np.linspace(-np.pi, np.pi, 20)
        for t1 in grid:
            for t2 in grid:
                values = fubini_study_metric(circ, [t1, t2]).values
                assert np.max(np.abs(values - single_qubit_metric_closed_form(t1))) < 1e-9

    def test_north_pole_singular(self):
        values = fubini_study_metric(single_qubit_ansatz(), [0.0, 0.7]).values
        np.testing.assert_allclose(values, np.diag([1.0, 0.0]), atol=1e-14)

    def test_two_layer_closed_form(self):
        circ = hardware_efficient_ansatz()
        rng = np.random.default_rng(5)
        for _ in range(300):
            theta = rng.uniform(-np.pi, np.pi, 4)
            values = fubini_study_metric(circ, theta).values
            assert np.max(np.abs(values - two_layer_metric_closed_form(*theta[:2]))) < 1e-12

    @pytest.mark.parametrize("circ", [single_qubit_ansatz(), hardware_efficient_ansatz()],
                             ids=["single-qubit", "hardware-efficient"])
    def test_overlap_oracle(self, circ):
        rng = np.random.default_rng(6)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            values = fubini_study_metric(circ, theta).values
            assert np.max(np.abs(values - overlap_metric_oracle(circ, theta))) < 1e-6

    def test_independent_of_second_layer(self):
        circ = hardware_efficient_ansatz()
        rng = np.random.default_rng(7)
        for _ in range(30):
            t1, t2 = rng.uniform(-np.pi, np.pi, 2)
            ref = fubini_study_metric(circ, [t1, t2, 0.0, 0.0]).values
            other = fubini_study_metric(circ, [t1, t2, *rng.uniform(-np.pi, np.pi, 2)]).values
            assert np.max(np.abs(ref - other)) < 1e-10

    @given(st.lists(angle, min_size=2, max_size=2))
    def test_symmetric_psd(self, theta):
        values = fubini_study_metric(single_qubit_ansatz(), theta).values
        assert np.max(np.abs(values - values.T)) < 1e-12
        assert np.linalg.eigvalsh(values)[0] >= -1e-12


class TestIteMatrix:
    def test_single_qubit_closed_form(self):
        circ = single_qubit_ansatz()
        rng = np.random.default_rng(8)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi, 2)
            values = ite_matrix(circ, theta).values
            assert np.max(np.abs(values - single_qubit_gram_closed_form(theta[0]))) < 1e-12

    def test_south_pole_not_captured(self):
        # the state stops depending on t2 at t1 = pi/2; the Gram matrix misses it
        theta = [np.pi / 2, 0.4]
        gram = ite_matrix(single_qubit_ansatz(), theta).values
        np.testing.assert_allclose(gram, np.diag([1.0, 4.0]), atol=1e-12)
        metric = fubini_study_metric(single_qubit_ansatz(), theta).values
        np.testing.assert_allclose(metric, np.diag([1.0, 0.0]), atol=1e-12)

    def test_equals_metric_for_real_circuit(self):
        circ = hardware_efficient_ansatz()
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi, 4)
            a = ite_matrix(circ, theta).values
            f = fubini_study_metric(circ, theta).values
            assert np.max(np.abs(a - f)) < 1e-12


class TestClassicalFisherMetric:
    def test_known_value(self, single_qubit):
        circ, h = single_qubit
        values = classical_fisher_metric(circ, [np.pi / 8, 0.0], spectral_decompose(h)).values
        np.testing.assert_allclose(values, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_log_probability_oracle(self, single_qubit):
        """E[(d log p)(d log p)^T] via finite differences of log p."""
        circ, h = single_qubit
        decomp = spectral_decompose(h)
        rng = np.random.default_rng(10)
        done = 0
        while done < 30:
            theta = rng.uniform(-np.pi, np.pi, 2)
            probs = outcome_distribution(decomp, build_state(circ, theta))
            if probs.min() < 1e-3:
                continue
            done += 1
            values = classical_fisher_metric(circ, theta, decomp).values
            delta = 1e-6
            dlogp = np.zeros((2, 2))
            for i in range(2):
                up, down = np.array(theta), np.array(theta)
                up[i] += delta
                down[i] -= delta
                p_up = outcome_distribution(decomp, build_state(circ, up))
                p_dn = outcome_distribution(decomp, build_state(circ, down))
                dlogp[:, i] = (np.log(p_up) - np.log(p_dn)) / (2 * delta)
            oracle = (dlogp.T * probs) @ dlogp
            assert np.max(np.abs(values - oracle)) < 1e-5 * max(1.0, np.max(np.abs(values)))

    def test_rank_one(self, single_qubit):
        circ, h = single_qubit
        decomp = spectral_decompose(h)
        rng = np.random.default_rng(12)
        done = 0
        while done < 50:
            theta = rng.uniform(-np.pi, np.pi, 2)
            probs = outcome_distribution(decomp, build_state(circ, theta))
            if probs.min() < 1e-6:
                continue
            done += 1
            eigs = np.linalg.eigvalsh(classical_fisher_metric(circ, theta, decomp).values)
            assert eigs[-2] < 1e-9 * eigs[-1]

    def test_degenerate_distribution_rejected(self, single_qubit):
        circ, h = single_qubit
        with pytest.raises(MetricUndefinedError, match="degenerate distribution"):
            classical_fisher_metric(circ, [np.pi / 4, 0.0], spectral_decompose(h))

    def test_undefined_metric_is_an_arithmetic_error(self):
        # valid inputs lead there, as to a failed solve, so the CLI exits 3 for both
        assert issubclass(MetricUndefinedError, ArithmeticError)
        assert not issubclass(MetricUndefinedError, ValueError)

    def test_decomposition_of_another_size_rejected(self, single_qubit):
        # it used to fail inside numpy: "matmul: Input operand 1 has a mismatch ..."
        _, h = single_qubit
        with pytest.raises(ValueError) as err:
            classical_fisher_metric(hardware_efficient_ansatz(), [0.1, 0.2, 0.3, 0.4],
                                    spectral_decompose(h))
        assert str(err.value) == "decomposition and state dimensions do not match"

    def test_computational_basis_on_the_h2_ansatz_is_four_f(self):
        """The h2 ansatz has real amplitudes phi_j, so p_j = phi_j^2 and FC = 4 Re<d phi|d phi> = 4F."""
        circ = hardware_efficient_ansatz()
        computational = SpectralDecomposition(np.arange(4.0), np.eye(4), np.arange(4))
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(500):
            theta = rng.uniform(-np.pi, np.pi, 4)
            four_f = 4.0 * fubini_study_metric(circ, theta).values
            fc = classical_fisher_metric(circ, theta, computational).values
            worst = max(worst, np.max(np.abs(fc - four_f)) / np.max(np.abs(four_f)))
        assert worst < 1e-14  # measured: 4.4e-16

    def test_z_and_x_measurements_of_the_single_qubit_ansatz_have_rank_one(self):
        """Two outcomes give rank 1 of 2 wherever FC is defined, and each basis sees a
        different share of 4F; in Z it is 1 / (1 + sin^2(2 t1)), whose mean is 1/sqrt(2)."""
        circ = single_qubit_ansatz()
        rng = np.random.default_rng(28)
        for label, share in (("Z", 0.686), ("X", 0.479)):  # measured on these 300 points each
            decomp = spectral_decompose(pauli_sum(1, [(1.0, label)]))
            ratios = []
            for _ in range(300):
                theta = rng.uniform(-np.pi, np.pi, 2)
                try:
                    fc = classical_fisher_metric(circ, theta, decomp)
                except MetricUndefinedError:
                    continue
                assert singularity_report(fc).rank == 1
                four_f = 4.0 * fubini_study_metric(circ, theta).values
                ratios.append(np.trace(fc.values) / np.trace(four_f))
            assert len(ratios) > 290
            assert np.mean(ratios) == pytest.approx(share, abs=1e-3)


class TestSingularityReport:
    def test_identity_full_rank(self):
        report = singularity_report(MetricMatrix(np.eye(3)))
        assert report.rank == 3
        assert not report.is_singular
        assert abs(report.determinant - 1.0) < 1e-12

    def test_south_pole_rank_one(self):
        metric = fubini_study_metric(single_qubit_ansatz(), [np.pi / 2, 0.3])
        report = singularity_report(metric)
        assert report.rank == 1
        assert report.is_singular
        assert abs(report.determinant) < 1e-12

    def test_two_layer_always_singular(self, h2_problem):
        """Four parameters on a 3-dim state manifold: det = 0 everywhere, yet the
        coupling-block determinant recovers sin^2(2 t1) cos^2(2 t2)."""
        circ, _ = h2_problem
        rng = np.random.default_rng(13)
        for _ in range(200):
            theta = rng.uniform(-np.pi, np.pi, 4)
            metric = fubini_study_metric(circ, theta)
            report = singularity_report(metric)
            assert abs(report.determinant) < 1e-9
            assert report.rank == 3 or report.rank == 2
            expected = math.sin(2 * theta[0]) ** 2 * math.cos(2 * theta[1]) ** 2
            assert abs(separability_indicator(metric.values) - expected) < 1e-9

    @pytest.mark.parametrize("rank_tol", [-1.0, -1e-300, np.nan, np.inf,
                                          pytest.param(10**400, id="int-past-float-range")])
    def test_bad_rank_tol_rejected(self, h2_problem, rank_tol):
        # unchecked, -1 counts this rank-3 F as rank 4, nan counts it as rank 0,
        # and an int past the float range overflows in the rank count
        circ, _ = h2_problem
        with pytest.raises(ValueError, match="rank_tol"):
            singularity_report(fubini_study_metric(circ, [0.3, -0.2, 0.1, 0.5]), rank_tol)

    def test_counts_and_product_match_numpy_helpers(self):
        for circ, theta, rng in seeded_circuits(54, 200):
            metric = fubini_study_metric(circ, theta)
            rank_tol = 10.0 ** rng.uniform(-16.0, 0.0)
            report = singularity_report(metric, rank_tol)
            eigs = metric.eigenvalues
            scale = max(float(eigs[-1]), 0.0)
            expected = int(np.sum(eigs > rank_tol * scale)) if scale > 0.0 else 0
            assert type(report.rank) is int and report.rank == expected
            assert same_bits(report.determinant, float(np.prod(eigs)))


class TestEntanglementEntropy:
    def test_product_state(self):
        assert entanglement_entropy(np.array([1, 0, 0, 0], dtype=complex)) == 0.0

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert abs(entanglement_entropy(bell) - math.log(2)) < 1e-12

    def test_matches_spectral_formula(self, h2_problem):
        """S agrees with -l*log(l) - (1-l)*log(1-l), l = (1 + sqrt(1 - d))/2,
        where d is the coupling-block determinant of the metric."""
        circ, _ = h2_problem
        rng = np.random.default_rng(14)
        for _ in range(200):
            theta = rng.uniform(-np.pi, np.pi, 4)
            s = entanglement_entropy(build_state(circ, theta))
            d = separability_indicator(fubini_study_metric(circ, theta).values)
            lam = 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - d))
            expected = 0.0
            for p in (lam, 1.0 - lam):
                if p > 0.0:
                    expected -= p * math.log(p)
            assert abs(s - expected) < 1e-9

    def test_zero_iff_indicator_zero_on_grid(self, h2_problem):
        # commensurate grid: the indicator is either exactly 0 or > 0.03 on it
        circ, _ = h2_problem
        grid = np.linspace(-np.pi, np.pi, 9)
        for t1 in grid:
            for t2 in grid:
                for t3 in (-0.4, 1.1):
                    theta = [t1, t2, t3, 0.25]
                    s = entanglement_entropy(build_state(circ, theta))
                    d = separability_indicator(fubini_study_metric(circ, theta).values)
                    assert (s < 1e-9) == (d < 1e-9)

    def test_wrong_qubit_count(self):
        for state in (np.array([1, 0], dtype=complex), np.eye(2) / np.sqrt(2), np.ones(8) / np.sqrt(8)):
            with pytest.raises(ValueError, match="2 qubits"):
                entanglement_entropy(state)

    @pytest.mark.parametrize("state, shown", [
        ([True, 0, 0, 0], "True"),
        (["1", "0", "0", "0"], "'1'"),
        (np.array([True, False, False, False]), "True"),
    ], ids=["bool", "text", "numpy-bool"])
    def test_bool_and_text_amplitudes_rejected(self, state, shown):
        # these used to read as the product state [1, 0, 0, 0]
        with pytest.raises(ValueError) as info:
            entanglement_entropy(state)
        assert str(info.value) == f"amplitude must be a number, got {shown}"

    def test_int_float_and_complex_amplitudes_accepted(self):
        assert entanglement_entropy([1, 0, 0, 0]) == 0.0
        bell = [1 / math.sqrt(2), 0, 0, 1j / math.sqrt(2)]
        assert abs(entanglement_entropy(bell) - math.log(2)) < 1e-12

    def test_unnormalized_rejected(self):
        # unchecked, [inf, 0, 0, 0] reads as a product state and [nan, 0, 0, 0] fails in the SVD
        for state in ([1, 1, 0, 0], [np.inf, 0, 0, 0], [np.nan, 0, 0, 0]):
            with pytest.raises(ValueError, match="normalized"):
                entanglement_entropy(np.array(state, dtype=complex))


def min_eig_of_difference(a, b):
    """The smallest eigenvalue of a - b: a >= b as matrices iff it is >= -tol."""
    return np.linalg.eigvalsh(a.values - b.values)[0]


class TestPsdOrder:
    def test_gram_dominates_metric(self):
        # A - F is the rank-one overlap correction, always PSD
        rng = np.random.default_rng(15)
        for circ in (single_qubit_ansatz(), hardware_efficient_ansatz()):
            for _ in range(50):
                theta = rng.uniform(-np.pi, np.pi, circ.n_params)
                a = ite_matrix(circ, theta)
                f = fubini_study_metric(circ, theta)
                assert min_eig_of_difference(a, f) >= -1e-9

    def test_metric_does_not_dominate_gram(self):
        theta = [np.pi / 4, 0.6]
        a = ite_matrix(single_qubit_ansatz(), theta)
        f = fubini_study_metric(single_qubit_ansatz(), theta)
        # A - F = diag(0, 4 sin^4 t1) has a strictly positive eigenvalue here
        assert min_eig_of_difference(f, a) < -1e-9

    def test_metric_dominates_scaled_classical(self, single_qubit):
        # classical information is capped by 4x the state metric (Braunstein-Caves),
        # the 4 being the usual quantum-Fisher normalization
        circ, h = single_qubit
        decomp = spectral_decompose(h)
        rng = np.random.default_rng(16)
        done = 0
        while done < 50:
            theta = rng.uniform(-np.pi, np.pi, 2)
            probs = outcome_distribution(decomp, build_state(circ, theta))
            if probs.min() < 1e-3:
                continue
            done += 1
            f = fubini_study_metric(circ, theta)
            fc = classical_fisher_metric(circ, theta, decomp)
            quarter = MetricMatrix(0.25 * fc.values)
            assert min_eig_of_difference(f, quarter) >= -1e-8


class TestMetricMatrixValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            MetricMatrix(np.zeros((0, 0)))
        fixed_only = circuit(1, [fixed_unitary(np.array([[0, 1], [1, 0]], dtype=complex), 0)])
        with pytest.raises(ValueError, match="no parameterized gate"):
            fubini_study_metric(fixed_only, [])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MetricMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            MetricMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("values, shown", [
        ([["1", "0"], ["0", "1"]], "'1'"),
        (np.array([["1", "0"], ["0", "1"]]), "'1'"),
        (np.eye(2, dtype=bool), "True"),
        ([[1.0, False], [False, 1.0]], "False"),
    ], ids=["text", "numpy-text", "numpy-bool", "bool-entries"])
    def test_bool_and_text_entries_rejected(self, values, shown):
        # these used to validate as the identity through numpy's float cast
        with pytest.raises(ValueError) as info:
            MetricMatrix(values)
        assert str(info.value) == f"metric entry must be a number, got {shown}"

    def test_int_entries_accepted(self):
        metric = MetricMatrix([[1, 0], [np.int64(0), 2]])
        assert metric.values.dtype == float and metric.values.tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_indefinite_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="semidefinite"):
            MetricMatrix(np.diag([1.0, -0.5]))
        # a non-finite entry fails the symmetry check first, so feign a NaN spectrum
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda vals: np.full(len(vals), np.nan))
        with pytest.raises(ValueError, match="semidefinite"):
            MetricMatrix(np.eye(2))

    def test_eigenvalues_from_validation(self, h2_problem):
        circ, _ = h2_problem
        metric = fubini_study_metric(circ, [0.3, -0.7, 1.1, 0.2])
        assert np.array_equal(metric.eigenvalues, np.linalg.eigvalsh(metric.values))
        with pytest.raises(ValueError):
            metric.eigenvalues[0] = 0.0
        report = singularity_report(metric)
        assert report.min_eigenvalue == metric.eigenvalues[0]
        assert report.determinant == float(np.prod(metric.eigenvalues))


# ---------------------------------------------------------------------------
# The eigenbasis classical Fisher metric against the projector loop it replaced

# Hamiltonians with degenerate eigenvalues, so outcomes span several eigenvectors
DEGENERATE = {
    1: [[(2.0, "I")]],
    2: [[(1.0, "ZI"), (1.0, "IZ")], [(1.0, "XX"), (1.0, "YY")]],
    3: [[(1.0, "ZII"), (1.0, "IZI"), (1.0, "IIZ")], [(1.0, "XXI"), (1.0, "YYI")]],
}


def projector_loop_fisher(circ, theta, decomposition):
    """Reference FC: one pass per projector.  Returns (values, kept outcomes)."""
    phi, tangents = state_and_tangents(circ, theta)
    kept, retained = [], []
    for proj in projectors(decomposition):
        proj_phi = proj @ phi
        p = float(np.vdot(phi, proj_phi).real)
        kept.append(p > PROB_FLOOR)
        if p > PROB_FLOOR:
            retained.append((p, 2.0 * np.real(tangents.conj() @ proj_phi)))
    if len(retained) < 2:
        raise MetricUndefinedError("metric undefined: degenerate distribution")
    values = np.zeros((circ.n_params, circ.n_params))
    for p, dp in retained:
        values += np.outer(dp, dp) / p
    return 0.5 * (values + values.T), np.array(kept)


def projector_probabilities(circ, theta, decomposition):
    vec = build_state(circ, theta)
    return np.array([np.vdot(vec, proj @ vec).real for proj in projectors(decomposition)])


def random_problem(pick, uniform):
    """(circuit, hamiltonian, theta): 1-3 qubits, ry/phase/CNOT, slots drawn with repeats.

    ``pick(k)`` returns an integer in [0, k) and ``uniform()`` an angle.  The
    Hamiltonian is one of ``DEGENERATE`` or a random Pauli sum with
    half-integer weights (degenerate eigenvalues are common) or uniform
    weights.  Half the angles sit on multiples of pi/4, where states are often
    eigenstates and outcomes drop out of the Fisher sum.
    """
    n = 1 + pick(3)
    slots = 1 + pick(4)
    gates = [ry(pick(n), pick(slots))]
    for _ in range(pick(9)):
        kind = pick(3 if n > 1 else 2)
        if kind == 0:
            gates.append(ry(pick(n), pick(slots)))
        elif kind == 1:
            gates.append(phase(pick(n), pick(slots)))
        else:
            control = pick(n)
            gates.append(cnot(control, (control + 1 + pick(n - 1)) % n))
    used = sorted({g.param_index for g in gates if g.param_index is not None})
    slot = {old: new for new, old in enumerate(used)}
    circ = circuit(n, [g if g.param_index is None else Gate(g.kind, g.targets, slot[g.param_index])
                       for g in gates])
    choice = pick(len(DEGENERATE[n]) + 2)
    if choice < len(DEGENERATE[n]):
        terms = DEGENERATE[n][choice]
    else:
        half_integer = choice == len(DEGENERATE[n])
        terms = [(pick(4) - 1.5 if half_integer else uniform(), "".join("IXYZ"[pick(4)] for _ in range(n)))
                 for _ in range(1 + pick(4))]
    theta = np.array([pick(8) * np.pi / 4 if pick(2) else uniform() for _ in range(circ.n_params)])
    return circ, pauli_sum(n, terms), theta


@st.composite
def problems(draw):
    return random_problem(lambda k: draw(st.integers(0, k - 1)), lambda: draw(angle))


def random_measurement(rng, dim):
    """A seeded random orthonormal basis of C^dim, split into random outcome blocks: any
    measurement, not H's eigenbasis, which ``classical_fisher_metric`` takes all the same."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    outcomes = int(rng.integers(1, dim + 1))
    starts = np.concatenate([[0], np.sort(rng.choice(np.arange(1, dim), outcomes - 1,
                                                     replace=False))])
    return SpectralDecomposition(np.arange(float(outcomes)), basis, starts)


def seeded_problems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_problem(lambda k: int(rng.integers(k)), lambda: float(rng.uniform(-np.pi, np.pi)))


class TestClassicalFisherEigenbasis:
    def test_matches_projector_loop(self):
        rng = np.random.default_rng(43)
        seen = set()
        for circ, h, theta in seeded_problems(41, 400):
            measured = random_measurement(rng, 2 ** circ.n_qubits)
            for basis, decomp in (("eigenbasis", spectral_decompose(h)), ("random", measured)):
                try:
                    ref, ref_kept = projector_loop_fisher(circ, theta, decomp)
                except MetricUndefinedError:
                    with pytest.raises(MetricUndefinedError, match="degenerate distribution"):
                        classical_fisher_metric(circ, theta, decomp)
                    seen.add("raised")
                    continue
                values = classical_fisher_metric(circ, theta, decomp).values
                phi, tangents = state_and_tangents(circ, theta)
                p = decomp.expand(phi)[1]
                assert np.array_equal(p > PROB_FLOOR, ref_kept)
                if p[ref_kept].min() > 1e-6:
                    # |FC_ij| <= 4 max_i |d_i phi|^2, so this is a relative bound even
                    # where FC itself is round-off (a stationary point of every p_k)
                    scale = 4.0 * np.max(np.sum(np.abs(tangents) ** 2, axis=1))
                    assert np.max(np.abs(values - ref)) <= 1e-9 * scale
                    seen.add(f"compared in {basis}")
                if not ref_kept.all():
                    seen.add("outcome dropped")
                if np.any(np.diff(np.append(decomp.starts, len(phi))) > 1):
                    seen.add("degenerate outcome")
                if circ.n_qubits == 3:
                    seen.add("3 qubits")
        assert seen == {"raised", "compared in eigenbasis", "compared in random",
                        "outcome dropped", "degenerate outcome", "3 qubits"}

    def test_central_difference_oracle(self):
        """dp from central differences of p_k = <phi|P_k|phi>, independent of both forms."""
        done, delta = 0, 1e-5
        for circ, h, theta in seeded_problems(42, 400):
            decomp = spectral_decompose(h)
            p = projector_probabilities(circ, theta, decomp)
            kept = p > PROB_FLOOR
            if np.count_nonzero(kept) < 2 or p[kept].min() < 1e-3:
                continue
            dp = np.zeros((circ.n_params, len(p)))
            for i in range(circ.n_params):
                up, down = theta.copy(), theta.copy()
                up[i] += delta
                down[i] -= delta
                dp[i] = (projector_probabilities(circ, up, decomp)
                         - projector_probabilities(circ, down, decomp)) / (2 * delta)
            oracle = (dp[:, kept] / p[kept]) @ dp[:, kept].T
            values = classical_fisher_metric(circ, theta, decomp).values
            assert np.max(np.abs(values - oracle)) < 1e-6 * max(1.0, np.max(np.abs(oracle)))
            done += 1
        assert done > 100

    @given(problems(), st.integers(0, 2 ** 32 - 1))
    def test_dominated_by_four_times_metric(self, problem, seed):
        # in H's eigenbasis and in any other measurement: a seeded random basis and split
        circ, h, theta = problem
        four_f = MetricMatrix(4.0 * fubini_study_metric(circ, theta).values)
        measured = random_measurement(np.random.default_rng(seed), 2 ** circ.n_qubits)
        for decomp in (spectral_decompose(h), measured):
            try:
                fc = classical_fisher_metric(circ, theta, decomp)
            except MetricUndefinedError:
                continue
            bound = -1e-9 * max(1.0, float(four_f.eigenvalues[-1]))
            assert min_eig_of_difference(four_f, fc) >= bound

    @given(problems())
    def test_rank_below_kept_outcomes(self, problem):
        # the kept dp_k sum to (nearly) zero because the p_k sum to one
        circ, h, theta = problem
        decomp = spectral_decompose(h)
        try:
            fc = classical_fisher_metric(circ, theta, decomp)
        except MetricUndefinedError:
            return
        phi, tangents = state_and_tangents(circ, theta)
        kept = np.count_nonzero(decomp.expand(phi)[1] > PROB_FLOOR)
        # rank against 4 tr A >= max eig FC, not against FC itself, which may be all round-off
        scale = 4.0 * np.sum(np.abs(tangents) ** 2)
        assert np.count_nonzero(fc.eigenvalues > 1e-9 * scale) <= kept - 1

    @given(problems())
    def test_basis_is_read_only_and_unitary(self, problem):
        _, h, _ = problem
        basis = spectral_decompose(h).basis
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(len(basis)))) < 1e-12

    @given(problems())
    def test_outcome_distribution_matches_projectors(self, problem):
        circ, h, theta = problem
        decomp = spectral_decompose(h)
        probs = outcome_distribution(decomp, build_state(circ, theta))
        assert np.max(np.abs(probs - projector_probabilities(circ, theta, decomp))) < 1e-12


# ---------------------------------------------------------------------------
# The one metric dispatch against the three functions it calls

DIRECT = {
    OptimizerKind.NATURAL_FS: lambda circ, h, theta: fubini_study_metric(circ, theta),
    OptimizerKind.ITE: lambda circ, h, theta: ite_matrix(circ, theta),
    OptimizerKind.NATURAL_CLASSICAL:
        lambda circ, h, theta: classical_fisher_metric(circ, theta, spectral_decompose(h)),
}


class TestMetricFor:
    @pytest.mark.parametrize("kind", list(DIRECT))
    def test_same_bits_as_the_direct_function(self, kind):
        computed = 0
        for circ, h, theta in seeded_problems(44, 300):
            try:
                expected = DIRECT[kind](circ, h, theta)
            except MetricUndefinedError:
                with pytest.raises(MetricUndefinedError, match="degenerate distribution"):
                    metric_for(kind, h, circ, theta)
                continue
            metric = metric_for(kind, h, circ, theta)
            assert metric.values.tobytes() == expected.values.tobytes()
            assert metric.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
            computed += 1
        assert computed > 150


# ---------------------------------------------------------------------------
# The read-offs of a stack of points against the public functions at each point


def assert_each_point_keeps_its_bits(circ, hamiltonian, thetas):
    """The energy, gradient, F and A read off the stack (B, d), (B, m, d) of the points
    ``thetas`` have, row by row, the bytes the public functions give at that point."""
    points = [state_and_tangents(circ, theta) for theta in thetas]
    phis, tangents = np.stack([p for p, _ in points]), np.stack([t for _, t in points])
    energies, grads = observables._energy_and_gradient(hamiltonian, phis, tangents)
    fs, grams = geometry._fubini_study(phis, tangents), geometry._ite(tangents)
    size, m = len(thetas), circ.n_params
    assert energies.shape == (size,) and grads.shape == (size, m)
    assert fs.shape == grams.shape == (size, m, m)
    for b, theta in enumerate(thetas):
        value, grad = energy_and_gradient(hamiltonian, circ, theta)
        assert same_bits(energies[b], value)
        assert grads[b].tobytes() == grad.tobytes()
        assert fs[b].tobytes() == fubini_study_metric(circ, theta).values.tobytes()
        assert grams[b].tobytes() == ite_matrix(circ, theta).values.tobytes()


class TestStackReadOffs:
    @pytest.mark.parametrize("size", [2, 7, 50])
    @pytest.mark.parametrize("name", ["qubit-a", "h2-a"])
    def test_presets(self, name, size):
        problem = load_preset(name)
        thetas = np.random.default_rng(size).uniform(-np.pi, np.pi, (size, problem.circuit.n_params))
        assert_each_point_keeps_its_bits(problem.circuit, problem.hamiltonian, thetas)

    @given(problems(), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_random_circuits(self, problem, more, seed):
        # the drawn point (often on multiples of pi/4) first, then seeded ones
        circ, hamiltonian, theta = problem
        rng = np.random.default_rng(seed)
        thetas = np.vstack([theta, rng.uniform(-np.pi, np.pi, (more, circ.n_params))])
        assert_each_point_keeps_its_bits(circ, hamiltonian, thetas)


# ---------------------------------------------------------------------------
# Projectors of the eigenbasis blocks against the projector checks the
# orthonormality check of the basis replaced


def replaced_projector_checks(projectors, tol=1e-10):
    """Identity resolution and all K^2 orthogonal-idempotent products, at ``tol``."""
    dim = projectors[0].shape[0]
    total = sum(projectors)
    if np.max(np.abs(total - np.eye(dim))) > tol:
        raise ValueError("projectors do not resolve the identity")
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            expect = p if i == j else 0.0
            if np.max(np.abs(p @ q - expect)) > tol:
                raise ValueError("projectors are not orthogonal idempotents")


def heisenberg_chain(n):
    """XX + YY + ZZ on neighbouring qubits: degenerate blocks of many sizes (35 outcomes at n = 7)."""
    return pauli_sum(n, [(1.0, "I" * i + pauli * 2 + "I" * (n - i - 2))
                         for i in range(n - 1) for pauli in "XYZ"])


class TestBlockProjectors:
    def test_pass_the_replaced_checks(self):
        hamiltonians = [h for _, h, _ in seeded_problems(41, 400)]
        hamiltonians += [pauli_sum(n, terms) for n, sets in DEGENERATE.items() for terms in sets]
        hamiltonians.append(heisenberg_chain(7))
        for h in hamiltonians:
            replaced_projector_checks(projectors(spectral_decompose(h)))
        assert len(spectral_decompose(heisenberg_chain(7)).starts) == 35


# ---------------------------------------------------------------------------
# Invariants over random circuits: 1-4 qubits, ry, phase, CNOT, 1- and 2-qubit
# fixed unitaries, parameter slots shared between gates


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def real_circuit(circ, rng):
    """The same gate layout with every gate real: phase -> ry, fixed unitaries -> orthogonal."""
    gates = []
    for g in circ.gates:
        if g.kind is GateKind.PHASE:
            gates.append(ry(g.targets[0], g.param_index))
        elif g.kind is GateKind.UNITARY:
            gates.append(fixed_unitary(random_orthogonal(rng, 2 ** len(g.targets)), *g.targets))
        else:
            gates.append(g)
    return circuit(circ.n_qubits, gates)


def distinct_slots(circ):
    """The circuit with one slot per parametrized gate, and J with J[g, slot of gate g] = 1."""
    gates, rows = [], []
    for g in circ.gates:
        if g.param_index is None:
            gates.append(g)
        else:
            gates.append(Gate(g.kind, g.targets, len(rows)))
            rows.append(g.param_index)
    jacobian = np.zeros((len(rows), circ.n_params))
    jacobian[np.arange(len(rows)), rows] = 1.0
    return circuit(circ.n_qubits, gates), jacobian


def seeded_circuits(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        circ = random_circuit(rng)
        yield circ, rng.uniform(-np.pi, np.pi, circ.n_params), rng


class TestRandomCircuitInvariants:
    def test_gram_dominates_metric(self):
        for circ, theta, _ in seeded_circuits(51, 400):
            a = ite_matrix(circ, theta)
            f = fubini_study_metric(circ, theta)
            assert min_eig_of_difference(a, f) >= -1e-9

    def test_metric_equals_gram_on_real_circuits(self):
        kinds = set()
        for circ, theta, rng in seeded_circuits(52, 400):
            circ = real_circuit(circ, rng)
            kinds.update(g.kind for g in circ.gates)
            a = ite_matrix(circ, theta).values
            f = fubini_study_metric(circ, theta).values
            assert np.max(np.abs(a - f)) < 1e-12
        assert kinds == {GateKind.RY, GateKind.CNOT, GateKind.UNITARY}

    def test_shared_slots_pull_back_the_distinct_metric(self):
        shared = 0
        for circ, theta, _ in seeded_circuits(53, 400):
            distinct, jacobian = distinct_slots(circ)
            f_distinct = fubini_study_metric(distinct, jacobian @ theta).values
            f = fubini_study_metric(circ, theta).values
            assert np.max(np.abs(f - jacobian.T @ f_distinct @ jacobian)) < 1e-12
            shared += jacobian.shape[0] > jacobian.shape[1]
        assert shared > 100


# ---------------------------------------------------------------------------
# Covariance under a general linear reparametrization theta = J phi, which a
# circuit cannot express: F pulls back to J^T F J, and the natural-gradient
# step maps as J dphi = dtheta where F has full rank; the vanilla step does not


def well_conditioned(rng, m):
    """A random m x m matrix with singular values in [0.2, 0.6], so I - J J^T >= 0.64 I.

    Small singular values keep the oracle's O(|J delta|^2) truncation error small.
    """
    return random_orthogonal(rng, m) @ np.diag(rng.uniform(0.2, 0.6, m)) @ random_orthogonal(rng, m)


def random_hamiltonian(rng, n):
    return pauli_sum(n, [(float(rng.uniform(-1, 1)), "".join(rng.choice(list("IXYZ"), n)))
                         for _ in range(3)])


class TestLinearReparametrization:
    def test_metric_and_gradient_along_the_columns_pull_back(self):
        for circ, theta, rng in seeded_circuits(54, 60):
            jac = well_conditioned(rng, circ.n_params)
            f = fubini_study_metric(circ, theta).values
            oracle = overlap_metric_oracle(circ, theta, directions=jac)
            assert np.max(np.abs(oracle - jac.T @ f @ jac)) < 1e-6
            h = random_hamiltonian(rng, circ.n_qubits)
            _, grad = energy_and_gradient(h, circ, theta)
            step = 1e-5
            central = [(energy(h, build_state(circ, theta + step * col))
                        - energy(h, build_state(circ, theta - step * col))) / (2 * step)
                       for col in jac.T]
            assert np.max(np.abs(central - jac.T @ grad)) < 1e-8

    def test_natural_step_is_covariant_and_vanilla_is_not(self):
        eta, full_rank = 0.05, 0
        for circ, theta, rng in seeded_circuits(55, 200):
            if fubini_study_metric(circ, theta).eigenvalues[0] < 1e-3:
                continue
            full_rank += 1
            jac = well_conditioned(rng, circ.n_params)
            h = random_hamiltonian(rng, circ.n_qubits)
            f = fubini_study_metric(circ, theta).values
            _, grad = energy_and_gradient(h, circ, theta)
            # the steps in phi = J^-1 theta, with F_phi = J^T F J and grad_phi = J^T grad
            natural_phi = -eta * np.linalg.solve(jac.T @ f @ jac, jac.T @ grad)
            vanilla_phi = -eta * (jac.T @ grad)
            steps = {}
            for kind in (OptimizerKind.NATURAL_FS, OptimizerKind.VANILLA):
                trajectory = run(kind, h, circ, theta, ConstantRate(eta), max_steps=1)
                steps[kind] = np.array(trajectory.steps[1].theta) - theta
            natural, vanilla = steps[OptimizerKind.NATURAL_FS], steps[OptimizerKind.VANILLA]
            scale = max(1.0, np.max(np.abs(natural)))
            assert np.max(np.abs(jac @ natural_phi - natural)) <= 1e-9 * scale
            if np.linalg.norm(vanilla) > 1e-6:
                assert np.linalg.norm(jac @ vanilla_phi - vanilla) > 0.5 * np.linalg.norm(vanilla)
        assert full_rank > 100

# ---------------------------------------------------------------------------
# The per-iterate expressions against the numpy helpers they replaced

def _complex(parts):
    z = parts[0].astype(complex)  # parts[0] + 1j * parts[1] would turn an infinite part into nan
    z.imag = parts[1]
    return z


complex_vectors = arrays(np.float64, st.tuples(st.just(2), st.integers(1, 40)),
                         elements=edge_floats(allow_nan=False)).map(_complex)


class TestNumpyHelperRewrites:
    @given(complex_vectors)
    # at length 1, (z[:, None] * z.conj()).real differed from np.outer in the last bit
    @example(np.array([7.09038031e+16 + 3.01171799e+15j]))
    def test_broadcast_product_is_outer(self, overlap):
        with np.errstate(all="ignore"):
            new = (overlap[:, None] * overlap.conj()[None, :]).real
            old = np.real(np.outer(overlap, overlap.conj()))
        assert new.tobytes() == old.tobytes()

    @given(st.integers(1, 8).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=edge_floats(allow_nan=True))))
    def test_symmetry_gap_is_np_max_abs(self, values):
        with np.errstate(all="ignore"):
            assert same_bits(abs(values - values.T).max(), np.max(np.abs(values - values.T)))

    def test_fubini_study_keeps_the_outer_product_bits(self):
        for circ, theta, _ in seeded_circuits(56, 300):
            phi, tangents = state_and_tangents(circ, theta)
            gram = tangents.conj() @ tangents.T
            overlap = tangents.conj() @ phi
            old = np.real(gram) - np.real(np.outer(overlap, overlap.conj()))
            old = 0.5 * (old + old.T)
            assert fubini_study_metric(circ, theta).values.tobytes() == old.tobytes()
