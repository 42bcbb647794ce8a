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
from hypothesis import given, strategies as st

from natvqe import (
    MetricKind,
    MetricMatrix,
    MetricUndefinedError,
    build_state,
    classical_fisher_metric,
    entanglement_entropy,
    fubini_study_metric,
    hardware_efficient_ansatz,
    ite_matrix,
    outcome_distribution,
    psd_order_check,
    single_qubit_ansatz,
    singularity_report,
    spectral_decompose,
    StateVector,
)

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


def overlap_metric_oracle(circ, theta, delta=1e-4):
    """Quadratic-form fit of 1 - |<phi(theta)|phi(theta + x)>|^2, the defining
    infinitesimal distance of the metric.  Independent of derivative states."""
    theta = np.asarray(theta, float)
    m = circ.n_params
    base = build_state(circ, theta).amplitudes

    def loss(x):
        return 1.0 - abs(np.vdot(base, build_state(circ, theta + x).amplitudes)) ** 2

    fit = np.zeros((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = delta
        fit[i, i] = (loss(ei) + loss(-ei)) / (2 * delta ** 2)
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = delta
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
        metric = fubini_study_metric(single_qubit_ansatz(), theta)
        assert metric.kind is MetricKind.FUBINI_STUDY
        values = metric.values
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
            probs = outcome_distribution(decomp, build_state(circ, theta)).probabilities
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
                p_up = outcome_distribution(decomp, build_state(circ, up)).probabilities
                p_dn = outcome_distribution(decomp, build_state(circ, down)).probabilities
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
            probs = outcome_distribution(decomp, build_state(circ, theta)).probabilities
            if probs.min() < 1e-6:
                continue
            done += 1
            eigs = np.linalg.eigvalsh(classical_fisher_metric(circ, theta, decomp).values)
            assert eigs[-2] < 1e-9 * eigs[-1]

    def test_degenerate_distribution_rejected(self, single_qubit):
        circ, h = single_qubit
        with pytest.raises(MetricUndefinedError, match="degenerate distribution"):
            classical_fisher_metric(circ, [np.pi / 4, 0.0], spectral_decompose(h))


class TestSingularityReport:
    def test_identity_full_rank(self):
        report = singularity_report(MetricMatrix(MetricKind.ITE, np.eye(3)))
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


class TestEntanglementEntropy:
    def test_product_state(self):
        assert entanglement_entropy(StateVector(2, np.array([1, 0, 0, 0], dtype=complex))) == 0.0

    def test_bell_state(self):
        bell = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
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
        with pytest.raises(ValueError, match="2 qubits"):
            entanglement_entropy(StateVector(1, np.array([1, 0], dtype=complex)))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            entanglement_entropy(StateVector(2, np.array([1, 1, 0, 0], dtype=complex)))


class TestPsdOrder:
    def test_gram_dominates_metric(self):
        # A - F is the rank-one overlap correction, always PSD
        rng = np.random.default_rng(15)
        for circ in (single_qubit_ansatz(), hardware_efficient_ansatz()):
            for _ in range(50):
                theta = rng.uniform(-np.pi, np.pi, circ.n_params)
                a = ite_matrix(circ, theta)
                f = fubini_study_metric(circ, theta)
                assert psd_order_check(a, f, tol=1e-9)

    def test_metric_does_not_dominate_gram(self):
        theta = [np.pi / 4, 0.6]
        a = ite_matrix(single_qubit_ansatz(), theta)
        f = fubini_study_metric(single_qubit_ansatz(), theta)
        # A - F = diag(0, 4 sin^4 t1) has a strictly positive eigenvalue here
        assert not psd_order_check(f, a, tol=1e-9)

    def test_metric_dominates_scaled_classical(self, single_qubit):
        # classical information is capped by 4x the state metric (Braunstein-Caves),
        # the 4 being the usual quantum-Fisher normalization
        circ, h = single_qubit
        decomp = spectral_decompose(h)
        rng = np.random.default_rng(16)
        done = 0
        while done < 50:
            theta = rng.uniform(-np.pi, np.pi, 2)
            probs = outcome_distribution(decomp, build_state(circ, theta)).probabilities
            if probs.min() < 1e-3:
                continue
            done += 1
            f = fubini_study_metric(circ, theta)
            fc = classical_fisher_metric(circ, theta, decomp)
            quarter = MetricMatrix(MetricKind.CLASSICAL_FISHER, 0.25 * fc.values)
            assert psd_order_check(f, quarter, tol=1e-8)

    def test_dimension_mismatch(self):
        a = MetricMatrix(MetricKind.ITE, np.eye(2))
        b = MetricMatrix(MetricKind.ITE, np.eye(3))
        with pytest.raises(ValueError):
            psd_order_check(a, b, tol=1e-9)


class TestMetricMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MetricMatrix(MetricKind.ITE, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            MetricMatrix(MetricKind.ITE, np.diag([1.0, -0.5]))

    def test_eigenvalues_from_validation(self, h2_problem):
        circ, _ = h2_problem
        metric = fubini_study_metric(circ, [0.3, -0.7, 1.1, 0.2])
        assert np.array_equal(metric.eigenvalues, np.linalg.eigvalsh(metric.values))
        with pytest.raises(ValueError):
            metric.eigenvalues[0] = 0.0
        report = singularity_report(metric)
        assert report.min_eigenvalue == metric.eigenvalues[0]
        assert report.determinant == float(np.prod(metric.eigenvalues))
