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
    Gate,
    MetricKind,
    MetricMatrix,
    MetricUndefinedError,
    build_state,
    circuit,
    classical_fisher_metric,
    cnot,
    entanglement_entropy,
    fixed_unitary,
    fubini_study_metric,
    hardware_efficient_ansatz,
    ite_matrix,
    outcome_distribution,
    pauli_sum,
    phase,
    psd_order_check,
    ry,
    single_qubit_ansatz,
    singularity_report,
    spectral_decompose,
    state_and_tangents,
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
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            MetricMatrix(MetricKind.ITE, np.zeros((0, 0)))
        fixed_only = circuit(1, [fixed_unitary(np.array([[0, 1], [1, 0]], dtype=complex), 0)])
        with pytest.raises(ValueError, match="no parameters"):
            fubini_study_metric(fixed_only, [])

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


# ---------------------------------------------------------------------------
# The eigenbasis classical Fisher metric against the projector loop it replaced

PROB_FLOOR = 1e-12

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
    for proj in decomposition.projectors:
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
    vec = build_state(circ, theta).amplitudes
    return np.array([np.vdot(vec, proj @ vec).real for proj in decomposition.projectors])


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


def seeded_problems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_problem(lambda k: int(rng.integers(k)), lambda: float(rng.uniform(-np.pi, np.pi)))


class TestClassicalFisherEigenbasis:
    def test_matches_projector_loop(self):
        seen = set()
        for circ, h, theta in seeded_problems(41, 400):
            decomp = spectral_decompose(h)
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
                seen.add("compared")
            if not ref_kept.all():
                seen.add("outcome dropped")
            if np.any(np.diff(np.append(decomp.starts, len(phi))) > 1):
                seen.add("degenerate outcome")
            if circ.n_qubits == 3:
                seen.add("3 qubits")
        assert seen == {"raised", "compared", "outcome dropped", "degenerate outcome", "3 qubits"}

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

    @given(problems())
    def test_dominated_by_four_times_metric(self, problem):
        circ, h, theta = problem
        try:
            fc = classical_fisher_metric(circ, theta, spectral_decompose(h))
        except MetricUndefinedError:
            return
        four_f = MetricMatrix(MetricKind.FUBINI_STUDY, 4.0 * fubini_study_metric(circ, theta).values)
        assert psd_order_check(four_f, fc, tol=1e-9 * max(1.0, float(four_f.eigenvalues[-1])))

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
    def test_blocks_span_the_projectors(self, problem):
        _, h, _ = problem
        decomp = spectral_decompose(h)
        ends = np.append(decomp.starts[1:], len(decomp.basis))
        for lo, hi, proj in zip(decomp.starts, ends, decomp.projectors):
            block = decomp.basis[:, lo:hi]
            assert np.max(np.abs(block @ block.conj().T - proj)) < 1e-12

    @given(problems())
    def test_outcome_distribution_matches_projectors(self, problem):
        circ, h, theta = problem
        decomp = spectral_decompose(h)
        probs = outcome_distribution(decomp, build_state(circ, theta)).probabilities
        assert np.max(np.abs(probs - projector_probabilities(circ, theta, decomp))) < 1e-12
