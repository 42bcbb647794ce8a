"""Update rules, regularized solves, and the iteration loop."""
import numpy as np
import pytest

from natvqe import (
    ConstantRate,
    EigenFloor,
    InverseStepRate,
    MetricKind,
    MetricMatrix,
    MetricUndefinedError,
    OptimizerKind,
    PseudoInverse,
    TerminalReason,
    Tikhonov,
    circuit,
    fixed_unitary,
    fubini_study_metric,
    load_preset,
    pauli_sum,
    run,
    ry,
    solve_regularized,
    step,
)

PI_12 = np.pi / 12


def metric_of(values):
    return MetricMatrix(MetricKind.ITE, np.asarray(values, dtype=float))


class TestSolveRegularized:
    @pytest.mark.parametrize("policy", [EigenFloor(1e-10), PseudoInverse(1e-12)])
    def test_identity_returns_gradient(self, policy):
        g = np.array([0.3, -1.7, 2.2])
        x = solve_regularized(metric_of(np.eye(3)), g, policy)
        assert np.array_equal(x, g)

    def test_identity_under_tikhonov_shift(self):
        # the shift policy solves (M + eps*I) x = g, so x = g/(1 + eps) here
        g = np.array([0.3, -1.7, 2.2])
        x = solve_regularized(metric_of(np.eye(3)), g, Tikhonov(1e-12))
        np.testing.assert_allclose(x, g, rtol=1e-11)

    def test_plain_inverse_limit(self):
        x = solve_regularized(metric_of(np.diag([1.0, 0.25])), [1.5, -0.5], Tikhonov(1e-12))
        np.testing.assert_allclose(x, [1.5, -2.0], atol=1e-9)

    def test_eigen_floor_lifts_null_direction(self):
        x = solve_regularized(metric_of(np.diag([1.0, 0.0])), [1.0, 1.0], EigenFloor(1e-3))
        np.testing.assert_allclose(x, [1.0, 1000.0], atol=1e-9)

    def test_pseudo_inverse_drops_null_direction(self):
        x = solve_regularized(metric_of(np.diag([1.0, 0.0])), [1.0, 1.0], PseudoInverse(1e-6))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [np.zeros((2, 2)), np.diag([-1e-12, 0.0])],
                             ids=["zero", "round-off negative"])
    def test_pseudo_inverse_without_positive_eigenvalue_is_zero_step(self, values):
        x = solve_regularized(metric_of(values), [1.0, -2.0], PseudoInverse(1e-6))
        assert np.array_equal(x, [0.0, 0.0])

    def test_gradient_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            solve_regularized(metric_of(np.eye(2)), [1.0, 2.0, 3.0], EigenFloor(1e-10))

    def test_nonpositive_strength_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            EigenFloor(0.0)
        with pytest.raises(ValueError, match="positive"):
            Tikhonov(-1e-3)
        with pytest.raises(ValueError, match="positive"):
            PseudoInverse(0.0)

    def test_overflowing_solve_reported(self):
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            solve_regularized(metric_of(np.diag([1.0, 0.0])), [1.0, 1.0], EigenFloor(5e-324))


class TestStep:
    def test_vanilla(self, single_qubit):
        circ, h = single_qubit
        out = step(OptimizerKind.VANILLA, h, circ, [PI_12, PI_12], 0.05)
        np.testing.assert_allclose(out, [PI_12 - 0.075, PI_12 + 0.025], atol=1e-13)

    def test_natural_stretches_flat_direction(self, single_qubit):
        # F = diag(1, 1/4) here, so the second component moves four times farther
        circ, h = single_qubit
        out = step(OptimizerKind.NATURAL_FS, h, circ, [PI_12, PI_12], 0.05)
        np.testing.assert_allclose(out, [PI_12 - 0.075, PI_12 + 0.100], atol=1e-12)

    @pytest.mark.parametrize("kind", [OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS, OptimizerKind.ITE])
    def test_stationary_point_fixed(self, kind, single_qubit):
        circ, h = single_qubit
        theta = np.array([np.pi / 4, 0.0])
        out = step(kind, h, circ, theta, 0.05)
        np.testing.assert_allclose(out, theta, atol=1e-12)

    def test_classical_kind_needs_nondegenerate_distribution(self, single_qubit):
        circ, h = single_qubit
        with pytest.raises(MetricUndefinedError):
            step(OptimizerKind.NATURAL_CLASSICAL, h, circ, [np.pi / 4, 0.0], 0.05)
        out = step(OptimizerKind.NATURAL_CLASSICAL, h, circ, [0.4, 0.2], 0.05)
        assert np.all(np.isfinite(out))

    def test_identity_metric_equals_vanilla(self, single_qubit):
        # at t1 = pi/4 the metric is the identity and both rules coincide exactly
        circ, h = single_qubit
        a = step(OptimizerKind.VANILLA, h, circ, [np.pi / 4, 0.3], 0.05)
        b = step(OptimizerKind.NATURAL_FS, h, circ, [np.pi / 4, 0.3], 0.05)
        assert np.array_equal(a, b)

    def test_learning_rate_must_be_positive(self, single_qubit):
        circ, h = single_qubit
        with pytest.raises(ValueError, match="positive"):
            step(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], 0.0)


class TestSchedules:
    def test_constant(self):
        sched = ConstantRate(0.05)
        assert [sched.at(k) for k in (1, 2, 10)] == [0.05, 0.05, 0.05]

    def test_inverse_step(self):
        sched = InverseStepRate(0.6)
        np.testing.assert_allclose([sched.at(k) for k in (1, 2, 3)], [0.6, 0.3, 0.2])

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConstantRate(0.0)
        with pytest.raises(ValueError, match="positive"):
            InverseStepRate(-0.1)

    def test_inverse_step_drives_run(self, single_qubit):
        circ, h = single_qubit
        traj = run(OptimizerKind.VANILLA, h, circ, [PI_12, PI_12], InverseStepRate(0.05), max_steps=2)
        theta0 = np.array(traj.steps[0].theta)
        manual = theta0 - 0.05 * np.array([1.5, -0.5])
        np.testing.assert_allclose(traj.steps[1].theta, manual, atol=1e-12)


class TestRun:
    def test_record_zero_is_initial_point(self, single_qubit):
        circ, h = single_qubit
        traj = run(OptimizerKind.VANILLA, h, circ, [PI_12, PI_12], ConstantRate(0.05), max_steps=5)
        assert traj.steps[0].k == 0
        np.testing.assert_allclose(traj.steps[0].theta, [PI_12, PI_12])
        assert [s.k for s in traj.steps] == list(range(6))
        assert traj.terminal_reason is TerminalReason.MAX_STEPS

    def test_deterministic(self, single_qubit):
        circ, h = single_qubit
        a = run(OptimizerKind.NATURAL_FS, h, circ, [PI_12, PI_12], ConstantRate(0.05), max_steps=50)
        b = run(OptimizerKind.NATURAL_FS, h, circ, [PI_12, PI_12], ConstantRate(0.05), max_steps=50)
        assert a.steps == b.steps
        assert a.terminal_reason == b.terminal_reason

    def test_gradient_tolerance_stop(self, single_qubit):
        circ, h = single_qubit
        traj = run(OptimizerKind.VANILLA, h, circ, [PI_12, PI_12], ConstantRate(0.05),
                   max_steps=300, grad_tol=1e-6)
        assert traj.terminal_reason is TerminalReason.GRAD_NORM_BELOW
        assert traj.final.grad_norm < 1e-6
        assert len(traj.steps) < 301

    def test_non_finite_terminates_quietly(self):
        h = pauli_sum(1, [(1e308, "Z")])
        circ = circuit(1, [ry(0, 0)])
        with np.errstate(over="ignore"):
            traj = run(OptimizerKind.VANILLA, h, circ, [0.7], ConstantRate(0.05), max_steps=10)
        assert traj.terminal_reason is TerminalReason.NON_FINITE
        assert len(traj.steps) == 1

    def test_vanilla_diagnostics_use_identity(self, single_qubit):
        circ, h = single_qubit
        traj = run(OptimizerKind.VANILLA, h, circ, [PI_12, PI_12], ConstantRate(0.05), max_steps=3)
        assert all(s.det_metric == 1.0 and s.min_eig_metric == 1.0 for s in traj.steps)

    def test_metric_diagnostics_are_its_eigenvalues(self, h2_problem):
        circ, h = h2_problem
        traj = run(OptimizerKind.NATURAL_FS, h, circ, [0.3, -0.2, 0.1, 0.5], ConstantRate(0.05),
                   max_steps=3)
        for s in traj.steps:
            eigs = np.linalg.eigvalsh(fubini_study_metric(circ, s.theta).values)
            assert s.min_eig_metric == float(eigs[0])
            assert s.det_metric == float(np.prod(eigs))

    def test_max_steps_validated(self, single_qubit):
        circ, h = single_qubit
        with pytest.raises(ValueError, match="max_steps"):
            run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05), max_steps=0)

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_circuit_without_parameters_rejected(self, kind):
        fixed_only = circuit(1, [fixed_unitary(np.array([[0, 1], [1, 0]], dtype=complex), 0)])
        with pytest.raises(ValueError, match="no parameters"):
            run(kind, pauli_sum(1, [(1.0, "X")]), fixed_only, [], ConstantRate(0.05), max_steps=3)


class TestCaseStudyDynamics:
    def test_ite_and_natural_coincide_for_real_ansatz(self):
        # the overlap correction vanishes for real states, so both rules agree
        p = load_preset("h2-a")
        nat = run(OptimizerKind.NATURAL_FS, p.hamiltonian, p.circuit, p.theta0,
                  ConstantRate(p.eta), max_steps=200)
        ite = run(OptimizerKind.ITE, p.hamiltonian, p.circuit, p.theta0,
                  ConstantRate(p.eta), max_steps=200)
        for a, b in zip(nat.steps, ite.steps):
            assert max(abs(x - y) for x, y in zip(a.theta, b.theta)) < 1e-10

    @pytest.mark.parametrize("name", ["qubit-a", "qubit-b", "h2-a"])
    def test_vanilla_energy_non_increasing(self, name):
        p = load_preset(name)
        traj = run(OptimizerKind.VANILLA, p.hamiltonian, p.circuit, p.theta0,
                   ConstantRate(0.05), max_steps=p.max_steps)
        energies = traj.energies()
        assert np.max(np.diff(energies)) <= 1e-12

    @pytest.mark.parametrize("name", ["qubit-a", "qubit-b"])
    def test_natural_energy_non_increasing_away_from_singularities(self, name):
        p = load_preset(name)
        traj = run(OptimizerKind.NATURAL_FS, p.hamiltonian, p.circuit, p.theta0,
                   ConstantRate(0.05), max_steps=p.max_steps)
        energies = traj.energies()
        min_eigs = np.array([s.min_eig_metric for s in traj.steps])
        safe = (min_eigs[:-1] > 0.1) & (min_eigs[1:] > 0.1)
        assert np.all(np.diff(energies)[safe] <= 1e-12)
