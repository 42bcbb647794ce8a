"""Update rules, regularized solves, and the iteration loop."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from natvqe import (
    DEFAULT_POLICY,
    ConstantRate,
    EigenFloor,
    InverseStepRate,
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
    phase,
    run,
    ry,
)
from natvqe import geometry, observables, optimizers, states
from natvqe.geometry import MetricMatrix
from natvqe.observables import energy_and_gradient
from natvqe.optimizers import metric_for, solve_regularized
from natvqe.states import build_state

PI_12 = np.pi / 12

# subnormals, signed zeros, values whose squares overflow and the largest double
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
               1.3407807929942596e154, 1.7976931348623157e308, -1.7976931348623157e308]


def edge_floats(allow_nan):
    return st.one_of(st.floats(allow_nan=allow_nan), st.sampled_from(EDGE_FLOATS))


# (value, message after the setting's name) for what the number rule refuses: a bool
# used to pass as 1, a string raised TypeError from a comparison and an int past the
# float range was echoed digit for digit
NOT_NUMBERS = [
    pytest.param(True, "must be a number, got True", id="bool"),
    pytest.param(np.True_, f"must be a number, got {np.True_!r}", id="numpy-bool"),
    pytest.param("0.05", "must be a number, got '0.05'", id="text"),
    pytest.param(10**400, "is too large for a float", id="int-past-float-range"),
]

SETTINGS = [(ConstantRate, "eta"), (InverseStepRate, "c"), (Tikhonov, "epsilon"),
            (EigenFloor, "epsilon"), (PseudoInverse, "cut")]


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def metric_of(values):
    return MetricMatrix(np.asarray(values, dtype=float))


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

    @pytest.mark.parametrize("grad, shown", [
        ([True, False], "True"),
        (["1", "0"], "'1'"),
        (np.array(["1", "0"]), "'1'"),
    ], ids=["bool", "text", "numpy-text"])
    def test_bool_and_text_gradient_rejected(self, grad, shown):
        # [True, False] used to be solved as [1.0, 0.0]
        with pytest.raises(ValueError) as info:
            solve_regularized(metric_of(np.eye(2)), grad, DEFAULT_POLICY)
        assert str(info.value) == f"gradient entry must be a number, got {shown}"

    def test_int_gradient_solved_as_floats(self):
        x = solve_regularized(metric_of(np.diag([2.0, 4.0])), [1, np.int64(2)], DEFAULT_POLICY)
        assert x.tolist() == [0.5, 0.5]

    def test_nonpositive_strength_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            EigenFloor(0.0)
        with pytest.raises(ValueError, match="positive"):
            Tikhonov(-1e-3)
        with pytest.raises(ValueError, match="positive"):
            PseudoInverse(0.0)

    def test_pseudo_inverse_cut_above_one_rejected(self):
        # no eigenpair would be kept, so every natural step would be zero
        with pytest.raises(ValueError, match="cut must be at most 1, got 2.0"):
            PseudoInverse(2.0)
        assert PseudoInverse(1).cut == 1.0

    def test_overflowing_solve_reported(self):
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            solve_regularized(metric_of(np.diag([1.0, 0.0])), [1.0, 1.0], EigenFloor(5e-324))

    @pytest.mark.parametrize("policy", ["eigenfloor", None, 1e-3])
    def test_a_policy_that_is_not_a_policy_is_rejected(self, policy):
        # an object of no policy type must not be read as a PseudoInverse
        message = f"policy must be a Tikhonov, EigenFloor or PseudoInverse, got {policy!r}"
        with pytest.raises(TypeError) as info:
            solve_regularized(metric_of(np.eye(2)), [1.0, 2.0], policy)
        assert str(info.value) == message
        p = load_preset("h2-a")
        with pytest.raises(TypeError) as info:
            run(OptimizerKind.NATURAL_FS, p.hamiltonian, p.circuit, p.theta0, ConstantRate(p.eta),
                policy, max_steps=1)
        assert str(info.value) == message


def step(kind, hamiltonian, circ, theta, eta):
    """The first update of ``run``: theta - eta * M^{-1} grad under the default policy."""
    trajectory = run(kind, hamiltonian, circ, theta, ConstantRate(eta), max_steps=1)
    return np.array(trajectory.steps[1].theta)


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

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_learning_rate_must_be_finite(self, single_qubit, eta):
        # unchecked, eta = inf turns every component of the step into +-inf
        circ, h = single_qubit
        with pytest.raises(ValueError, match="positive and finite"):
            step(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], eta)

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_circuit_without_parameters_rejected_before_any_sweep(self, kind, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("run swept a circuit without parameters")

        monkeypatch.setattr(optimizers, "energy_and_gradient", no_sweep)
        fixed_only = circuit(1, [fixed_unitary(np.array([[0, 1], [1, 0]], dtype=complex), 0)])
        with pytest.raises(ValueError, match="no parameterized gate"):
            step(kind, pauli_sum(1, [(1.0, "X")]), fixed_only, [], 0.05)

    @pytest.mark.parametrize("kind", [OptimizerKind.NATURAL_FS, OptimizerKind.ITE,
                                      OptimizerKind.NATURAL_CLASSICAL])
    def test_first_update_is_the_rule_on_its_metric(self, kind, single_qubit):
        # a complex circuit, so that F and A differ
        circ, h = single_qubit
        theta = np.array([0.4, 0.2])
        _, grad = energy_and_gradient(h, circ, theta)
        metric = metric_for(kind, h, circ, theta)
        expected = theta - 0.05 * solve_regularized(metric, grad, optimizers.DEFAULT_POLICY)
        assert step(kind, h, circ, theta, 0.05).tobytes() == expected.tobytes()


# the metric each rule computes, by its name in natvqe.optimizers: a tracer that
# patches module bindings sees a call only if it goes through that name
METRIC_NAMES = {
    OptimizerKind.NATURAL_FS: "fubini_study_metric",
    OptimizerKind.ITE: "ite_matrix",
    OptimizerKind.NATURAL_CLASSICAL: "classical_fisher_metric",
}


class TestMetricFor:
    @pytest.mark.parametrize("kind", list(METRIC_NAMES))
    def test_reaches_its_metric_through_the_module_name(self, kind, single_qubit, monkeypatch):
        calls = dict.fromkeys(METRIC_NAMES.values(), 0)

        def counting(name):
            original = getattr(optimizers, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(optimizers, name, counting(name))
        circ, h = single_qubit
        step(kind, h, circ, [0.4, 0.2], 0.05)
        # one metric per recorded iterate: the start and the point after the update
        assert calls == {name: 2 if name == METRIC_NAMES[kind] else 0 for name in calls}

    def test_vanilla_is_none_without_a_sweep(self, single_qubit, monkeypatch):
        def no_call(*args):
            raise AssertionError("metric_for computed something for the identity metric")

        for name in (*METRIC_NAMES.values(), "spectral_decompose"):
            monkeypatch.setattr(optimizers, name, no_call)
        for module in (states, geometry, observables):
            monkeypatch.setattr(module, "state_and_tangents", no_call)
        circ, h = single_qubit
        assert metric_for(OptimizerKind.VANILLA, h, circ, [0.4, 0.2]) is None

    @pytest.mark.parametrize("kind", ["natural", "vanilla", None])
    def test_a_kind_that_is_not_an_optimizer_kind_is_rejected(self, kind):
        # "natural" used to run the classical Fisher rule, which metric_for fell through to
        p = load_preset("h2-a")
        with pytest.raises(TypeError, match="kind must be an OptimizerKind"):
            metric_for(kind, p.hamiltonian, p.circuit, p.theta0)
        with pytest.raises(TypeError, match="kind must be an OptimizerKind"):
            run(kind, p.hamiltonian, p.circuit, p.theta0, ConstantRate(p.eta), max_steps=1)


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

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_strengths_and_rates_must_be_finite(self, value):
        for make, _ in SETTINGS:
            with pytest.raises(ValueError, match="positive and finite"):
                make(value)

    @pytest.mark.parametrize("value, message", NOT_NUMBERS)
    def test_strengths_and_rates_must_be_numbers(self, value, message):
        for make, name in SETTINGS:
            with pytest.raises(ValueError) as info:
                make(value)
            assert str(info.value) == f"{name} {message}"

    def test_numpy_float_is_stored_as_a_python_float(self):
        # a float32 used to be kept, and its range check warned "overflow encountered in cast"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make, name in SETTINGS:
                value = getattr(make(np.float32(0.05)), name)
                assert type(value) is float and value == float(np.float32(0.05))

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

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_overflowing_phase_angle_terminates_quietly(self, kind):
        # exp(2i * 1e308) is NaN: the sweep's norm check passes a NaN state on to the run,
        # which records it before it builds a metric, so every kind ends here alike
        circ = circuit(1, [ry(0, 0), phase(0, 1)])
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(kind, pauli_sum(1, [(1.0, "Z")]), circ, [0.3, 1e308],
                       ConstantRate(0.05), max_steps=10)
        assert traj.terminal_reason is TerminalReason.NON_FINITE
        assert len(traj.steps) == 1 and math.isnan(traj.final.energy)
        metric_fields = (traj.final.det_metric, traj.final.min_eig_metric)
        if kind is OptimizerKind.VANILLA:
            assert metric_fields == (1.0, 1.0)
        else:
            assert all(math.isnan(x) for x in metric_fields)

    @pytest.mark.parametrize("theta0", [[0.3, 0.2], [0.3, 1e308]], ids=["finite", "nan-state"])
    def test_a_kind_that_is_not_an_optimizer_kind_is_refused_before_any_sweep(
            self, theta0, monkeypatch):
        # from the NaN start, "natural" used to end a one-record non_finite run,
        # and from a finite one it was refused only after a sweep
        circ = circuit(1, [ry(0, 0), phase(0, 1)])
        sweeps, unitaries = [], states._unitaries
        monkeypatch.setattr(states, "_unitaries",
                            lambda *args: sweeps.append(1) or unitaries(*args))
        with pytest.raises(TypeError, match="^kind must be an OptimizerKind, got 'natural'$"):
            run("natural", pauli_sum(1, [(1.0, "Z")]), circ, theta0, ConstantRate(0.05),
                max_steps=10)
        assert sweeps == []

    @pytest.mark.parametrize("kind", [OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS])
    def test_overflowing_update_terminates_quietly(self, kind):
        # the first update at eta = 1e308 overflows theta, so the run keeps record 0 alone
        with np.errstate(over="ignore"):
            traj = run(kind, pauli_sum(1, [(1.0, "Z")]), circuit(1, [ry(0, 0)]),
                       [math.pi / 4 - 0.1], ConstantRate(1e308), max_steps=10)
        assert traj.terminal_reason is TerminalReason.NON_FINITE
        assert [s.k for s in traj.steps] == [0]

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
            assert same_bits(s.det_metric, float(np.prod(eigs)))
            _, grad = energy_and_gradient(h, circ, s.theta)
            assert same_bits(s.grad_norm, float(np.linalg.norm(grad)))
            assert all(type(x) is float for x in (*s.theta, s.energy, s.grad_norm, s.det_metric))

    def test_max_steps_validated(self, single_qubit):
        circ, h = single_qubit
        with pytest.raises(ValueError, match="max_steps"):
            run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05), max_steps=0)

    @pytest.mark.parametrize("max_steps", [2.5, np.nan, np.inf])
    def test_max_steps_must_be_whole(self, single_qubit, monkeypatch, max_steps):
        # k == max_steps never holds for these, so a run that accepted one would not stop
        calls = []

        def bounded(*args):
            calls.append(None)
            if len(calls) > 50:
                raise RuntimeError(f"run accepted max_steps={max_steps} and kept going")
            return energy_and_gradient(*args)

        monkeypatch.setattr(optimizers, "energy_and_gradient", bounded)
        circ, h = single_qubit
        with pytest.raises(ValueError, match="whole number"):
            run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05), max_steps=max_steps)

    @pytest.mark.parametrize("max_steps", [optimizers.MAX_STEPS + 1, 10 ** 30])
    def test_max_steps_bounded_before_any_sweep(self, single_qubit, monkeypatch, max_steps):
        # a run keeps every record, so an unbounded count grows memory until killed
        def no_sweep(*args):
            raise RuntimeError("run swept before checking max_steps")

        monkeypatch.setattr(optimizers, "energy_and_gradient", no_sweep)
        circ, h = single_qubit
        with pytest.raises(ValueError, match=f"max_steps must be at most {optimizers.MAX_STEPS}"):
            run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05), max_steps=max_steps)

    def test_largest_max_steps_accepted(self, single_qubit):
        circ, h = single_qubit
        traj = run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05),
                   max_steps=optimizers.MAX_STEPS, grad_tol=1e300)
        assert [s.k for s in traj.steps] == [0]
        assert traj.terminal_reason is TerminalReason.GRAD_NORM_BELOW

    def test_whole_float_max_steps_runs(self, single_qubit):
        circ, h = single_qubit
        traj = run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05), max_steps=3.0)
        assert [s.k for s in traj.steps] == [0, 1, 2, 3]
        assert traj.terminal_reason is TerminalReason.MAX_STEPS

    @pytest.mark.parametrize("grad_tol", [np.nan, -1e-3, np.inf,
                                          pytest.param(10**400, id="int-past-float-range")])
    def test_grad_tol_validated(self, single_qubit, grad_tol):
        circ, h = single_qubit
        with pytest.raises(ValueError, match="grad_tol"):
            run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05), grad_tol=grad_tol)

    @pytest.mark.parametrize("field", ["max_steps", "grad_tol"])
    @pytest.mark.parametrize("value, message", NOT_NUMBERS)
    def test_limits_must_be_numbers(self, single_qubit, field, value, message):
        # max_steps=True used to run one step
        circ, h = single_qubit
        with pytest.raises(ValueError) as info:
            run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05), **{field: value})
        assert str(info.value) == f"{field} {message}"

    def test_numpy_float_limits_checked_without_warning(self, single_qubit):
        # grad_tol's range check used to warn "overflow encountered in cast"
        circ, h = single_qubit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(OptimizerKind.VANILLA, h, circ, [0.1, 0.1], ConstantRate(0.05),
                       max_steps=np.float32(3.0), grad_tol=np.float32(1e-6))
        assert [s.k for s in traj.steps] == [0, 1, 2, 3]

    @pytest.mark.parametrize("kind", [*OptimizerKind, energy_and_gradient, build_state])
    def test_circuit_without_parameters_rejected(self, kind):
        # one rule, in check_parameters, for run and for every function of a point
        fixed_only = circuit(1, [fixed_unitary(np.array([[0, 1], [1, 0]], dtype=complex), 0)])
        h = pauli_sum(1, [(1.0, "X")])
        with pytest.raises(ValueError, match="^circuit has no parameterized gate$"):
            if kind is build_state:
                build_state(fixed_only, [])
            elif kind is energy_and_gradient:
                energy_and_gradient(h, fixed_only, [])
            else:
                run(kind, h, fixed_only, [], ConstantRate(0.05), max_steps=3)


class TestRunScalarsKeepNumpyBits:
    """``run`` reads its per-iterate scalars with ndarray methods and ``math``;
    each must give the bits of the numpy helper it replaced (kept here)."""

    @given(arrays(np.float64, st.integers(1, 40), elements=edge_floats(allow_nan=False)))
    def test_grad_norm_is_linalg_norm(self, grad):
        with np.errstate(all="ignore"):
            assert same_bits(math.sqrt(grad.dot(grad)), float(np.linalg.norm(grad)))

    @given(arrays(np.float64, st.integers(1, 40), elements=edge_floats(allow_nan=True)))
    def test_prod_method_is_np_prod(self, eigs):
        with np.errstate(all="ignore"):
            assert same_bits(float(eigs.prod()), float(np.prod(eigs)))


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
