"""Preset constants, the problem JSON schema and optimizer comparisons."""
import dataclasses
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from natvqe import (
    ConstantRate,
    OptimizerKind,
    PRESET_NAMES,
    MetricUndefinedError,
    Problem,
    circuit,
    cnot,
    compare,
    fixed_unitary,
    load_preset,
    pauli_sum,
    run,
    ry,
    steps_to_threshold,
)
from natvqe import states
from natvqe.experiments import h2_hamiltonian, sigma_x_hamiltonian
from natvqe.observables import PauliHamiltonian, dense_matrix
from natvqe.optimizers import MAX_STEPS
from test_states import random_circuit

V, N, I = OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS, OptimizerKind.ITE


class TestPresets:
    def test_known_names(self):
        assert set(PRESET_NAMES) == {"qubit-a", "qubit-b", "h2-a", "h2-plateau", "toy"}

    def test_names_in_listing_order(self):
        # perfbench permutes this order with its seed, so it is part of the contract
        assert PRESET_NAMES == ("qubit-a", "qubit-b", "h2-a", "h2-plateau", "toy")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            load_preset("qubit-c")

    def test_unknown_name_lists_the_presets(self):
        with pytest.raises(ValueError) as err:
            load_preset("qubit-c")
        assert str(err.value) == ("unknown preset 'qubit-c'; "
                                  "available: qubit-a, qubit-b, h2-a, h2-plateau, toy")

    def test_each_load_builds_a_fresh_circuit(self):
        # a circuit remembers its last sweep, so two problems must not share one
        assert load_preset("h2-a").circuit is not load_preset("h2-a").circuit

    def test_qubit_a_constants(self):
        p = load_preset("qubit-a")
        np.testing.assert_allclose(p.theta0, [np.pi / 12, np.pi / 12])
        assert p.eta == 0.05
        assert p.reference_energy == -1.0
        assert p.hamiltonian.terms == ((1.0, "X"),)

    def test_qubit_b_start(self):
        p = load_preset("qubit-b")
        np.testing.assert_allclose(p.theta0, [5 * np.pi / 12, np.pi / 12])
        assert p.reference_energy == -1.0

    def test_h2_a_constants(self):
        p = load_preset("h2-a")
        assert p.hamiltonian.terms == ((0.4, "ZI"), (0.4, "IZ"), (0.2, "XX"))
        assert p.theta0 == (-0.2, -0.2, 0.0, 0.0)
        # the closed form -sqrt(4 alpha^2 + beta^2)
        assert abs(p.reference_energy + math.sqrt(0.68)) < 1e-15
        assert abs(p.reference_energy + 0.82462) < 1e-5

    def test_toy_constants(self):
        p = load_preset("toy")
        assert p.hamiltonian.terms[2] == (0.02, "XX")
        assert abs(p.reference_energy + math.sqrt(0.6404)) < 1e-15
        assert abs(p.reference_energy + 0.80025) < 1e-5

    def test_plateau_start(self):
        p = load_preset("h2-plateau")
        np.testing.assert_allclose(p.theta0, [7 * np.pi / 32, np.pi / 2, 0.0, 0.0])
        assert abs(p.reference_energy + math.sqrt(0.68)) < 1e-15

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_reference_is_ground_energy(self, name):
        p = load_preset(name)
        ground = np.linalg.eigvalsh(dense_matrix(p.hamiltonian))[0]
        assert abs(p.reference_energy - ground) < 1e-10


def gate_layout(circ):
    """Everything that defines a circuit, unitary bytes included."""
    return circ.n_qubits, circ.n_params, [
        (g.kind, g.targets, g.param_index, None if g.matrix is None else g.matrix.tobytes())
        for g in circ.gates
    ]


def five_steps(kind, problem):
    """The bits of a 5-step run, or the message of the MetricUndefinedError it raises."""
    try:
        traj = run(kind, problem.hamiltonian, problem.circuit, problem.theta0,
                   ConstantRate(problem.eta), max_steps=5)
    except MetricUndefinedError as exc:
        return str(exc)
    records = [(s.k, np.array([*s.theta, s.energy, s.grad_norm, s.det_metric,
                               s.min_eig_metric]).tobytes()) for s in traj.steps]
    return records, traj.terminal_reason


def random_problems(seed, count):
    """``random_circuit``s with a random Pauli sum, start, rate and step count."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        circ = random_circuit(rng)
        n = circ.n_qubits
        half_integer = rng.random() < 0.5  # degenerate spectra, where FC can be undefined
        terms = [(float(rng.integers(-3, 4)) / 2 if half_integer else float(rng.uniform(-1, 1)),
                  "".join(rng.choice(list("IXYZ"), n))) for _ in range(int(rng.integers(1, 5)))]
        theta0 = tuple(float(rng.integers(8)) * np.pi / 4 if rng.random() < 0.5
                       else float(rng.uniform(-np.pi, np.pi)) for _ in range(circ.n_params))
        yield Problem(f"random{index}", pauli_sum(n, terms), circ, theta0,
                      float(rng.uniform(0.01, 0.2)), int(rng.integers(1, 500)))


class TestProblemJson:
    @pytest.mark.parametrize("source", [*PRESET_NAMES, "random-200"])
    def test_round_trip_gives_the_same_runs(self, source):
        random = source == "random-200"
        undefined = 0
        for problem in random_problems(2024, 200) if random else [load_preset(source)]:
            doc = json.loads(json.dumps(problem.to_json()))
            rebuilt = Problem.from_json(doc, problem.name)
            assert rebuilt.name == problem.name
            assert rebuilt.reference_energy == problem.reference_energy
            assert rebuilt.hamiltonian == problem.hamiltonian
            assert gate_layout(rebuilt.circuit) == gate_layout(problem.circuit)
            assert np.array(rebuilt.theta0).tobytes() == np.array(problem.theta0).tobytes()
            assert (rebuilt.eta, rebuilt.max_steps) == (problem.eta, problem.max_steps)
            for kind in OptimizerKind:
                expected = five_steps(kind, problem)
                assert five_steps(kind, rebuilt) == expected
                undefined += isinstance(expected, str)
        if random:
            assert undefined > 0  # the undefined case is exercised

    def test_document_fields(self):
        doc = load_preset("h2-a").to_json()
        assert set(doc) == {"hamiltonian", "circuit", "theta0", "eta", "max_steps"}
        assert doc["circuit"]["gates"][2] == {"kind": "cnot", "targets": [0, 1]}
        assert doc["max_steps"] == 1000

    def test_defaults(self):
        doc = load_preset("qubit-a").to_json()
        del doc["eta"], doc["max_steps"]
        problem = Problem.from_json(doc, "qubit")
        assert (problem.eta, problem.max_steps) == (0.05, 100)

    def test_errors_are_value_errors(self):
        doc = load_preset("qubit-a").to_json()
        del doc["theta0"]
        with pytest.raises(ValueError, match="config file missing field 'theta0'"):
            Problem.from_json(doc, "qubit")
        with pytest.raises(ValueError, match="bad config file: max_steps must be a whole number"):
            Problem.from_json(dict(load_preset("qubit-a").to_json(), max_steps=2.5), "qubit")

    def test_max_steps_bounded(self):
        doc = dict(load_preset("qubit-a").to_json(), max_steps=MAX_STEPS + 1)
        with pytest.raises(ValueError, match=f"max_steps must be at most {MAX_STEPS}"):
            Problem.from_json(doc, "qubit")
        doc["max_steps"] = MAX_STEPS
        assert Problem.from_json(doc, "qubit").max_steps == MAX_STEPS

    @pytest.mark.parametrize("field, value, message", [
        ("max_steps", 0, "max_steps must be at least 1"),
        ("max_steps", -7, "max_steps must be at least 1"),
        ("eta", 0.0, "eta must be positive and finite"),
        ("eta", -1.0, "eta must be positive and finite"),
        ("eta", math.inf, "eta must be positive and finite"),
        ("eta", math.nan, "eta must be positive and finite"),
    ])
    def test_run_settings_checked(self, field, value, message):
        # such a document used to build a Problem that only run rejected
        doc = dict(load_preset("qubit-a").to_json(), **{field: value})
        with pytest.raises(ValueError, match=f"^bad config file: {message}"):
            Problem.from_json(doc, "qubit")

    @pytest.mark.parametrize("field, value, message", [
        ("eta", 0.0, "eta must be positive and finite"),
        ("eta", -1.0, "eta must be positive and finite"),
        ("max_steps", 0, "max_steps must be at least 1"),
        ("max_steps", MAX_STEPS + 1, f"max_steps must be at most {MAX_STEPS}"),
        ("max_steps", 2.5, "max_steps must be a whole number"),
        ("theta0", (0.1,), r"circuit takes 2 parameter\(s\), got shape \(1,\)"),
        ("theta0", (0.1, math.nan), "parameters must be finite"),
        ("theta0", 0.1, r"circuit takes 2 parameter\(s\), got shape \(\)"),
        # the config reader's number rule: a bool or string used to be stored, or to raise
        # TypeError, and an int past the float range was echoed digit for digit
        ("eta", True, "^eta must be a number, got True$"),
        ("eta", "0.05", "^eta must be a number, got '0.05'$"),
        pytest.param("eta", 10 ** 400, "^eta is too large for a float$",
                     id="eta-int-past-float-range"),
        ("max_steps", True, "^max_steps must be a number, got True$"),
        ("max_steps", "3", "^max_steps must be a number, got '3'$"),
        pytest.param("max_steps", 10 ** 400, "^max_steps is too large for a float$",
                     id="max_steps-int-past-float-range"),
        ("theta0", (True, 0.2), "^theta0 entry must be a number, got True$"),
        ("theta0", ("0.1", "0.2"), "^theta0 entry must be a number, got '0.1'$"),
        pytest.param("theta0", (0.1, 10 ** 400), "^theta0 entry is too large for a float$",
                     id="theta0-int-past-float-range"),
    ])
    def test_direct_construction_checks_theta0_eta_and_max_steps(self, field, value, message):
        fields = dict(vars(load_preset("qubit-a")), **{field: value})
        with pytest.raises(ValueError, match=message):
            Problem(**fields)

    def test_hamiltonian_and_circuit_qubit_counts_must_match(self):
        # a 1-qubit H on the h2 circuit used to build: its reference energy read -1.0,
        # compare failed at the first energy and from_json rejected its own to_json
        fields = dict(vars(load_preset("h2-a")), hamiltonian=sigma_x_hamiltonian())
        with pytest.raises(ValueError) as err:
            Problem(**fields)
        assert str(err.value) == "hamiltonian acts on 1 qubit(s), circuit on 2"

    def test_start_the_circuit_fails_to_normalize_rejected(self):
        # each gate passes the unitarity check, but three of them lift the norm past NORM_TOL
        drift = fixed_unitary(np.diag([1 + 4.9e-13, 1.0]), 0)
        circ = circuit(1, [drift, drift, drift, ry(0, 0)])
        with pytest.raises(ValueError) as err:
            Problem("drift", pauli_sum(1, [(1.0, "Z")]), circ, (0.3,), 0.05, 5)
        assert str(err.value) == "theta0 [0.3]: circuit application lost normalization"

    def test_record_0_reads_the_sweep_of_the_start(self, monkeypatch):
        # the sweep that checks the start is the one a run's record 0 reads from the memo
        problem = load_preset("h2-a")
        misses, unitaries = [], states._unitaries
        monkeypatch.setattr(states, "_unitaries",
                            lambda *args: misses.append(1) or unitaries(*args))
        run(OptimizerKind.NATURAL_FS, problem.hamiltonian, problem.circuit, problem.theta0,
            ConstantRate(problem.eta), max_steps=3)
        assert len(misses) == 3  # one per update, none for record 0

    def test_whole_max_steps_is_stored_as_an_int(self):
        # 3.0 used to be kept, and echoed as 3.0
        problem = Problem(**dict(vars(load_preset("qubit-a")), max_steps=3.0))
        assert type(problem.max_steps) is int and problem.max_steps == 3
        assert json.dumps(problem.to_json()["max_steps"]) == "3"

    def test_numpy_integers_round_trip(self):
        # np.int64 slots used to reach to_json, which json.dumps rejected
        i = np.int64
        circ = circuit(i(2), [ry(i(0), i(0)), ry(i(1), i(1)), cnot(i(0), i(1)),
                              ry(i(0), i(2)), ry(i(1), i(3))])
        hamiltonian = pauli_sum(i(2), h2_hamiltonian().terms)
        problem = Problem("h2-a", hamiltonian, circ, (-0.2, -0.2, 0.0, 0.0), 0.05, i(1000))
        doc = json.loads(json.dumps(problem.to_json()))
        assert doc == load_preset("h2-a").to_json()
        assert Problem.from_json(doc, "h2-a").circuit.n_params == 4

    def test_numpy_floats_round_trip(self):
        # float32 values used to reach to_json, which json.dumps rejected
        f = np.float32
        preset = load_preset("h2-a")
        hamiltonian = PauliHamiltonian(2, tuple((f(c), s) for c, s in preset.hamiltonian.terms))
        problem = Problem("h2-a", hamiltonian, preset.circuit, np.array(preset.theta0, dtype=f),
                          f(0.05), 1000)
        doc = json.loads(json.dumps(problem.to_json()))
        assert Problem.from_json(doc, "h2-a").to_json() == doc
        assert doc["eta"] == float(f(0.05)) and doc["theta0"] == [float(f(-0.2))] * 2 + [0.0] * 2

    def test_circuit_without_a_parameter_slot_rejected(self):
        # it used to build, but from_json refused its to_json() and compare failed inside run
        fixed_only = circuit(1, [fixed_unitary(np.array([[0, 1], [1, 0]]), 0)])
        with pytest.raises(ValueError) as info:
            Problem("x", pauli_sum(1, [(1.0, "X")]), fixed_only, (), 0.05, 10)
        assert str(info.value) == "circuit has no parameterized gate"

    @pytest.mark.parametrize("gate, field", [
        ({"kind": "unitary", "targets": [0]}, "matrix"),
        ({"kind": "ry", "param_index": 0}, "targets"),
        ({"targets": [0], "param_index": 0}, "kind"),
    ])
    def test_gate_missing_field_is_named(self, gate, field):
        # these used to read "bad unitary matrix in gate 2: 'matrix'" and
        # "bad gate entry {...}: 'targets'", the bare KeyError text
        doc = load_preset("qubit-a").to_json()
        doc["circuit"]["gates"].append(gate)
        with pytest.raises(ValueError) as info:
            Problem.from_json(doc, "qubit")
        assert str(info.value) == f"bad config file: gate 2 missing field '{field}'"

    @pytest.mark.parametrize("gate", [
        {"kind": "ry", "targets": [0], "param_index": 0},
        {"kind": "cnot", "targets": [0, 1]},
    ], ids=["ry", "cnot"])
    def test_matrix_on_a_gate_that_takes_none_rejected(self, gate):
        # the matrix used to be dropped, and the gate built without it
        doc = load_preset("h2-a").to_json()
        doc["circuit"]["gates"].append(dict(gate, matrix=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))
        with pytest.raises(ValueError) as info:
            Problem.from_json(doc, "h2")
        kind = gate["kind"]
        assert str(info.value) == f"bad config file: {kind} does not take an explicit matrix"

    def test_bad_unitary_names_the_gate_and_the_cause(self):
        doc = load_preset("qubit-a").to_json()
        unitary = {"kind": "unitary", "targets": [0],
                   "matrix": [[[0, 0], [1, 0]], [[10 ** 400, 0], [0, 0]]]}
        doc["circuit"]["gates"].append(unitary)
        with pytest.raises(ValueError) as info:
            Problem.from_json(doc, "qubit")
        message = str(info.value)
        assert message == ("bad config file: bad unitary matrix in gate 2: "
                           "matrix entry is too large for a float")
        assert len(message) < 200


def any_number(rng, value, whole=False):
    """``value`` as a Python or numpy float, or for a ``whole`` value also as an int type."""
    types = (float, np.float64, np.float32) + ((int, np.int64, np.int32) if whole else ())
    return types[int(rng.integers(len(types)))](value)


class TestRoundTripProperty:
    @given(st.integers(0, 2 ** 32 - 1))
    def test_every_problem_that_builds_reads_back_gate_for_gate(self, seed):
        # numpy integers, numpy floats and circuits without a parameter slot each built
        # a Problem whose document from_json refused
        rng = np.random.default_rng(seed)
        circ = random_circuit(rng)
        if rng.random() < 0.2:  # the fixed gates alone
            circ = circuit(circ.n_qubits, [g for g in circ.gates if g.param_index is None])
        n = circ.n_qubits
        terms = [(any_number(rng, rng.integers(-3, 4), whole=True) if rng.random() < 0.3
                  else any_number(rng, rng.uniform(-1, 1)), "".join(rng.choice(list("IXYZ"), n)))
                 for _ in range(int(rng.integers(1, 5)))]
        theta0 = [any_number(rng, rng.uniform(-np.pi, np.pi)) for _ in range(circ.n_params)]
        container = (tuple, list, np.array)[int(rng.integers(3))]
        eta = any_number(rng, rng.uniform(0.01, 0.2))
        max_steps = any_number(rng, rng.integers(1, 500), whole=True)
        try:
            problem = Problem("p", pauli_sum(n, terms), circ, container(theta0), eta, max_steps)
        except ValueError as exc:
            assert circ.n_params == 0 and str(exc) == "circuit has no parameterized gate"
            return
        doc = json.loads(json.dumps(problem.to_json()))
        rebuilt = Problem.from_json(doc, "p")
        assert gate_layout(rebuilt.circuit) == gate_layout(problem.circuit)
        assert rebuilt.hamiltonian == problem.hamiltonian
        assert np.array(rebuilt.theta0).tobytes() == np.array(problem.theta0).tobytes()
        assert (rebuilt.eta, rebuilt.max_steps) == (problem.eta, problem.max_steps)
        assert rebuilt.to_json() == doc


def test_reference_is_eigvalsh_bit_for_bit():
    for problem in random_problems(2024, 200):
        ground = np.linalg.eigvalsh(dense_matrix(problem.hamiltonian))[0]
        assert np.float64(problem.reference_energy).tobytes() == ground.tobytes()


class TestCompare:
    def test_counts_against_the_ground_energy_of_any_problem(self):
        # a config document carries no ground energy; compare computes it
        doc = dict(load_preset("h2-a").to_json(), max_steps=60)
        problem = Problem.from_json(doc, "h2")
        ground = np.linalg.eigvalsh(dense_matrix(problem.hamiltonian))[0]
        result = compare(problem, [N], threshold=0.01).results[N]
        traj = result.trajectory
        assert traj.final.k == 60
        expected = steps_to_threshold(traj, ground, 0.01)
        assert expected is not None
        assert result.steps_to_threshold == expected

    def test_geometry_aware_kinds_converge_first(self):
        report = compare(load_preset("qubit-a"), [V, N, I], threshold=0.01)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] is not None and hits[I] is not None and hits[V] is not None
        assert hits[N] < hits[V]
        assert hits[I] < hits[V]

    def test_natural_first_near_hidden_singularity(self):
        report = compare(load_preset("qubit-b"), [V, N, I], threshold=0.01)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V] and hits[N] < hits[I]

    def test_plateau_escape_ordering(self):
        report = compare(load_preset("h2-plateau"), [V, N], threshold=0.05, max_steps=800)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] is not None and hits[V] is not None
        assert hits[N] < hits[V]

    def test_results_keep_input_order(self):
        report = compare(load_preset("qubit-a"), [I, V], threshold=0.01, max_steps=30)
        assert list(report.results) == [I, V]
        assert [f.name for f in dataclasses.fields(report)] == ["results"]

    def test_result_reads_the_final_record_from_its_trajectory(self):
        result = compare(load_preset("qubit-a"), [V], max_steps=5).results[V]
        assert [f.name for f in dataclasses.fields(result)] == ["steps_to_threshold",
                                                                 "trajectory"]
        assert result.trajectory.final.k == 5

    def test_threshold_indexing(self):
        p = load_preset("qubit-a")
        report = compare(p, [V], threshold=0.01)
        traj = report.results[V].trajectory
        k = report.results[V].steps_to_threshold
        assert traj.steps[k].energy <= p.reference_energy + 0.01
        assert all(s.energy > p.reference_energy + 0.01 for s in traj.steps[:k])
        assert steps_to_threshold(traj, p.reference_energy, -10.0) is None

    # unchecked, NaN never counts and gives None, -1 never counts, and inf counts record 0
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite and non-negative"):
            compare(load_preset("h2-a"), [V], threshold=threshold, max_steps=5)

    def test_zero_threshold_accepted(self):
        result = compare(load_preset("h2-a"), [V], threshold=0.0, max_steps=5).results[V]
        assert result.steps_to_threshold is None

    @pytest.mark.parametrize("eta", [0.05, 0.025])
    def test_qubit_orderings_stable_in_learning_rate(self, eta):
        p = load_preset("qubit-a")
        report = compare(dataclasses.replace(p, eta=eta), [V, N, I], threshold=0.01)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V] and hits[I] < hits[V]
        p = load_preset("qubit-b")
        report = compare(dataclasses.replace(p, eta=eta), [V, N, I], threshold=0.01)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V] and hits[N] < hits[I]

    @pytest.mark.parametrize("eta", [0.05, 0.025])
    def test_h2_orderings_stable_in_learning_rate(self, eta):
        report = compare(dataclasses.replace(load_preset("h2-a"), eta=eta), [V, N],
                         threshold=0.01, max_steps=2000)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V]
        report = compare(dataclasses.replace(load_preset("h2-plateau"), eta=eta), [V, N],
                         threshold=0.05, max_steps=1500)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V]

    def test_toy_vanilla_settles_at_ground(self):
        p = load_preset("toy")
        report = compare(p, [V], max_steps=2000)
        tail = report.results[V].trajectory.energies()[-400:]
        assert np.all(np.abs(tail - p.reference_energy) < 0.01)


ROOT = Path(__file__).resolve().parents[1]


def readme_table(readme=None):
    """{(preset, optimizer): steps} from the README's steps-to-threshold table ('-' = not run):
    the first table after "## Case-study results"."""
    if readme is None:
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n## Case-study results\n")[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = [line.strip("|").split("|")
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    header = [cell.strip() for cell in rows[0]]
    table = {}
    for row in rows[2:]:
        cells = [cell.strip() for cell in row]
        for kind, cell in zip(header[1:], cells[1:]):
            if cell != "-":
                table[cells[0], kind] = int(cell)
    return table


def test_readme_steps_to_threshold_table():
    """The README table is what scripts/reproduce_figures.py reproduces, bit for bit."""
    spec = importlib.util.spec_from_file_location("reproduce_figures",
                                                  ROOT / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    observed = {}
    for name, kinds in script.CASES.items():
        report = compare(load_preset(name), kinds, threshold=script.THRESHOLDS[name])
        for kind, result in report.results.items():
            observed[name, kind.value] = result.steps_to_threshold
    assert observed == readme_table()
    assert observed["h2-plateau", "natural"] == 487


def test_readme_table_ends_at_its_last_row():
    # every "|" line to the end of the README used to be read as a row, so any
    # later table failed int() on its cells
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    later = "\n## Notes\n\n| preset | note |\n|---|---|\n| toy | slow |\n"
    assert readme_table(readme + later) == readme_table(readme)
