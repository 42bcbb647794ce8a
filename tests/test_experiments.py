"""Preset constants and optimizer comparisons."""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from natvqe import (
    DEFAULT_POLICY,
    ConstantRate,
    OptimizerKind,
    PRESET_NAMES,
    compare,
    load_preset,
    steps_to_threshold,
)
from natvqe.observables import dense_matrix

V, N, I = OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS, OptimizerKind.ITE


class TestPresets:
    def test_known_names(self):
        assert set(PRESET_NAMES) == {"qubit-a", "qubit-b", "h2-a", "h2-plateau", "toy"}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            load_preset("qubit-c")

    def test_qubit_a_constants(self):
        p = load_preset("qubit-a")
        np.testing.assert_allclose(p.theta0, [np.pi / 12, np.pi / 12])
        assert p.eta == 0.05
        assert p.reference_energy == -1.0
        assert p.hamiltonian.terms == ((1.0, "X"),)

    def test_qubit_b_start(self):
        p = load_preset("qubit-b")
        np.testing.assert_allclose(p.theta0, [5 * np.pi / 12, np.pi / 12])

    def test_h2_a_constants(self):
        p = load_preset("h2-a")
        assert p.hamiltonian.terms == ((0.4, "ZI"), (0.4, "IZ"), (0.2, "XX"))
        assert p.theta0 == (-0.2, -0.2, 0.0, 0.0)
        assert abs(p.reference_energy + math.sqrt(0.68)) < 1e-15
        assert abs(p.reference_energy + 0.82462) < 1e-5

    def test_toy_constants(self):
        p = load_preset("toy")
        assert p.hamiltonian.terms[2] == (0.02, "XX")
        assert abs(p.reference_energy + 0.80025) < 1e-5

    def test_plateau_start(self):
        p = load_preset("h2-plateau")
        np.testing.assert_allclose(p.theta0, [7 * np.pi / 32, np.pi / 2, 0.0, 0.0])

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_reference_is_ground_energy(self, name):
        p = load_preset(name)
        ground = np.linalg.eigvalsh(dense_matrix(p.hamiltonian))[0]
        assert abs(p.reference_energy - ground) < 1e-10


class TestCompare:
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

    def test_threshold_indexing(self):
        p = load_preset("qubit-a")
        report = compare(p, [V], threshold=0.01)
        traj = report.results[V].trajectory
        k = report.results[V].steps_to_threshold
        assert traj.steps[k].energy <= p.reference_energy + 0.01
        assert all(s.energy > p.reference_energy + 0.01 for s in traj.steps[:k])
        assert steps_to_threshold(traj, p.reference_energy, -10.0) is None

    @pytest.mark.parametrize("eta", [0.05, 0.025])
    def test_qubit_orderings_stable_in_learning_rate(self, eta):
        p = load_preset("qubit-a")
        report = compare(p, [V, N, I], threshold=0.01, schedule=ConstantRate(eta))
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V] and hits[I] < hits[V]
        p = load_preset("qubit-b")
        report = compare(p, [V, N, I], threshold=0.01, schedule=ConstantRate(eta))
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V] and hits[N] < hits[I]

    @pytest.mark.parametrize("eta", [0.05, 0.025])
    def test_h2_orderings_stable_in_learning_rate(self, eta):
        report = compare(load_preset("h2-a"), [V, N], threshold=0.01,
                         schedule=ConstantRate(eta), max_steps=2000)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V]
        report = compare(load_preset("h2-plateau"), [V, N], threshold=0.05,
                         schedule=ConstantRate(eta), max_steps=1500)
        hits = {k: r.steps_to_threshold for k, r in report.results.items()}
        assert hits[N] < hits[V]

    def test_toy_vanilla_settles_at_ground(self):
        p = load_preset("toy")
        report = compare(p, [V], max_steps=2000)
        tail = report.results[V].trajectory.energies()[-400:]
        assert np.all(np.abs(tail - p.reference_energy) < 0.01)


ROOT = Path(__file__).resolve().parents[1]


def readme_table():
    """{(preset, optimizer): steps} from the README's steps-to-threshold table ('-' = not run)."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Case-study results\n")[1]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
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
        preset = load_preset(name)
        report = compare(preset, kinds, threshold=script.THRESHOLDS[name],
                         schedule=ConstantRate(preset.eta), policy=DEFAULT_POLICY)
        for kind, result in report.results.items():
            observed[name, kind.value] = result.steps_to_threshold
    assert observed == readme_table()
    assert observed["h2-plateau", "natural"] == 487
