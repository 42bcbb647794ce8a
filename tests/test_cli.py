"""Command-line interface: subcommands, file formats, exit codes."""
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from natvqe import ConstantRate, OptimizerKind, load_preset, run
from natvqe.cli import csv_header, main, parse_trajectory_csv, trajectory_to_csv

CUSTOM_CONFIG = {
    "hamiltonian": [[0.4, "ZI"], [0.4, "IZ"], [0.2, "XX"]],
    "circuit": {
        "n_qubits": 2,
        "gates": [
            {"kind": "ry", "targets": [0], "param_index": 0},
            {"kind": "ry", "targets": [1], "param_index": 1},
            {"kind": "cnot", "targets": [0, 1]},
            {"kind": "ry", "targets": [0], "param_index": 2},
            {"kind": "ry", "targets": [1], "param_index": 3},
        ],
    },
    "theta0": [-0.2, -0.2, 0.0, 0.0],
    "eta": 0.05,
    "max_steps": 40,
}


def write_config(tmp_path, doc=CUSTOM_CONFIG, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestRunCommand:
    def test_writes_one_csv_per_optimizer(self, tmp_path):
        code = main(["run", "--preset", "qubit-a", "--optimizer", "vanilla,natural,ite",
                     "--steps", "10", "--out-dir", str(tmp_path)])
        assert code == 0
        for kind in ("vanilla", "natural", "ite"):
            text = (tmp_path / f"qubit-a_{kind}.csv").read_text()
            lines = text.splitlines()
            assert lines[0] == "step,theta_1,theta_2,energy,grad_norm,det_metric,min_eig_metric"
            assert len(lines) == 12  # header + initial record + 10 updates

    def test_csv_round_trip_is_exact(self, tmp_path):
        p = load_preset("qubit-a")
        traj = run(OptimizerKind.NATURAL_FS, p.hamiltonian, p.circuit, p.theta0,
                   ConstantRate(p.eta), max_steps=25)
        steps, n_params = parse_trajectory_csv(trajectory_to_csv(traj))
        assert n_params == 2
        assert steps == list(traj.steps)

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["run", "--preset", "h2-a", "--optimizer", "natural",
                         "--steps", "60", "--out-dir", str(tmp_path / sub)])
            assert code == 0
        a = (tmp_path / "a" / "h2-a_natural.csv").read_bytes()
        b = (tmp_path / "b" / "h2-a_natural.csv").read_bytes()
        assert a == b

    def test_json_format(self, tmp_path):
        code = main(["run", "--preset", "h2-a", "--optimizer", "natural",
                     "--steps", "8", "--format", "json", "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "h2-a_natural.json").read_text())
        assert set(doc) == {"config", "steps", "terminal_reason"}
        assert doc["terminal_reason"] == "max_steps"
        assert doc["config"]["preset"] == "h2-a"
        assert doc["config"]["optimizer"] == "natural"
        assert doc["config"]["theta0"] == [-0.2, -0.2, 0.0, 0.0]
        assert len(doc["steps"]) == 9
        assert set(doc["steps"][0]) == {"k", "theta", "energy", "grad_norm",
                                        "det_metric", "min_eig_metric"}

    def test_long_nonconverging_run_still_succeeds(self, tmp_path):
        code = main(["run", "--preset", "toy", "--optimizer", "natural",
                     "--steps", "2000", "--format", "json", "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "toy_natural.json").read_text())
        assert doc["terminal_reason"] == "max_steps"
        assert len(doc["steps"]) == 2001

    def test_config_file_problem(self, tmp_path):
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), "--optimizer", "vanilla",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "problem_vanilla.csv").read_text().splitlines()
        assert lines[0] == csv_header(4)
        assert len(lines) == 42

    def test_unitary_gate_in_config(self, tmp_path):
        doc = {
            "hamiltonian": [[1.0, "Z"]],
            "circuit": {"n_qubits": 1, "gates": [
                {"kind": "ry", "targets": [0], "param_index": 0},
                {"kind": "unitary", "targets": [0],
                 "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},  # sigma_x
            ]},
            "theta0": [0.3],
            "max_steps": 5,
        }
        code = main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out-dir", str(tmp_path)])
        assert code == 0

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NATVQE_OUT_DIR", str(tmp_path / "from_env"))
        code = main(["run", "--preset", "qubit-a", "--optimizer", "vanilla", "--steps", "3"])
        assert code == 0
        assert (tmp_path / "from_env" / "qubit-a_vanilla.csv").exists()

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["run", "--preset", "nope", "--optimizer", "vanilla"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_and_config_conflict(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--preset", "qubit-a", "--config", str(config)]) == 2

    def test_neither_preset_nor_config(self):
        assert main(["run", "--optimizer", "vanilla"]) == 2

    def test_unknown_optimizer(self):
        assert main(["run", "--preset", "qubit-a", "--optimizer", "sgd"]) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--optimizer", "vanilla"]) == 2

    def test_circuit_without_parameters_is_config_error(self, tmp_path, capsys):
        doc = dict(CUSTOM_CONFIG, theta0=[])
        doc["circuit"] = {"n_qubits": 2, "gates": [{"kind": "cnot", "targets": [0, 1]}]}
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, doc)), "--out-dir", str(out)])
        assert code == 2
        assert "no parameterized gate" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["run", "--preset", "qubit-a", "--optimizer", "vanilla",
                     "--steps", "3", "--out-dir", str(blocker / "sub")])
        assert code == 3


class TestMetricCommand:
    def test_h2_point(self, capsys):
        code = main(["metric", "--preset", "h2-a", "--theta", "-0.2,-0.2,0,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fubini_study" in out
        assert "is_singular    = True" in out
        indicator = float(out.split("separability_indicator = ")[1].splitlines()[0])
        assert abs(indicator - np.sin(-0.4) ** 2 * np.cos(-0.4) ** 2) < 1e-12
        assert abs(indicator - 0.1286) < 1e-3

    def test_north_pole_singular(self, capsys):
        code = main(["metric", "--preset", "qubit-a", "--theta", "0,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "determinant    = 0.0" in out
        assert "is_singular    = True" in out

    def test_classical_rank_one(self, capsys):
        code = main(["metric", "--preset", "qubit-a", "--theta", "0.5,0.3", "--kind", "classical"])
        assert code == 0
        out = capsys.readouterr().out
        assert "classical_fisher" in out
        assert "rank           = 1" in out

    def test_all_kinds(self, capsys):
        code = main(["metric", "--preset", "qubit-a", "--theta", "0.5,0.3", "--kind", "all"])
        assert code == 0
        out = capsys.readouterr().out
        for label in ("fubini_study", "ite_gram", "classical_fisher"):
            assert label in out

    def test_wrong_arity(self, capsys):
        assert main(["metric", "--preset", "h2-a", "--theta", "0.1,0.2"]) == 2
        assert "4 component" in capsys.readouterr().err

    def test_degenerate_classical_is_runtime_error(self, capsys):
        code = main(["metric", "--preset", "qubit-a", "--theta",
                     f"{np.pi / 4},0", "--kind", "classical"])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err


class TestPlotCommand:
    @pytest.fixture()
    def qubit_csvs(self, tmp_path):
        main(["run", "--preset", "qubit-a", "--optimizer", "vanilla,natural,ite",
              "--steps", "30", "--out-dir", str(tmp_path)])
        return [str(tmp_path / f"qubit-a_{k}.csv") for k in ("vanilla", "natural", "ite")]

    def test_energy_plot(self, qubit_csvs, tmp_path, capsys):
        out = tmp_path / "energy.svg"
        assert main(["plot", *qubit_csvs, "--out", str(out)]) == 0
        svg = out.read_text()
        ET.fromstring(svg)  # well-formed XML
        assert svg.count("<polyline") == 3
        for label in ("qubit-a_vanilla", "qubit-a_natural", "qubit-a_ite"):
            assert label in svg

    def test_path_plot(self, qubit_csvs, tmp_path):
        out = tmp_path / "path.svg"
        assert main(["plot", *qubit_csvs, "--path", "--out", str(out)]) == 0
        svg = out.read_text()
        assert "theta_1" in svg and "theta_2" in svg

    def test_path_plot_requires_two_parameters(self, tmp_path, capsys):
        main(["run", "--preset", "h2-a", "--optimizer", "natural", "--steps", "5",
              "--out-dir", str(tmp_path)])
        code = main(["plot", str(tmp_path / "h2-a_natural.csv"), "--path",
                     "--out", str(tmp_path / "x.svg")])
        assert code == 2
        assert "path plot requires 2 parameters" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        assert main(["plot", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x.svg")]) == 2

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,theta_1\n0,nope\n")
        assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 2


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("qubit-a", "qubit-b", "h2-a", "h2-plateau", "toy"):
            assert name in out


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "natvqe.cli", "run", "--preset", "qubit-a",
         "--optimizer", "vanilla", "--steps", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "qubit-a_vanilla.csv").exists()


def test_bad_arguments_exit_code():
    assert main(["run", "--nonsense"]) == 2
