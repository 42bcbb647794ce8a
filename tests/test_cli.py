"""Command-line interface: subcommands, file formats, exit codes."""
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from natvqe import (
    ConstantRate,
    OptimizerKind,
    TerminalReason,
    circuit,
    cnot,
    fixed_unitary,
    load_preset,
    pauli_sum,
    phase,
    run,
    ry,
)
from natvqe.cli import (
    csv_header,
    main,
    parse_trajectory_csv,
    trajectory_to_csv,
    trajectory_to_json,
)
from natvqe.experiments import Problem
from natvqe.optimizers import MAX_STEPS, Trajectory, TrajectoryStep
from natvqe.states import MAX_QUBITS

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


def with_gate(index, gate):
    """CUSTOM_CONFIG's circuit with gate ``index`` replaced by ``gate``."""
    gates = list(CUSTOM_CONFIG["circuit"]["gates"])
    gates[index] = gate
    return dict(CUSTOM_CONFIG["circuit"], gates=gates)


def checkout_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``, so a child
    process imports the natvqe under test, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_in_subprocess(tmp_path, doc, flags=()):
    """``natvqe run --config`` on ``doc`` in a fresh process that must exit 2 and write nothing;
    returns its standard error."""
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "natvqe.cli", "run", "--config", str(write_config(tmp_path, doc)),
         *flags, "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60, env=checkout_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not out.exists()
    return proc.stderr


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

    @pytest.mark.parametrize("flags, fields", [
        (["--steps", "0"], {}),
        (["--eta", "0"], {}),
        (["--eta", "inf"], {}),
        (["--eta", "nan"], {}),
        (["--schedule", "inverse", "--eta", "-1"], {}),
        (["--reg-epsilon", "0"], {}),
        (["--regularization", "pinv", "--reg-epsilon", "inf"], {}),
        ([], {"theta0": [0.1, 0.2, 0.3]}),
        ([], {"max_steps": 0}),
        ([], {"eta": "fast"}),
        ([], {"eta": None}),
        ([], {"max_steps": 2.5}),
        ([], {"max_steps": True}),
        ([], {"max_steps": "3"}),
        ([], {"eta": True}),
        ([], {"theta0": [-0.2, True, 0.0, 0.0]}),
        (["--grad-tol", "nan"], {}),
        (["--grad-tol", "-1"], {}),
        (["--grad-tol", "inf"], {}),
        # config numbers of the wrong JSON type used to be truncated or coerced
        ([], {"circuit": dict(CUSTOM_CONFIG["circuit"], n_qubits=2.9)}),
        ([], {"circuit": with_gate(1, {"kind": "ry", "targets": [1.7], "param_index": 1})}),
        ([], {"circuit": with_gate(1, {"kind": "ry", "targets": ["1"], "param_index": 1})}),
        ([], {"circuit": with_gate(1, {"kind": "ry", "targets": [True], "param_index": 1})}),
        ([], {"circuit": with_gate(1, {"kind": "ry", "targets": [1], "param_index": 1.5})}),
        ([], {"circuit": with_gate(1, {"kind": "ry", "targets": [1], "param_index": True})}),
        ([], {"hamiltonian": [["0.4", "ZI"], [0.4, "IZ"], [0.2, "XX"]]}),
        ([], {"hamiltonian": [[True, "ZI"], [0.4, "IZ"], [0.2, "XX"]]}),
        ([], {"circuit": with_gate(2, {"kind": "unitary", "targets": [0],
                                       "matrix": [[[0, 0], ["1", 0]], [[1, 0], [0, 0]]]})}),
        ([], {"circuit": with_gate(2, {"kind": "unitary", "targets": [0],
                                       "matrix": [[[0, 0], [1, 0]], [[True, 0], [0, 0]]]})}),
        # integers past the float range made float() raise OverflowError, which exited 3
        ([], {"eta": 10 ** 400}),
        ([], {"max_steps": 10 ** 400}),
        ([], {"theta0": [-0.2, 10 ** 400, 0.0, 0.0]}),
        ([], {"hamiltonian": [[10 ** 400, "ZI"], [0.4, "IZ"], [0.2, "XX"]]}),
        ([], {"circuit": with_gate(2, {"kind": "unitary", "targets": [0],
                                       "matrix": [[[0, 0], [10 ** 400, 0]], [[1, 0], [0, 0]]]})}),
        # NaN failed every tolerance check, so the run exited 0 with a nan energy
        ([], {"circuit": with_gate(2, {"kind": "unitary", "targets": [0],
                                       "matrix": [[[0, 0], [np.nan, 0]], [[1, 0], [0, 0]]]})}),
        ([], {"circuit": with_gate(2, {"kind": "unitary", "targets": [0],
                                       "matrix": [[[0, 0], [np.inf, 0]], [[1, 0], [0, 0]]]})}),
        # a bad config value used to pass unchecked when a flag overrode it
        (["--steps", "5"], {"max_steps": 0}),
        (["--steps", "5"], {"max_steps": -7}),
        (["--eta", "0.1"], {"eta": -1.0}),
        (["--eta", "0.1"], {"eta": 0}),
        (["--eta", "0.1", "--steps", "3"], {"eta": -1.0, "max_steps": 0}),
    ], ids=["steps-0", "eta-0", "eta-inf", "eta-nan", "inverse-eta-negative", "epsilon-0",
            "pinv-cut-inf", "theta0-length", "config-max-steps-0", "config-eta-text",
            "config-eta-null", "config-max-steps-fraction", "config-max-steps-bool",
            "config-max-steps-text", "config-eta-bool", "config-theta0-bool",
            "grad-tol-nan", "grad-tol-negative", "grad-tol-inf", "config-n-qubits-fraction",
            "config-target-fraction", "config-target-text", "config-target-bool",
            "config-param-index-fraction", "config-param-index-bool", "config-coefficient-text",
            "config-coefficient-bool", "config-matrix-entry-text", "config-matrix-entry-bool",
            "config-eta-huge", "config-max-steps-huge", "config-theta0-huge",
            "config-coefficient-huge", "config-matrix-entry-huge", "config-matrix-entry-nan",
            "config-matrix-entry-inf",
            "config-max-steps-0-steps-flag", "config-max-steps-negative-steps-flag",
            "config-eta-negative-eta-flag", "config-eta-0-eta-flag", "config-both-both-flags"])
    def test_bad_setting_is_config_error_and_writes_nothing(self, tmp_path, flags, fields):
        config = write_config(tmp_path, dict(CUSTOM_CONFIG, **fields))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--optimizer", "natural", *flags,
                     "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()

    def test_qubit_count_beyond_the_bound_exits_at_once(self, tmp_path):
        # compiling 10**30 qubits used to hang; the bound is checked before anything is built
        doc = dict(CUSTOM_CONFIG, circuit=dict(CUSTOM_CONFIG["circuit"], n_qubits=10 ** 30))
        err = run_in_subprocess(tmp_path, doc)
        assert f"n_qubits must be between 1 and {MAX_QUBITS}" in err

    def test_huge_param_index_exits_at_once(self, tmp_path):
        # the unused-slot check used to build set(range(10**30)) and list every slot
        gate = {"kind": "ry", "targets": [1], "param_index": 10 ** 30}
        err = run_in_subprocess(tmp_path, dict(CUSTOM_CONFIG, circuit=with_gate(3, gate)))
        assert "never used by any gate: [2, 4, 5, 6, 7, 8, 9, 10, 11, 12] and " in err
        assert len(err) < 300

    @pytest.mark.parametrize("doc, flags", [
        (CUSTOM_CONFIG, ["--steps", "1000000000000"]),
        (dict(CUSTOM_CONFIG, max_steps=1e30), []),
    ], ids=["steps-flag", "config"])
    def test_max_steps_beyond_the_bound_exits_at_once(self, tmp_path, doc, flags):
        # such a run kept every record in memory and ran until it was killed
        err = run_in_subprocess(tmp_path, doc, flags)
        assert f"max_steps must be at most {MAX_STEPS}" in err

    @pytest.mark.parametrize("fields, name", [
        ({"eta": 10 ** 400}, "eta"),
        ({"max_steps": 10 ** 400}, "max_steps"),
        ({"theta0": [-0.2, 10 ** 400, 0.0, 0.0]}, "theta0 entry"),
        ({"hamiltonian": [[10 ** 400, "ZI"], [0.4, "IZ"], [0.2, "XX"]]}, "hamiltonian coefficient"),
    ], ids=["eta", "max-steps", "theta0-entry", "coefficient"])
    def test_integer_past_the_float_range_is_named_not_echoed(self, tmp_path, capsys, fields, name):
        config = write_config(tmp_path, dict(CUSTOM_CONFIG, **fields))
        start = time.perf_counter()
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"{name} is too large for a float" in err
        assert len(err) < 1024

    @pytest.mark.parametrize("data", [
        json.dumps(CUSTOM_CONFIG).replace('"eta": 0.05', '"eta": 1' + "0" * 4999).encode(),
        b'{"eta": "\xff"}',
        b"[" * 200_000 + b"]" * 200_000,
    ], ids=["5000-digit-literal", "not-utf-8", "nested-200000-deep"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, data):
        # json.load raises a plain ValueError for an integer literal past Python's
        # 4300-digit limit, reading raises UnicodeDecodeError for bytes that are not
        # UTF-8, and nesting past the recursion limit raises RecursionError; none is
        # a JSONDecodeError, and the first two used to exit 3, the last 1 with a traceback
        config = tmp_path / "problem.json"
        config.write_bytes(data)
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main(["run", "--config", str(config), "--out-dir", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file: ")
        assert len(err) < 1024
        assert not out.exists()

    def test_json_config_echo_rebuilds_the_circuit(self, tmp_path):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary = np.linalg.qr(z)[0]
        doc = dict(CUSTOM_CONFIG)
        doc["circuit"] = {"n_qubits": 2, "gates": CUSTOM_CONFIG["circuit"]["gates"] + [
            {"kind": "unitary", "targets": [1, 0],
             "matrix": [[[z.real, z.imag] for z in row] for row in unitary.tolist()]},
        ]}
        code = main(["run", "--config", str(write_config(tmp_path, doc)), "--steps", "2",
                     "--format", "json", "--out-dir", str(tmp_path)])
        assert code == 0
        echo = json.loads((tmp_path / "problem_vanilla.json").read_text())["config"]
        rebuilt = Problem.from_json(echo, "echo").circuit
        original = Problem.from_json(doc, "doc").circuit
        assert rebuilt.n_qubits == original.n_qubits
        assert len(rebuilt.gates) == len(original.gates)
        for a, b in zip(rebuilt.gates, original.gates):
            assert (a.kind, a.targets, a.param_index) == (b.kind, b.targets, b.param_index)
            assert (a.matrix is None) == (b.matrix is None)
            if a.matrix is not None:
                assert a.matrix.tobytes() == b.matrix.tobytes()

    @pytest.mark.parametrize("source, flags, eta, max_steps", [
        ("h2-a", ["--eta", "0.1", "--steps", "3"], 0.1, 3),
        ("config", [], 0.08, 40),
        ("qubit-a", ["--schedule", "inverse", "--eta", "0.2", "--steps", "4"], 0.2, 4),
    ], ids=["preset-overrides", "config", "inverse-schedule"])
    def test_json_echo_rebuilds_the_problem_that_ran(self, tmp_path, source, flags, eta,
                                                     max_steps):
        if source == "config":
            doc = dict(CUSTOM_CONFIG, eta=0.08)  # not 0.05, the default an echo without eta reads
            args = ["--config", str(write_config(tmp_path, doc))]
            ran = Problem.from_json(doc, "problem")
        else:
            args, ran = ["--preset", source], load_preset(source)
        code = main(["run", *args, *flags, "--optimizer", "natural", "--format", "json",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        (path,) = (tmp_path / "out").iterdir()
        with path.open(encoding="utf-8") as fh:
            echoed = Problem.from_json(json.load(fh)["config"], ran.name)
        # under --schedule inverse the echoed eta is the schedule's c
        assert (echoed.eta, echoed.max_steps) == (eta, max_steps)
        assert echoed.theta0 == ran.theta0
        assert echoed.hamiltonian.terms == ran.hamiltonian.terms
        assert echoed.circuit.n_qubits == ran.circuit.n_qubits
        assert ([(g.kind, g.targets, g.param_index) for g in echoed.circuit.gates]
                == [(g.kind, g.targets, g.param_index) for g in ran.circuit.gates])

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

    def test_no_separability_indicator_off_the_two_layer_ansatz(self, tmp_path, capsys):
        # ry, phase on each qubit: 2 qubits and 4 parameters, but only product states
        doc = dict(CUSTOM_CONFIG, theta0=[0.3, 0.4, 0.5, 0.6])
        doc["circuit"] = {"n_qubits": 2, "gates": [
            {"kind": "ry", "targets": [0], "param_index": 0},
            {"kind": "phase", "targets": [0], "param_index": 1},
            {"kind": "ry", "targets": [1], "param_index": 2},
            {"kind": "phase", "targets": [1], "param_index": 3},
        ]}
        code = main(["metric", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        out = capsys.readouterr().out
        assert "fubini_study" in out
        assert "separability_indicator" not in out

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
        labels = [line[:-1] for line in out.splitlines() if line.endswith(":")]
        assert labels == ["fubini_study", "ite_gram", "classical_fisher"]

    def test_wrong_arity(self, capsys):
        assert main(["metric", "--preset", "h2-a", "--theta", "0.1,0.2"]) == 2
        assert "takes 4 parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("theta0", ["-0.2", -0.2, 0.0, True], "theta0 entry must be a number, got '-0.2'"),
        ("circuit", {"n_qubits": 2, "gates": [{"kind": "cnot", "targets": [0, 1]}]},
         "circuit has no parameterized gate"),
    ], ids=["text-theta0", "no-parameter-slot"])
    def test_problem_refusal_is_config_error(self, tmp_path, capsys, field, value, message):
        doc = dict(CUSTOM_CONFIG, **{field: value})
        assert main(["metric", "--config", str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err.strip().endswith(f"bad config file: {message}")

    @pytest.mark.parametrize("theta", ["nan,0,0,0", "0,inf,0,0", "0,0,-inf,0"])
    def test_non_finite_theta_is_config_error(self, theta, capsys):
        assert main(["metric", "--preset", "h2-a", "--theta", theta]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("theta, message", [
        ("1_0,0", "each entry must be a finite JSON number"),
        ("true,0", "theta entry must be a number, got True"),
        ("NaN,0", "parameters must be finite"),
        ("", "circuit takes 2 parameter(s), got shape (0,)"),
    ], ids=["digit-separator", "bool", "json-nan", "empty"])
    def test_theta_entries_are_json_numbers(self, theta, message, capsys):
        # float() read "1_0" as 10, so the metric printed at theta (10, 0) with exit 0, and an
        # empty --theta printed it at the preset's theta0
        assert main(["metric", "--preset", "qubit-a", "--theta", theta]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad theta {theta!r}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("rank_tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("problem", [
        pytest.param(["--preset", "h2-a", "--kind", "fs"], id="fs"),
        pytest.param(["--preset", "h2-a", "--kind", "all"], id="all"),
        # FC is undefined here: the bad tolerance must be reported, not the metric
        pytest.param(["--preset", "qubit-a", "--theta", f"{np.pi / 4},0", "--kind", "classical"],
                     id="classical-degenerate"),
    ])
    def test_bad_rank_tol_is_config_error(self, problem, rank_tol, capsys):
        code = main(["metric", *problem, "--rank-tol", rank_tol])
        assert code == 2
        captured = capsys.readouterr()
        assert "rank_tol" in captured.err
        assert captured.out == ""

    def test_degenerate_classical_is_runtime_error(self, capsys):
        code = main(["metric", "--preset", "qubit-a", "--theta",
                     f"{np.pi / 4},0", "--kind", "classical"])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err


def reference_json(trajectory, config_echo):
    """The document encoder that ``trajectory_to_json`` must match byte for byte."""
    doc = {
        "config": config_echo,
        "steps": [
            {
                "k": s.k,
                "theta": list(s.theta),
                "energy": s.energy,
                "grad_norm": s.grad_norm,
                "det_metric": s.det_metric,
                "min_eig_metric": s.min_eig_metric,
            }
            for s in trajectory.steps
        ],
        "terminal_reason": trajectory.terminal_reason.value,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def config_echo(circ, hamiltonian, theta0, preset):
    """The ``config`` that ``natvqe run --format json`` writes: the problem plus its settings."""
    doc = Problem(preset or "echo", hamiltonian, circ, tuple(theta0), 0.05, 4).to_json()
    return dict(doc, preset=preset, optimizer="natural", schedule="constant",
                regularization={"kind": "eigenfloor", "epsilon": 1e-10}, grad_tol=0.0)


def one_parameter_problem():
    """m = 1, with a random fixed unitary in the echo; no preset."""
    z = np.random.default_rng(8).normal(size=(2, 2, 2))
    unitary = np.linalg.qr(z[0] + 1j * z[1])[0]
    circ = circuit(1, [ry(0, 0), fixed_unitary(unitary, 0)])
    return circ, pauli_sum(1, [(0.6, "Z"), (-0.8, "X")]), [0.3], None


def wide_problem():
    """6 qubits, 3 layers of ry and phase on every qubit and a CNOT chain: m = 36."""
    gates, slot = [], 0
    for _ in range(3):
        for qubit in range(6):
            gates += [ry(qubit, slot), phase(qubit, slot + 1)]
            slot += 2
        gates += [cnot(qubit, qubit + 1) for qubit in range(5)]
    terms = [(0.7, "ZZIIII"), (-0.4, "XIXIYI"), (0.3, "IIIIIZ"), (0.25, "IYIIXI")]
    theta0 = np.random.default_rng(9).uniform(-np.pi, np.pi, slot).tolist()
    return circuit(6, gates), pauli_sum(6, terms), theta0, None


def preset_problem():
    p = load_preset("h2-a")
    return p.circuit, p.hamiltonian, list(p.theta0), p.name


class TestTrajectoryJson:
    @pytest.mark.parametrize("problem", [one_parameter_problem, wide_problem, preset_problem],
                             ids=["m1-unitary-preset-null", "m36", "preset-h2-a"])
    def test_bytes_match_the_document_encoder(self, problem):
        circ, hamiltonian, theta0, preset = problem()
        traj = run(OptimizerKind.NATURAL_FS, hamiltonian, circ, theta0, ConstantRate(0.05),
                   max_steps=4)
        echo = config_echo(circ, hamiltonian, theta0, preset)
        assert trajectory_to_json(traj, echo) == reference_json(traj, echo)

    def test_non_finite_run(self):
        h = pauli_sum(1, [(1e308, "Z")])
        circ = circuit(1, [ry(0, 0)])
        with np.errstate(over="ignore"):
            traj = run(OptimizerKind.VANILLA, h, circ, [0.7], ConstantRate(0.05), max_steps=10)
        assert traj.terminal_reason is TerminalReason.NON_FINITE
        echo = config_echo(circ, h, [0.7], None)
        assert trajectory_to_json(traj, echo) == reference_json(traj, echo)

    def test_nan_and_infinities_in_every_field(self):
        odd = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
        steps = tuple(TrajectoryStep(k, (x, -x), x, odd[k - 1], odd[k - 2], odd[k - 3])
                      for k, x in enumerate(odd))
        traj = Trajectory(steps, TerminalReason.NON_FINITE)
        circ, hamiltonian, theta0, _ = one_parameter_problem()
        echo = config_echo(circ, hamiltonian, theta0, "qubit-a")
        text = trajectory_to_json(traj, echo)
        assert text == reference_json(traj, echo)
        assert "NaN" in text and "-Infinity" in text

    def test_cli_file_matches_the_document_encoder(self, tmp_path):
        code = main(["run", "--preset", "h2-a", "--optimizer", "natural", "--steps", "5",
                     "--format", "json", "--out-dir", str(tmp_path)])
        assert code == 0
        data = (tmp_path / "h2-a_natural.json").read_text()
        p = load_preset("h2-a")
        traj = run(OptimizerKind.NATURAL_FS, p.hamiltonian, p.circuit, p.theta0,
                   ConstantRate(p.eta), max_steps=5)
        assert data == reference_json(traj, json.loads(data)["config"])


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
        # markup characters in a title or a series label are escaped
        odd = tmp_path / "R&D.csv"
        odd.write_bytes(Path(qubit_csvs[0]).read_bytes())
        assert main(["plot", str(odd), "--title", "E<0 runs", "--out", str(out)]) == 0
        texts = [node.text for node in ET.fromstring(out.read_text()).iter()]
        assert "E<0 runs" in texts and "R&D" in texts

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
        for text in [
            "step,theta_1\n0,nope\n",
            # a misnamed column used to parse as theta_1 when the last four names matched
            "step,grad_norm,energy,grad_norm,det_metric,min_eig_metric\n0,0.1,0.2,0.3,1.0,1.0\n",
            "step,theta_2,energy,grad_norm,det_metric,min_eig_metric\n0,0.1,0.2,0.3,1.0,1.0\n",
            "step,energy,grad_norm,det_metric,min_eig_metric\n0,0.2,0.3,1.0,1.0\n",
        ]:
            bad.write_text(text)
            assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 2, text
            assert not (tmp_path / "x.svg").exists()


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
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "qubit-a_vanilla.csv").exists()


def test_bad_arguments_exit_code():
    assert main(["run", "--nonsense"]) == 2
