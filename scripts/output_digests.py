#!/usr/bin/env python3
"""Print SHA-256 digests of natvqe's outputs, to show that a change keeps their bytes.

Run it from two checkouts and diff the two outputs; no line may differ:

    python3 scripts/output_digests.py > after.txt
    (cd ../other-checkout && python3 scripts/output_digests.py) > before.txt
    diff before.txt after.txt

It imports natvqe from the ``src/`` beside this script, so copy the script
into an older checkout to digest that tree. It digests

* every file ``scripts/reproduce_figures.py`` writes, and its standard output;
* the SVGs of ``natvqe plot`` over the qubit-a CSVs that script writes, the
  energy plot and the ``--path`` plot, which read the CSVs back;
* every JSON trajectory of the benchmark's ``wide`` workload (one pass,
  ``natvqe run --config ... --format json``) at each seed;
* F, A, FC, the outcome probabilities p and the singularity report of F at
  every point of the benchmark's ``landscape`` workload at each seed, one
  digest per quantity over all points in order;
* the exit code, standard output and standard error of ``natvqe metric`` for
  every preset and ``--kind`` at the preset's theta0, and for every ``--kind``
  at the qubit-a point where the classical Fisher metric is undefined;
* the JSON trajectories of ``natvqe run --preset P --optimizer vanilla,natural
  --format json --steps 3`` for every preset, and of a ``natvqe run --config``
  whose circuit has ry, phase, CNOT and a seeded two-qubit unitary;
* the standard output of ``natvqe presets``, ``natvqe run --help`` and
  ``natvqe metric --help``, which show the preset table and the option
  defaults;
* the exit code and standard error of ``natvqe run --config`` for each of a set
  of bad config files (wrong JSON types, a missing field at the top level or in
  a gate, not JSON, a theta0 of the wrong length, integers too large for a
  float or past Python's digit limit, an unused parameter slot, bytes that are
  not UTF-8).

The workloads come from ``perfbench/workloads.py``, which is only imported.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from natvqe import PRESET_NAMES, cli, observables, states  # noqa: E402

METRIC_KINDS = ("fs", "ite", "classical", "all")
DEGENERATE_THETA = f"{np.pi / 4!r},0"  # qubit-a: one outcome has probability 1


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def figures_digests(tmp: Path) -> list[str]:
    out = tmp / "figures"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
                           "--out-dir", str(out)], env=env, cwd=tmp, check=True,
                          stdout=subprocess.PIPE)
    # the last line names the output directory, which differs from run to run
    stdout = proc.stdout.replace(str(out).encode(), b"<out>")
    lines = [f"figures stdout {sha(stdout)}"]
    lines += [f"figures {path.name} {sha(path.read_bytes())}" for path in sorted(out.iterdir())]
    return lines


def plot_digests(tmp: Path) -> list[str]:
    """``natvqe plot`` over the qubit-a CSVs that ``figures_digests`` wrote."""
    csvs = [str(path) for path in sorted((tmp / "figures").glob("qubit-a_*.csv"))]
    lines = []
    for label, flags in (("energy", []), ("path", ["--path"])):
        svg = tmp / f"plot-{label}.svg"
        code, _, err = _cli(["plot", *csvs, *flags, "--out", str(svg)])
        lines.append(f"plot qubit-a {label} exit={code} svg {sha(svg.read_bytes())} "
                     f"stderr {sha(err.encode())}")
    return lines


def wide_digests(seed: int, tmp: Path) -> list[str]:
    workdir = tmp / f"wide{seed}"
    workdir.mkdir()
    wide = workloads.Wide(seed, workdir)
    lines = []
    for index, unit in wide.units():
        code = unit()
        if code != 0:
            raise RuntimeError(f"wide seed {seed} circuit {index}: natvqe run exited {code}")
        for path in sorted((workdir / f"out{index}").iterdir()):
            lines.append(f"wide seed={seed} {path.name} {sha(path.read_bytes())}")
    return lines


def landscape_digests(seed: int, tmp: Path) -> list[str]:
    landscape = workloads.Landscape(seed, tmp)
    hashes = {name: hashlib.sha256() for name in ("F", "A", "FC", "p", "report")}
    for (_, unit), (circ, hamiltonian, theta, _) in zip(landscape.units(), landscape.points):
        f, a, fc, report = unit()
        dist = observables.outcome_distribution(observables.spectral_decompose(hamiltonian),
                                                states.build_state(circ, theta))
        # an array, or an object holding one in trees from before it was an array
        p = getattr(dist, "probabilities", dist)
        for name, values in (("F", f), ("A", a), ("FC", fc), ("p", p)):
            hashes[name].update(np.ascontiguousarray(values).tobytes())
        hashes["report"].update(repr(report).encode())
    return [f"landscape seed={seed} {name} {h.hexdigest()}" for name, h in hashes.items()]


def metric_digests() -> list[str]:
    cases = [(preset, kind, None) for preset in PRESET_NAMES for kind in METRIC_KINDS]
    cases += [("qubit-a", kind, DEGENERATE_THETA) for kind in METRIC_KINDS]
    lines = []
    for preset, kind, theta in cases:
        argv = ["metric", "--preset", preset, "--kind", kind]
        if theta is not None:
            argv += ["--theta", theta]
        code, out, err = _cli(argv)
        lines.append(f"metric {preset} {kind} theta={theta or 'theta0'} exit={code} "
                     f"stdout {sha(out.encode())} stderr {sha(err.encode())}")
    return lines


def listing_digests() -> list[str]:
    os.environ["COLUMNS"] = "80"  # argparse wraps its help to the terminal width
    lines = []
    for argv in (["presets"], ["run", "--help"], ["metric", "--help"]):
        code, out, err = _cli(argv)
        lines.append(f"listing {' '.join(argv)} exit={code} stdout {sha(out.encode())} "
                     f"stderr {sha(err.encode())}")
    return lines


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_json(tmp: Path, label: str, problem: list[str]) -> list[str]:
    """Digest every file of ``natvqe run PROBLEM --optimizer vanilla,natural --format json``."""
    out = tmp / label
    code, _, err = _cli(["run", *problem, "--optimizer", "vanilla,natural", "--format", "json",
                         "--steps", "3", "--out-dir", str(out)])
    if code != 0:
        raise RuntimeError(f"echo {label}: natvqe run exited {code}: {err}")
    return [f"echo {label} {path.name} {sha(path.read_bytes())}" for path in sorted(out.iterdir())]


def _unitary_config() -> dict:
    """ry, phase, CNOT and a seeded two-qubit unitary on 2 qubits, with 4 parameters."""
    z = np.random.default_rng(11).normal(size=(2, 4, 4))
    unitary = np.linalg.qr(z[0] + 1j * z[1])[0]
    return {
        "hamiltonian": [[0.4, "ZI"], [-0.3, "IX"], [0.2, "YY"]],
        "circuit": {"n_qubits": 2, "gates": [
            {"kind": "ry", "targets": [0], "param_index": 0},
            {"kind": "phase", "targets": [1], "param_index": 1},
            {"kind": "cnot", "targets": [0, 1]},
            {"kind": "unitary", "targets": [1, 0],
             "matrix": [[[v.real, v.imag] for v in row] for row in unitary.tolist()]},
            {"kind": "ry", "targets": [1], "param_index": 2},
            {"kind": "phase", "targets": [0], "param_index": 3},
        ]},
        "theta0": [0.3, -0.7, 1.1, 0.25],
        "eta": 0.07,
        "max_steps": 50,
    }


def echo_digests(tmp: Path) -> list[str]:
    lines = []
    for preset in PRESET_NAMES:
        lines += _run_json(tmp, preset, ["--preset", preset])
    config = tmp / "unitary.json"
    config.write_text(json.dumps(_unitary_config()), encoding="utf-8")
    return lines + _run_json(tmp, "unitary", ["--config", str(config)])


def _bad_configs() -> dict[str, object]:
    """Config documents (or raw text or bytes) that ``natvqe run`` must reject with exit 2."""
    good = _unitary_config()

    def with_gate(index: int, **fields) -> dict:
        gates = [dict(g) for g in good["circuit"]["gates"]]
        gates[index].update(fields)
        return dict(good, circuit=dict(good["circuit"], gates=gates))

    matrix = [[list(v) for v in row] for row in good["circuit"]["gates"][3]["matrix"]]
    matrix[1][2][0] = True
    huge = 10 ** 400  # an integer past the float range
    huge_matrix = [[list(v) for v in row] for row in matrix]
    huge_matrix[1][2][0] = huge
    nan_matrix, inf_matrix = ([[list(v) for v in row] for row in matrix] for _ in range(2))
    nan_matrix[1][2][0], inf_matrix[1][2][0] = float("nan"), float("inf")
    missing = dict(good)
    del missing["theta0"]
    no_matrix, no_targets = with_gate(3), with_gate(0)
    del no_matrix["circuit"]["gates"][3]["matrix"], no_targets["circuit"]["gates"][0]["targets"]
    return {
        "n-qubits-fraction": dict(good, circuit=dict(good["circuit"], n_qubits=2.9)),
        "target-text": with_gate(0, targets=["1"]),
        "param-index-bool": with_gate(1, param_index=True),
        "coefficient-text": dict(good, hamiltonian=[["0.4", "ZI"], [-0.3, "IX"]]),
        "matrix-entry-bool": with_gate(3, matrix=matrix),
        "missing-theta0": missing,
        "gate-missing-matrix": no_matrix,
        "gate-missing-targets": no_targets,
        "not-json": "{not json",
        "theta0-length": dict(good, theta0=[0.3, -0.7, 1.1]),
        # older trees exit 3 on these, and list every unused slot of the last one
        "huge-eta": dict(good, eta=huge),
        "huge-max-steps": dict(good, max_steps=huge),
        "huge-theta0-entry": dict(good, theta0=[0.3, huge, 1.1, 0.25]),
        "huge-coefficient": dict(good, hamiltonian=[[huge, "ZI"], [-0.3, "IX"]]),
        "huge-matrix-entry": with_gate(3, matrix=huge_matrix),
        # older trees exit 0 on these, with a nan energy
        "unitary-nan-entry": with_gate(3, matrix=nan_matrix),
        "unitary-infinite-entry": with_gate(3, matrix=inf_matrix),
        "5000-digit-literal": json.dumps(good).replace('"eta": 0.07', '"eta": 1' + "0" * 4999),
        "not-utf-8": b'{"eta": "\xff"}',
        # no larger: older trees build a set of every slot number below it
        "param-index-million": with_gate(4, param_index=10 ** 6),
    }


def config_error_digests(tmp: Path) -> list[str]:
    lines = []
    for label, doc in _bad_configs().items():
        config = tmp / f"bad-{label}.json"
        if isinstance(doc, dict):
            doc = json.dumps(doc)
        config.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        out = tmp / f"bad-{label}"
        code, _, err = _cli(["run", "--config", str(config), "--optimizer", "vanilla,natural",
                             "--out-dir", str(out)])
        err = err.replace(str(tmp), "<tmp>")
        lines.append(f"config-error {label} exit={code} wrote={out.exists()} "
                     f"stderr {sha(err.encode())}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="workload seeds for wide and landscape (default: 1 2)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        lines = (figures_digests(tmp) + plot_digests(tmp) + metric_digests() + echo_digests(tmp)
                 + listing_digests() + config_error_digests(tmp))
        for seed in args.seeds:
            lines += wide_digests(seed, tmp)
            lines += landscape_digests(seed, tmp)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
