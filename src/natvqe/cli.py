"""Command-line frontend: run optimizers, inspect metrics, plot trajectories.

Subcommands
-----------
run      optimize a preset or a config-file problem, writing one trajectory
         file (CSV or JSON) per optimizer
metric   print a metric matrix and its singularity diagnostics at a point
plot     render trajectory CSVs as an energy-vs-step SVG, or as a
         two-parameter path plot with --path
presets  list built-in preset names

Exit codes: 0 success, 2 configuration error, 3 runtime/output error.

Config file (JSON) for custom problems::

    {
      "hamiltonian": [[0.4, "ZI"], [0.4, "IZ"], [0.2, "XX"]],
      "circuit": {"n_qubits": 2, "gates": [
          {"kind": "ry", "targets": [0], "param_index": 0},
          {"kind": "ry", "targets": [1], "param_index": 1},
          {"kind": "cnot", "targets": [0, 1]},
          {"kind": "phase", "targets": [0], "param_index": 2},
          {"kind": "unitary", "targets": [0], "matrix": [[[0,0],[1,0]],[[1,0],[0,0]]]}
      ]},
      "theta0": [0.1, 0.2, 0.3],
      "eta": 0.05, "max_steps": 200
    }

Gate kinds: "ry" (y-rotation by twice the parameter), "phase"
(diag(1, e^{2i*theta})), "cnot" (targets = [control, target]), "unitary"
(explicit matrix; entries are [re, im] pairs).  The trajectory CSV header is
``step,theta_1,...,theta_m,energy,grad_norm,det_metric,min_eig_metric`` and
numbers are written in shortest round-trip form, so files are byte-stable and
parse back to the exact in-memory values.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .experiments import PRESET_NAMES, load_preset
from .geometry import (
    MetricMatrix,
    MetricUndefinedError,
    classical_fisher_metric,
    fubini_study_metric,
    ite_matrix,
    singularity_report,
)
from .observables import PauliHamiltonian, pauli_sum, spectral_decompose
from .optimizers import (
    ConstantRate,
    EigenFloor,
    InverseStepRate,
    OptimizerKind,
    PseudoInverse,
    Tikhonov,
    Trajectory,
    TrajectoryStep,
    run,
)
from .states import AnsatzCircuit, Gate, GateKind, circuit
from .svgplot import line_plot

OUT_DIR_ENV = "NATVQE_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_OPTIMIZER_NAMES = {k.value: k for k in OptimizerKind}


class ConfigError(ValueError):
    """Bad command-line arguments or config file contents."""


# ---------------------------------------------------------------------------
# config parsing

def _parse_gate(entry: dict) -> Gate:
    try:
        kind = GateKind(entry["kind"])
        targets = tuple(int(t) for t in entry["targets"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad gate entry {entry!r}: {exc}") from exc
    param = entry.get("param_index")
    matrix = None
    if kind is GateKind.UNITARY:
        try:
            rows = entry["matrix"]
            matrix = np.array([[complex(re, im) for re, im in row] for row in rows])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad unitary matrix in gate {entry!r}") from exc
    try:
        return Gate(kind, targets, None if param is None else int(param), matrix)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_circuit(entry: dict) -> AnsatzCircuit:
    try:
        n_qubits = int(entry["n_qubits"])
        gates = [_parse_gate(g) for g in entry["gates"]]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"circuit entry needs n_qubits and gates: {exc}") from exc
    try:
        circ = circuit(n_qubits, gates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if circ.n_params == 0:
        raise ConfigError("circuit has no parameterized gate")
    return circ


def _parse_hamiltonian(terms, n_qubits: int) -> PauliHamiltonian:
    try:
        return pauli_sum(n_qubits, [(float(c), str(s)) for c, s in terms])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hamiltonian terms: {exc}") from exc


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _problem_from_args(args) -> tuple[str, PauliHamiltonian, AnsatzCircuit, tuple[float, ...], dict]:
    """Resolve (name, hamiltonian, circuit, theta0, defaults) from --preset xor --config."""
    if (args.preset is None) == (args.config is None):
        raise ConfigError("provide exactly one of --preset or --config")
    if args.preset is not None:
        try:
            preset = load_preset(args.preset)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        defaults = {"eta": preset.eta, "max_steps": preset.max_steps, "preset": preset.name}
        return preset.name, preset.hamiltonian, preset.circuit, preset.theta0, defaults
    doc = _load_config_file(args.config)
    try:
        circ = _parse_circuit(doc["circuit"])
        hamiltonian = _parse_hamiltonian(doc["hamiltonian"], circ.n_qubits)
        theta0 = tuple(float(x) for x in doc["theta0"])
    except KeyError as exc:
        raise ConfigError(f"config file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config file: {exc}") from exc
    defaults = {
        "eta": float(doc.get("eta", 0.05)),
        "max_steps": int(doc.get("max_steps", 100)),
        "preset": None,
    }
    return Path(args.config).stem, hamiltonian, circ, theta0, defaults


def _parse_optimizers(text: str) -> list[OptimizerKind]:
    kinds = []
    for name in text.split(","):
        name = name.strip()
        if name not in _OPTIMIZER_NAMES:
            raise ConfigError(
                f"unknown optimizer {name!r}; choose from {', '.join(_OPTIMIZER_NAMES)}"
            )
        kinds.append(_OPTIMIZER_NAMES[name])
    return kinds


def _parse_theta(text: str, n_params: int) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad theta value: {exc}") from exc
    if len(values) != n_params:
        raise ConfigError(f"theta needs {n_params} component(s), got {len(values)}")
    return values


def _schedule_from_args(args, eta: float):
    if args.schedule == "constant":
        return ConstantRate(eta)
    return InverseStepRate(eta)


def _policy_from_args(args):
    if args.regularization == "tikhonov":
        return Tikhonov(args.reg_epsilon)
    if args.regularization == "pinv":
        return PseudoInverse(args.reg_epsilon)
    return EigenFloor(args.reg_epsilon)


def _out_dir(args) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


# ---------------------------------------------------------------------------
# trajectory serialization

def csv_header(n_params: int) -> str:
    thetas = ",".join(f"theta_{i + 1}" for i in range(n_params))
    return f"step,{thetas},energy,grad_norm,det_metric,min_eig_metric"


def trajectory_to_csv(trajectory: Trajectory) -> str:
    n_params = len(trajectory.steps[0].theta)
    lines = [csv_header(n_params)]
    for s in trajectory.steps:
        fields = [str(s.k)]
        fields += [repr(float(v)) for v in s.theta]
        fields += [repr(float(s.energy)), repr(float(s.grad_norm)),
                   repr(float(s.det_metric)), repr(float(s.min_eig_metric))]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str) -> tuple[list[TrajectoryStep], int]:
    """Parse a trajectory CSV back into records; returns (steps, n_params)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("empty trajectory file")
    header = lines[0].split(",")
    tail = ["energy", "grad_norm", "det_metric", "min_eig_metric"]
    if header[:1] != ["step"] or header[-4:] != tail or len(header) < 6:
        raise ConfigError(f"unrecognized trajectory header: {lines[0]!r}")
    n_params = len(header) - 5
    steps = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"malformed trajectory row: {ln!r}")
        try:
            k = int(parts[0])
            values = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise ConfigError(f"malformed trajectory row: {ln!r}") from exc
        steps.append(TrajectoryStep(k, tuple(values[:n_params]), *values[n_params:]))
    if not steps:
        raise ConfigError("trajectory file has no data rows")
    return steps, n_params


def trajectory_to_json(trajectory: Trajectory, config_echo: dict) -> str:
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


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    name, hamiltonian, circ, theta0, defaults = _problem_from_args(args)
    kinds = _parse_optimizers(args.optimizer)
    eta = args.eta if args.eta is not None else defaults["eta"]
    max_steps = args.steps if args.steps is not None else defaults["max_steps"]
    schedule = _schedule_from_args(args, eta)
    policy = _policy_from_args(args)

    out_dir = _out_dir(args)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    for kind in kinds:
        trajectory = run(kind, hamiltonian, circ, theta0, schedule, policy,
                         max_steps=max_steps, grad_tol=args.grad_tol)
        config_echo = {
            "preset": defaults["preset"],
            "hamiltonian": [[c, s] for c, s in hamiltonian.terms],
            "circuit": {
                "n_qubits": circ.n_qubits,
                "gates": [
                    {
                        "kind": g.kind.value,
                        "targets": list(g.targets),
                        **({"param_index": g.param_index} if g.param_index is not None else {}),
                    }
                    for g in circ.gates
                ],
            },
            "theta0": list(theta0),
            "optimizer": kind.value,
            "schedule": {"kind": args.schedule, "eta": eta},
            "regularization": {"kind": args.regularization, "epsilon": args.reg_epsilon},
            "max_steps": max_steps,
            "grad_tol": args.grad_tol,
        }
        ext = "json" if args.format == "json" else "csv"
        path = out_dir / f"{name}_{kind.value}.{ext}"
        text = (
            trajectory_to_json(trajectory, config_echo)
            if args.format == "json"
            else trajectory_to_csv(trajectory)
        )
        try:
            path.write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        final = trajectory.final
        print(f"{path}  steps={final.k}  final_energy={final.energy!r}  "
              f"terminal={trajectory.terminal_reason.value}")
    return EXIT_OK


def _format_matrix(values: np.ndarray) -> str:
    rows = []
    for row in values:
        rows.append("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
    return "\n".join(rows)


def _print_metric(label: str, metric: MetricMatrix, rank_tol: float) -> None:
    report = singularity_report(metric, rank_tol)
    print(f"{label}:")
    print(_format_matrix(metric.values))
    print(f"  determinant    = {report.determinant!r}")
    print(f"  min_eigenvalue = {report.min_eigenvalue!r}")
    print(f"  rank           = {report.rank}")
    print(f"  is_singular    = {report.is_singular}")


def cmd_metric(args) -> int:
    name, hamiltonian, circ, theta0, _ = _problem_from_args(args)
    theta = _parse_theta(args.theta, circ.n_params) if args.theta else theta0
    wanted = ("fs", "ite", "classical") if args.kind == "all" else (args.kind,)
    for kind in wanted:
        if kind == "fs":
            metric = fubini_study_metric(circ, theta)
            _print_metric("fubini_study", metric, args.rank_tol)
            if circ.n_qubits == 2 and circ.n_params == 4:
                # two-layer couplings sit at (1,3) and (2,4); the product of the
                # coupling-block determinants vanishes exactly on product states
                f = metric.values
                indicator = float((1.0 - f[0, 2] ** 2) * (1.0 - f[1, 3] ** 2))
                print(f"  separability_indicator = {indicator!r}")
        elif kind == "ite":
            _print_metric("ite_gram", ite_matrix(circ, theta), args.rank_tol)
        else:
            try:
                metric = classical_fisher_metric(circ, theta, spectral_decompose(hamiltonian))
            except MetricUndefinedError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_RUNTIME
            _print_metric("classical_fisher", metric, args.rank_tol)
    return EXIT_OK


def cmd_plot(args) -> int:
    parsed = []
    for path in args.trajectories:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        steps, n_params = parse_trajectory_csv(text)
        parsed.append((Path(path).stem, steps, n_params))

    if args.path:
        if any(n_params != 2 for _, _, n_params in parsed):
            print("error: path plot requires 2 parameters", file=sys.stderr)
            return EXIT_CONFIG
        series = [
            (label, [s.theta[0] for s in steps], [s.theta[1] for s in steps])
            for label, steps, _ in parsed
        ]
        svg = line_plot(series, title=args.title or "parameter path",
                        xlabel="theta_1", ylabel="theta_2", markers=True)
    else:
        series = [
            (label, [float(s.k) for s in steps], [s.energy for s in steps])
            for label, steps, _ in parsed
        ]
        svg = line_plot(series, title=args.title or "energy per iteration",
                        xlabel="iteration", ylabel="energy")
    try:
        Path(args.out).write_text(svg, encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(args.out)
    return EXIT_OK


def cmd_presets(args) -> int:
    for name in PRESET_NAMES:
        preset = load_preset(name)
        print(f"{name:12s} qubits={preset.circuit.n_qubits} params={preset.circuit.n_params} "
              f"eta={preset.eta} max_steps={preset.max_steps} "
              f"ground_energy={preset.reference_energy:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natvqe",
        description="Gradient, natural-gradient, and imaginary-time optimizers "
                    "for small variational eigensolver problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p):
        p.add_argument("--preset", help=f"built-in problem ({', '.join(PRESET_NAMES)})")
        p.add_argument("--config", help="JSON config file with hamiltonian/circuit/theta0")

    p_run = sub.add_parser("run", help="optimize and write trajectory files")
    add_problem_args(p_run)
    p_run.add_argument("--optimizer", default="vanilla",
                       help="comma list of: vanilla, natural, ite, classical")
    p_run.add_argument("--eta", type=float, default=None, help="learning rate (preset default)")
    p_run.add_argument("--schedule", choices=("constant", "inverse"), default="constant",
                       help="constant eta, or eta/k decay")
    p_run.add_argument("--steps", type=int, default=None, help="max update steps (preset default)")
    p_run.add_argument("--grad-tol", type=float, default=0.0,
                       help="stop when the gradient norm drops below this (0 disables)")
    p_run.add_argument("--regularization", choices=("eigenfloor", "tikhonov", "pinv"),
                       default="eigenfloor", help="metric inversion policy")
    p_run.add_argument("--reg-epsilon", type=float, default=1e-10,
                       help="floor/shift (or relative cut for pinv)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--out-dir", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
    p_run.set_defaults(func=cmd_run)

    p_metric = sub.add_parser("metric", help="print metric matrices at a parameter point")
    # let "--theta -0.2,-0.2,0,0" parse: treat leading-minus numeric lists as values
    p_metric._negative_number_matcher = re.compile(r"^-(\d+\.?|\.\d).*$")
    add_problem_args(p_metric)
    p_metric.add_argument("--theta", default=None, help="comma-separated parameter values")
    p_metric.add_argument("--kind", choices=("fs", "ite", "classical", "all"), default="fs")
    p_metric.add_argument("--rank-tol", type=float, default=1e-9)
    p_metric.set_defaults(func=cmd_metric)

    p_plot = sub.add_parser("plot", help="render trajectory CSVs as SVG")
    p_plot.add_argument("trajectories", nargs="+", help="trajectory CSV files")
    p_plot.add_argument("--out", default="plot.svg", help="output SVG path")
    p_plot.add_argument("--path", action="store_true",
                        help="plot the theta-plane path (2-parameter problems)")
    p_plot.add_argument("--title", default=None)
    p_plot.set_defaults(func=cmd_plot)

    p_presets = sub.add_parser("presets", help="list built-in presets")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
