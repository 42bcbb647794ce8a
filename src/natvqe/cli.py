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

A config file holds one JSON problem document, in the schema that
``natvqe.experiments.Problem`` documents.  A ``--format json`` file's
``config`` is the ``Problem.to_json()`` of the problem that ran, ``--eta`` and
``--steps`` included, plus the settings a Problem does not hold: ``preset``,
``optimizer``, ``schedule`` (its kind), ``regularization`` and ``grad_tol``.
The fields of ``optimizers.TrajectoryStep`` are the one schema of a trajectory
record: the CSV columns are ``step``, then ``theta_1..theta_m``, then the
remaining fields in order, and a JSON step object has the same fields as keys.
Numbers are written in shortest round-trip form, so files are byte-stable and
parse back to the exact in-memory values.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .experiments import PRESET_NAMES, Problem, hardware_efficient_ansatz, load_preset
from .geometry import DEFAULT_RANK_TOL, MetricMatrix, check_tolerance, singularity_report
from .optimizers import (DEFAULT_POLICY, ConstantRate, EigenFloor, InverseStepRate, OptimizerKind,
                         PseudoInverse, Tikhonov, Trajectory, TrajectoryStep, check_limits,
                         metric_for, run)
from .states import AnsatzCircuit, check_parameters
from .svgplot import line_plot

OUT_DIR_ENV = "NATVQE_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_OPTIMIZER_NAMES = {k.value: k for k in OptimizerKind}
_SCHEDULES = {"constant": ConstantRate, "inverse": InverseStepRate}
_POLICIES = {"eigenfloor": EigenFloor, "tikhonov": Tikhonov, "pinv": PseudoInverse}
# --kind name -> (the rule whose metric is printed, the printed label)
_METRIC_NAMES = {
    "fs": (OptimizerKind.NATURAL_FS, "fubini_study"),
    "ite": (OptimizerKind.ITE, "ite_gram"),
    "classical": (OptimizerKind.NATURAL_CLASSICAL, "classical_fisher"),
}


class ConfigError(ValueError):
    """Bad command-line arguments or config file contents."""


# ---------------------------------------------------------------------------
# arguments

def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits or too deep
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _problem_from_args(args) -> Problem:
    """The problem that --preset xor --config names."""
    if (args.preset is None) == (args.config is None):
        raise ConfigError("provide exactly one of --preset or --config")
    doc = None if args.config is None else _load_config_file(args.config)
    try:
        if doc is None:
            return load_preset(args.preset)
        return Problem.from_json(doc, Path(args.config).stem)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _parse_theta(text: str, circ: AnsatzCircuit) -> np.ndarray:
    """The entries as a JSON list, checked as a config file's theta0 is."""
    try:
        entries = json.loads(f"[{text}]")
    except (ValueError, RecursionError):  # not JSON, or nested past the recursion limit
        raise ConfigError(f"bad theta {text!r}: each entry must be a finite JSON number") from None
    try:
        return check_parameters(circ, entries)
    except ValueError as exc:
        raise ConfigError(f"bad theta {text!r}: {exc}") from exc


def _out_dir(args) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with its newlines kept; an OSError names the path."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# trajectory serialization

# the record's fields after k and theta, in order: the CSV's last columns
_SCALAR_FIELDS = tuple(f.name for f in fields(TrajectoryStep))[2:]
_scalars = attrgetter(*_SCALAR_FIELDS)


def csv_header(n_params: int) -> str:
    return ",".join(["step", *(f"theta_{i + 1}" for i in range(n_params)), *_SCALAR_FIELDS])


def trajectory_to_csv(trajectory: Trajectory) -> str:
    lines = [csv_header(len(trajectory.steps[0].theta))]
    for s in trajectory.steps:
        values = (*s.theta, *_scalars(s))
        lines.append(",".join([str(s.k), *[repr(float(v)) for v in values]]))
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str) -> tuple[list[TrajectoryStep], int]:
    """Parse a trajectory CSV back into records; returns (steps, n_params)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("empty trajectory file")
    width = lines[0].count(",") + 1
    n_params = width - 1 - len(_SCALAR_FIELDS)
    if n_params < 1 or lines[0] != csv_header(n_params):
        raise ConfigError(f"unrecognized trajectory header: {lines[0]!r}")
    steps = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != width:
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
    doc = {"config": config_echo, "steps": [vars(s) for s in trajectory.steps],
           "terminal_reason": trajectory.terminal_reason.value}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def trajectory_plot(named_steps, title: str, path: bool = False) -> str:
    """SVG of (label, records) series: energy per iteration, or with ``path`` the
    (theta_1, theta_2) path with its start marked."""
    if path:
        series = [(label, [s.theta[0] for s in steps], [s.theta[1] for s in steps])
                  for label, steps in named_steps]
        return line_plot(series, title=title, xlabel="theta_1", ylabel="theta_2", markers=True)
    series = [(label, [float(s.k) for s in steps], [s.energy for s in steps])
              for label, steps in named_steps]
    return line_plot(series, title=title, xlabel="iteration", ylabel="energy")


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    problem = _problem_from_args(args)
    kinds = _parse_optimizers(args.optimizer)
    eta = args.eta if args.eta is not None else problem.eta
    max_steps = args.steps if args.steps is not None else problem.max_steps
    try:
        check_limits(max_steps, args.grad_tol)
        schedule = _SCHEDULES[args.schedule](eta)
        policy = _POLICIES[args.regularization](args.reg_epsilon)
        problem = replace(problem, eta=eta, max_steps=max_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = _out_dir(args)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory: {exc}") from exc

    # the problem that ran, plus the settings a Problem does not hold
    config_echo = problem.to_json()
    config_echo.update(
        preset=args.preset,
        schedule=args.schedule,
        regularization={"kind": args.regularization, "epsilon": args.reg_epsilon},
        grad_tol=args.grad_tol,
    )
    for kind in kinds:
        trajectory = run(kind, problem.hamiltonian, problem.circuit, problem.theta0, schedule,
                         policy, max_steps=problem.max_steps, grad_tol=args.grad_tol)
        config_echo["optimizer"] = kind.value
        path = out_dir / f"{problem.name}_{kind.value}.{args.format}"
        _write_text(path, trajectory_to_json(trajectory, config_echo)
                    if args.format == "json" else trajectory_to_csv(trajectory))
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


def _is_two_layer_ansatz(circ: AnsatzCircuit) -> bool:
    """Whether ``circ`` is ``hardware_efficient_ansatz()``, gate for gate."""
    def layout(c: AnsatzCircuit) -> tuple:
        return c.n_qubits, [(g.kind, g.targets, g.param_index) for g in c.gates]
    return layout(circ) == layout(hardware_efficient_ansatz())


def cmd_metric(args) -> int:
    problem = _problem_from_args(args)
    circ = problem.circuit
    theta = problem.theta0 if args.theta is None else _parse_theta(args.theta, circ)
    try:
        check_tolerance(args.rank_tol, "rank_tol")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    wanted = _METRIC_NAMES.values() if args.kind == "all" else (_METRIC_NAMES[args.kind],)
    for kind, label in wanted:
        metric = metric_for(kind, problem.hamiltonian, circ, theta)
        _print_metric(label, metric, args.rank_tol)
        if kind is OptimizerKind.NATURAL_FS and _is_two_layer_ansatz(circ):
            # two-layer couplings sit at (1,3) and (2,4); the product of the
            # coupling-block determinants vanishes exactly on product states
            f = metric.values
            indicator = float((1.0 - f[0, 2] ** 2) * (1.0 - f[1, 3] ** 2))
            print(f"  separability_indicator = {indicator!r}")
    return EXIT_OK


def cmd_plot(args) -> int:
    named_steps = []
    for path in args.trajectories:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        named_steps.append((Path(path).stem, parse_trajectory_csv(text)[0]))

    if args.path and any(len(steps[0].theta) != 2 for _, steps in named_steps):
        raise ConfigError("path plot requires 2 parameters")
    title = args.title or ("parameter path" if args.path else "energy per iteration")
    _write_text(args.out, trajectory_plot(named_steps, title, path=args.path))
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
                       help=f"comma list of: {', '.join(_OPTIMIZER_NAMES)}")
    p_run.add_argument("--eta", type=float, default=None, help="learning rate (preset default)")
    p_run.add_argument("--schedule", choices=tuple(_SCHEDULES), default="constant",
                       help="constant eta, or eta/k decay")
    p_run.add_argument("--steps", type=int, default=None, help="max update steps (preset default)")
    p_run.add_argument("--grad-tol", type=float, default=0.0,
                       help="stop when the gradient norm drops below this (0 disables)")
    p_run.add_argument("--regularization", choices=tuple(_POLICIES),
                       default="eigenfloor", help="metric inversion policy")
    p_run.add_argument("--reg-epsilon", type=float, default=DEFAULT_POLICY.epsilon,
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
    p_metric.add_argument("--kind", choices=(*_METRIC_NAMES, "all"), default="fs")
    p_metric.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
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
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
