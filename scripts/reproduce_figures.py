#!/usr/bin/env python3
"""Run every built-in case study and render its figures.

Writes one trajectory CSV per (preset, optimizer), an energy-vs-iteration SVG
per preset, a theta-plane path SVG for the single-qubit presets, and prints a
steps-to-threshold table comparing the optimizers.
"""
import argparse
from pathlib import Path

from natvqe import ConstantRate, DEFAULT_POLICY, OptimizerKind, compare, load_preset
from natvqe.cli import trajectory_to_csv
from natvqe.svgplot import line_plot

CASES = {
    "qubit-a": [OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS, OptimizerKind.ITE],
    "qubit-b": [OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS, OptimizerKind.ITE],
    "h2-a": [OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS],
    "h2-plateau": [OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS],
    "toy": [OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS],
}

THRESHOLDS = {"qubit-a": 0.01, "qubit-b": 0.01, "h2-a": 0.01, "h2-plateau": 0.05, "toy": 0.01}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/figures", help="output directory")
    parser.add_argument("--steps", type=int, default=None, help="override max steps for all runs")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for name, kinds in CASES.items():
        preset = load_preset(name)
        report = compare(preset, kinds, threshold=THRESHOLDS[name],
                         schedule=ConstantRate(preset.eta), policy=DEFAULT_POLICY,
                         max_steps=args.steps)
        energy_series = []
        path_series = []
        print(f"\n== {name} (ground energy {preset.reference_energy:.6f}, "
              f"threshold {THRESHOLDS[name]}) ==")
        for kind, result in report.results.items():
            traj = result.trajectory
            csv_path = out / f"{name}_{kind.value}.csv"
            csv_path.write_text(trajectory_to_csv(traj), encoding="utf-8", newline="")
            energy_series.append((kind.value, [s.k for s in traj.steps],
                                  [s.energy for s in traj.steps]))
            if preset.circuit.n_params == 2:
                path_series.append((kind.value, [s.theta[0] for s in traj.steps],
                                    [s.theta[1] for s in traj.steps]))
            hit = result.steps_to_threshold
            print(f"  {kind.value:10s} steps_to_threshold={hit if hit is not None else '>max':>6} "
                  f"final_energy={traj.final.energy:+.6f}")
        svg = line_plot(energy_series, title=f"{name}: energy per iteration",
                        xlabel="iteration", ylabel="energy")
        (out / f"{name}_energy.svg").write_text(svg, encoding="utf-8", newline="")
        if path_series:
            svg = line_plot(path_series, title=f"{name}: parameter path",
                            xlabel="theta_1", ylabel="theta_2", markers=True)
            (out / f"{name}_path.svg").write_text(svg, encoding="utf-8", newline="")

    print(f"\nfigures written under {out}/")


if __name__ == "__main__":
    main()
