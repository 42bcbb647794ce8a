#!/usr/bin/env python3
"""Run every built-in case study and render its figures.

Writes one trajectory CSV per (preset, optimizer), an energy-vs-iteration SVG
per preset, a theta-plane path SVG for the single-qubit presets, and prints a
steps-to-threshold table comparing the optimizers.
"""
import argparse
from pathlib import Path

from natvqe import OptimizerKind, compare, load_preset
from natvqe.cli import trajectory_plot, trajectory_to_csv

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
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for name, kinds in CASES.items():
        preset = load_preset(name)
        report = compare(preset, kinds, threshold=THRESHOLDS[name])
        print(f"\n== {name} (ground energy {preset.reference_energy:.6f}, "
              f"threshold {THRESHOLDS[name]}) ==")
        named_steps = []
        for kind, result in report.results.items():
            traj = result.trajectory
            csv_path = out / f"{name}_{kind.value}.csv"
            csv_path.write_text(trajectory_to_csv(traj), encoding="utf-8", newline="")
            named_steps.append((kind.value, traj.steps))
            hit = result.steps_to_threshold
            print(f"  {kind.value:10s} steps_to_threshold={hit if hit is not None else '>max':>6} "
                  f"final_energy={traj.final.energy:+.6f}")
        svg = trajectory_plot(named_steps, f"{name}: energy per iteration")
        (out / f"{name}_energy.svg").write_text(svg, encoding="utf-8", newline="")
        if preset.circuit.n_params == 2:
            svg = trajectory_plot(named_steps, f"{name}: parameter path", path=True)
            (out / f"{name}_path.svg").write_text(svg, encoding="utf-8", newline="")

    print(f"\nfigures written under {out}/")


if __name__ == "__main__":
    main()
