#!/usr/bin/env python3
"""Steps to escape the ``h2-plateau`` saddle, from the preset start and from seeded starts near it.

At the preset start three of the four gradient components are round-off, so
round-off seeds the escape there (see the README).  This script runs natural,
vanilla and ITE at eta = 0.05 from theta0 + delta * u, for each delta in
``DELTAS`` and ten seeded unit directions u (each u is used by all three
optimizers; delta = 0 is one start), and counts the steps to within 0.05 of the
ground energy.  It prints one row per delta: the median [range] of each
optimizer's counts and in how many starts vanilla got there before natural.
It writes an SVG of the median counts against log10 delta.

    python3 scripts/plateau_escape.py --out-dir out/plateau
"""
import argparse
import dataclasses
from pathlib import Path

import numpy as np

from natvqe import OptimizerKind, compare, load_preset
from natvqe.svgplot import line_plot

KINDS = (OptimizerKind.NATURAL_FS, OptimizerKind.VANILLA, OptimizerKind.ITE)
DELTAS = (0.0, 1e-14, 1e-10, 1e-6, 1e-3)
THRESHOLD = 0.05
MAX_STEPS = 1000  # the largest count from these starts is 515; one not reached prints >1000


def directions(count: int) -> np.ndarray:
    """``count`` seeded unit vectors in the preset's 4-dimensional parameter space."""
    u = np.random.default_rng(0).normal(size=(count, 4))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def escape_steps(delta: float, units: np.ndarray) -> dict[OptimizerKind, list[float]]:
    """Each optimizer's steps to the threshold from theta0 + delta * u, one per row u
    (from theta0 alone if delta is 0); ``inf`` where it was not reached."""
    problem = load_preset("h2-plateau")
    theta0 = np.array(problem.theta0)
    starts = [theta0] if delta == 0.0 else [theta0 + delta * u for u in units]
    counts = {kind: [] for kind in KINDS}
    for start in starts:
        report = compare(dataclasses.replace(problem, theta0=tuple(start.tolist())), KINDS,
                         THRESHOLD, max_steps=MAX_STEPS)
        for kind, result in report.results.items():
            hit = result.steps_to_threshold
            counts[kind].append(float("inf") if hit is None else float(hit))
    return counts


def _count(value: float) -> str:
    return f">{MAX_STEPS}" if value == float("inf") else f"{value:g}"


def summary(counts: list[float]) -> str:
    """``median [low-high]``, or the one count of a single start."""
    if len(counts) == 1:
        return _count(counts[0])
    return f"{_count(np.median(counts))} [{_count(min(counts))}-{_count(max(counts))}]"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", default="out/plateau", help="output directory")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    units = directions(10)
    print(f"h2-plateau, eta 0.05, threshold {THRESHOLD}: steps from theta0 + delta*u")
    print("| delta | " + " | ".join(f"{k.value} median [range]" for k in KINDS)
          + " | vanilla first |")
    print("|-------|" + "---:|" * (len(KINDS) + 1))
    medians = {kind: [] for kind in KINDS}
    for delta in DELTAS:
        counts = escape_steps(delta, units)
        natural, vanilla = (np.array(counts[k]) for k in KINDS[:2])
        first = f"{np.count_nonzero(vanilla < natural)}/{len(natural)}"
        print(f"| {delta:g} | " + " | ".join(summary(counts[k]) for k in KINDS)
              + f" | {first} |")
        for kind in KINDS:
            medians[kind].append(float(np.median(counts[kind])))

    logs = [np.log10(d) for d in DELTAS[1:]]
    series = [(f"{kind.value} ({_count(medians[kind][0])} at delta = 0)", logs, medians[kind][1:])
              for kind in KINDS]
    svg = line_plot(series, title="h2-plateau: median steps to escape from theta0 + delta*u",
                    xlabel="log10 delta", ylabel="steps to threshold", markers=True)
    path = out / "plateau_escape.svg"
    path.write_text(svg, encoding="utf-8", newline="")
    print(f"\nplot written to {path}")


if __name__ == "__main__":
    main()
