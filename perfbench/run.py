#!/usr/bin/env python3
"""natvqe benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Workloads: presets, landscape, wide (see perfbench/README.md for why each).
Each measurement runs in its own fresh Python process with BLAS held to one
thread. ``--trace 0`` times the workload and reports the end-to-end metrics;
setup_s is the median over several fresh processes. ``--trace 1`` runs one
pass untraced and the same pass traced, and reports the per-layer metrics.
Outputs are checked in both modes. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it repeat the metrics for people, with the machine facts. The exit code
is 0 when every check held, 1 when one failed, and 2 when nothing could run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("presets", "landscape", "wide")
SETUP_SAMPLES = 5  # fresh processes whose set-up time gives the setup_s median
DEADLINE_S = 175.0  # the whole command, all processes included
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, phase: str, deadline: float) -> dict:
    """Run worker.py to completion in a fresh process; return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--phase", phase]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ONE_THREAD},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise WorkerFailed(f"{phase} process ran past the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{phase} process exited {proc.returncode}")
    return json.loads(lines[-1])


def report(args, setups: list[float], rec: dict) -> None:
    """Print the metrics for people, then the result line."""
    print(f"natvqe benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("facts " + json.dumps(rec["facts"], sort_keys=True))
    metrics = dict(rec["metrics"])
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  setup_s samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
        if args.workload != "landscape":
            # one point here is one recorded trajectory iterate
            print(f"  {'steps_per_s':48s} {metrics['points_per_s']['value']:.6g} 1/s")
        extra = rec["extra"]
        print(f"  latency samples {extra['latency_samples']}, passes {extra['passes']:.2f}, "
              f"timed {extra['timed_s']:.2f} s")
    print(f"  {'failed_frac':48s} {rec['failed'] / rec['attempted']:.6g} "
          f"({rec['failed']} of {rec['attempted']} attempted)")
    if rec["undefined"]:
        print(f"  {'undefined_frac':48s} {rec['undefined'] / rec['attempted']:.6g} "
              f"({rec['undefined']} of {rec['attempted']} attempted stopped on "
              "MetricUndefinedError, as classical on qubit-a/qubit-b does today)")
    for message in rec["messages"][:10]:
        print(f"  failure: {message}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "natvqe" / "__init__.py").is_file():
        print(f"error: no natvqe sources under {ROOT / 'src'}; run from a natvqe checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        rec = spawn(args, "measure", deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, setups + [rec["setup_s"]], rec)
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
