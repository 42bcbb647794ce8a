#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke.py

1. Every correctness gate passes on real outputs and trips when it is handed a
   deliberately wrong expected value.
2. Each workload, at its smallest size (``--seconds 1``), prints every metric
   BENCHMARK.json names, with its unit, in both modes, and the report lines
   the end-to-end metrics of the workload; the traced counts are printed.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py exits
   non-zero without printing a result.

It takes about two minutes and exits non-zero on the first failure.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl
from natvqe import experiments, geometry, observables
from worker import run_units


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def gates(tmp: Path) -> None:
    # presets: the qubit-a rows of the README table, the known MetricUndefinedError
    # of classical on qubit-a, and bytes across two passes
    presets = wl.Presets(0, tmp)
    units = [u for u in presets.units() if u[0][0] == "qubit-a"]
    records, _ = run_units(presets, units, 0.0, 2)
    table = {key: v for key, v in wl.README_STEPS.items() if key[0] == "qubit-a"}
    expect(presets.check(records, table) == {}, "presets gates hold on qubit-a")
    expect(presets.undefined(records) == 2, "classical on qubit-a stops on MetricUndefinedError")
    wrong = {key: v + 1 for key, v in table.items()}
    expect(len(presets.check(records, wrong)) > 0, "steps-to-threshold gate trips on a wrong table")
    presets.known_undefined = frozenset()
    expect(len(presets.check(records, table)) > 0,
           "MetricUndefinedError gate trips where it is not known to happen")
    presets.known_undefined = wl.KNOWN_UNDEFINED
    ok = next(r for r in records[len(units):] if r.error is None)
    ok.data = (ok.data[0], "0" * 64)
    expect(len(presets.check(records, table)) > 0, "presets byte-identity gate trips on a wrong digest")

    # landscape: closed form, A >= F, 4F >= FC
    landscape = wl.Landscape(0, tmp)
    records, _ = run_units(landscape, landscape.units()[:40], 0.0, 1)
    expect(landscape.check(records) == {}, "landscape gates hold on 40 points")
    first = records[0]
    theta = landscape.points[first.unit][2]
    wrong = {first.unit: landscape.points[first.unit][3](theta) + 1e-6}
    expect(first.unit in {records[i].unit for i in landscape.check(records, wrong)},
           "closed-form gate trips on a wrong expected F")
    circ = experiments.single_qubit_ansatz()
    point = [0.4, 0.3]
    f = geometry.fubini_study_metric(circ, point).values
    a = geometry.ite_matrix(circ, point).values
    decomposition = observables.spectral_decompose(experiments.sigma_x_hamiltonian())
    fc = geometry.classical_fisher_metric(circ, point, decomposition).values
    expect(not wl.order_errors("A >= F", a, f), "A >= F holds at a single-qubit point")
    expect(bool(wl.order_errors("F >= A", f, a)), "order gate trips when F >= A is expected")
    expect(not wl.order_errors("4F >= FC", 4 * f, fc), "4F >= FC holds at a single-qubit point")
    expect(bool(wl.order_errors("0F >= FC", 0 * f, fc)), "order gate trips when 0F >= FC is expected")

    # wide: record-0 energy, variational bound, gradient, bytes across passes
    wide = wl.Wide(0, tmp)
    records, _ = run_units(wide, wide.units()[:1], 0.0, 2)
    oracles = {0: wide.oracles(0)}
    expect(wide.check(records, oracles) == {}, "wide gates hold on one circuit")
    for field, wrong in (("energy0", oracles[0]["energy0"] + 1e-6),
                         ("lam_min", oracles[0]["lam_min"] + 10.0),
                         ("fd_grad", -oracles[0]["fd_grad"])):
        bad = {0: {**oracles[0], field: wrong}}
        expect(len(wide.check(records, bad)) > 0, f"wide gate trips on a wrong {field}")
    energies, digests = records[1].data
    records[1].data = (energies, {**digests, "natural": "0" * 64})
    expect(len(wide.check(records, oracles)) > 0, "wide byte-identity gate trips on a wrong digest")


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def emission() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in ("landscape", "wide", "presets"):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)])
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-300:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace} prints the result keys")
            got = result["metrics"]
            expect(all(got.get(m["name"], {}).get("unit") == m["unit"] for m in names)
                   and len(got) == len(names),
                   f"{workload} trace={trace} emits every metric with its unit")
            report = proc.stdout
            if trace == 0:
                shown = ["setup_s", "points_per_s", "point_us_p50", "point_us_p99",
                         "peak_rss_mb", "failed_frac"]
                shown += [] if workload == "landscape" else ["steps_per_s"]
                expect(all(f"  {name} " in report for name in shown),
                       f"{workload} report shows {', '.join(shown)}")
            else:
                counts = {k: v["value"] for k, v in got.items()
                          if "_per_" in k and not k.endswith("_frac")}
                print(f"   {workload} counts: {counts}")
        if workload == "presets":
            expect(result["failed"] == 0 and "  undefined_frac " in report,
                   "presets reports the classical single-qubit MetricUndefinedError runs apart")


def bare_directory() -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=out) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=tmp)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py exits non-zero without a result when natvqe is absent")


def main() -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="smoke-", dir=out) as tmp:
        gates(Path(tmp))
    emission()
    bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()
