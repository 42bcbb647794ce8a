"""One benchmark process: set up a workload, then time it or trace it.

``run.py`` starts this file in a fresh interpreter with BLAS held to one
thread. It imports natvqe from the checkout's ``src/``, builds the workload's
inputs from the seed, warms natvqe's caches and then either stops
(``--phase setup``) or measures (``--phase measure``). The last line of its
standard output is one JSON object for ``run.py``.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

START = time.perf_counter()  # setup_s counts from here: numpy and natvqe imports, inputs, warm-up
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import natvqe
import tracer as tracing
from workloads import WORKLOADS

if Path(natvqe.__file__).resolve().parent != ROOT / "src" / "natvqe":
    sys.exit(f"natvqe was imported from {natvqe.__file__}, not from this checkout's src/")


@dataclass
class Record:
    """One run of one unit: how long it took, what it produced, or why it failed."""

    unit: object
    seconds: float
    items: int
    data: object
    error: str | None


def run_units(workload, units, seconds: float, min_passes: int) -> tuple[list[Record], float]:
    """Run units in order, pass after pass, until ``min_passes`` passes are
    complete and ``seconds`` have gone by; stop at a unit boundary.

    Returns the records and the peak resident memory in MB at the end of the
    first pass: later passes repeat its work, and only the benchmark's own
    records keep growing, faster the faster natvqe runs.
    """
    records: list[Record] = []
    first_pass_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        key, fn = units[len(records) % len(units)]
        t0 = time.perf_counter()
        try:
            raw, error = fn(), None
        except Exception as exc:  # a failed unit is counted, and the pass goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        items, data = 0, None
        if error is None:
            try:
                items, data = workload.summarize(key, raw)
            except RuntimeError as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append(Record(key, elapsed, items, data, error))
        if len(records) == len(units):
            first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(records) >= min_passes * len(units) and time.perf_counter() - start >= seconds:
            return records, first_pass_rss_mb


def outcome(workload, records) -> tuple[int, bool, list[str]]:
    """(failed, correct, messages): raised units fail, failed checks fail and are incorrect."""
    check_errors = workload.check(records)
    messages = Counter(rec.error for rec in records if rec.error is not None)
    messages.update(msg for msgs in check_errors.values() for msg in msgs)
    failed = sum(1 for i, rec in enumerate(records) if rec.error is not None or i in check_errors)
    return failed, not check_errors, [f"{n} x {msg}" for msg, n in messages.most_common()]


def timing_metrics(records: list[Record], n_units: int, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of a timed run, and the figures only the report shows.

    Each unit's time is the median of its runs. Throughput is the points of one
    pass over the sum of those medians, so a run cut in mid-pass weighs every
    unit alike; the latency percentiles are taken over the units' median time
    per point, one sample for each unit that evaluated points without failing.
    """
    times: dict = {}
    for rec in records:
        times.setdefault(rec.unit, []).append(rec.seconds)
    median = {unit: statistics.median(v) for unit, v in times.items()}
    first_pass = records[:n_units]
    samples = [median[rec.unit] / rec.items * 1e6 for rec in first_pass
               if rec.error is None and rec.items]
    p50, p99 = np.percentile(samples, [50, 99])
    metrics = {
        "points_per_s": (sum(rec.items for rec in first_pass) / sum(median.values()), "1/s"),
        "point_us_p50": (float(p50), "us"),
        "point_us_p99": (float(p99), "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "latency_samples": len(samples),
        "passes": len(records) / n_units,
        "timed_s": sum(rec.seconds for rec in records),
    }
    return metrics, extra


def trace(workload, units, seed: int) -> tuple[list[Record], dict]:
    """One untraced pass, then the same pass traced; per-layer metrics of the traced one."""
    untraced, _ = run_units(workload, units, 0.0, 1)
    recorder = tracing.Tracer()
    with recorder.installed():
        origin = time.perf_counter()
        traced, _ = run_units(workload, units, 0.0, 1)
    wall = sum(rec.seconds for rec in traced)
    missing = tracing.required_calls_errors(recorder, workload.required, workload.name)
    if missing:
        raise RuntimeError("; ".join(missing))
    points = sum(rec.items for rec in traced) if workload.per_point else 0
    metrics = tracing.layer_metrics(recorder, wall, points)
    info = natvqe.observables.spectral_decompose.cache_info()
    metrics["observables.spectral_decompose.hit_frac"] = (
        info.hits / (info.hits + info.misses), "fraction")
    metrics["trace.overhead_frac"] = (wall / sum(rec.seconds for rec in untraced) - 1.0, "fraction")
    recorder.write_spans(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz", origin)
    return untraced + traced, metrics


def facts(args) -> dict:
    """Machine and run facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "process_threads": _thread_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _thread_count() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over natvqe's sources, which identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "natvqe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        workload.warm_up()
        setup_s = time.perf_counter() - START
        result = {"setup_s": setup_s}
        if args.phase == "measure":
            units = workload.units()
            if args.trace:
                records, metrics = trace(workload, units, args.seed)
                extra = {}
            else:
                records, rss_mb = run_units(workload, units, args.seconds, workload.min_passes)
                metrics, extra = timing_metrics(records, len(units), rss_mb)
            failed, correct, messages = outcome(workload, records)
            result.update(attempted=len(records), failed=failed, correct=correct,
                          undefined=workload.undefined(records), messages=messages,
                          extra=extra, facts=facts(args),
                          metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
            threads = result["facts"]["process_threads"]
            if threads not in (None, 1):
                raise RuntimeError(f"the workload ran {threads} threads; BLAS must hold to one")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
