#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write the comparison as JSON.

    git archive <parent> | tar -x -C /tmp/parent
    git ls-files | tar -cf - -T - | tar -x -C /tmp/change
    python3 scripts/bench_pairs.py /tmp/parent /tmp/change --out BENCH_<N>.json

Each checkout is byte-compiled (``compileall``) and imports natvqe once before
the first pair. For each workload of the change checkout's ``BENCHMARK.json``,
``perfbench/run.py --seed 1 --trace 0`` runs in each checkout 10 times for the
file's ``run_seconds``, the parent first in even-numbered pairs and the change
first in odd ones. The end-to-end metrics, their direction and their bounds are
read from the same file. Per metric the
file gives numpy's 25/50/75 percentiles per side; ``change_wins``, the pairs in
which the change is better (ties count for neither side); ``worse_frac``, the
change median's relative gap to the parent's in the direction of worse
(negative is better) and whether it is within the bound; and ``resolved``,
whether both sides' interquartile range, relative to their median, is within
the bound. Each workload also lists its ``problems``: a run that exited
non-zero or was not correct, a metric that lacks a value from some run, or a
larger share of failed operations on the change's side. The script exits 1 if
any workload has a problem or any median is outside its bound. Nothing under
``perfbench/`` is imported.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

PAIRS = 10
SEED = 1
METHOD = (
    "Parent and change run from their own directories, each byte-compiled with compileall and "
    "holding one natvqe import before the first pair. {pairs} pairs per workload of "
    "{seconds:g} s runs, the parent first in even-numbered pairs and the change first in odd "
    "ones, workloads in the order {workloads}, one session. Quartiles are numpy percentiles "
    "25/50/75 over each side's runs; change_wins counts the pairs in which the change is better "
    "(ties count for neither); worse_frac is the change median's relative gap to the parent's "
    "in the direction of worse (negative = better); resolved is true when both sides' IQR, "
    "relative to their median, is within the bound. Written by scripts/bench_pairs.py."
)


def prepare(checkout: Path) -> None:
    """Byte-compile the checkout and import natvqe from it once."""
    for cmd in ([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import natvqe"]):
        subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)


def bench(checkout: Path, workload: str, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its exit code, result line and facts line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    facts = next((json.loads(ln[len("facts "):]) for ln in lines if ln.startswith("facts ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"exit": proc.returncode, "result": result, "facts": facts}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 4), "median": round(float(median), 4), "q3": round(float(q3), 4)}


def failed_share(results: list[dict]) -> float:
    attempted = sum(r.get("attempted") or 0 for r in results)
    return sum(r.get("failed") or 0 for r in results) / attempted if attempted else 0.0


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The per-metric summary of the two sides' runs, pair i being (parent[i], change[i])."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    parent_iqr = p["q3"] - p["q1"]
    parent_iqr_frac = parent_iqr / p["median"]
    change_iqr_frac = (c["q3"] - c["q1"]) / c["median"]
    worse_frac = sign * (c["median"] - p["median"]) / p["median"]
    bound = metric["bound"]
    return {
        "parent": p, "change": c, "change_wins": f"{wins}/{len(parent)}",
        "parent_iqr": round(parent_iqr, 4), "parent_iqr_frac": round(parent_iqr_frac, 4),
        "change_iqr_frac": round(change_iqr_frac, 4), "worse_frac": round(worse_frac, 4),
        "bound": bound, "within_bound": worse_frac <= bound,
        "resolved": parent_iqr_frac <= bound and change_iqr_frac <= bound,
        "runs": {"parent": parent, "change": change},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--note", action="append", default=[], metavar="KEY=TEXT",
                        help="a top-level field of the output, such as what=... or claim=...")
    args = parser.parse_args()
    notes = dict(note.split("=", 1) for note in args.note)  # a note without '=' fails here

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        prepare(checkout)

    end_to_end = {}
    for workload in workloads:
        runs = {side: [] for side in sides}
        order = []
        for i in range(PAIRS):
            first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(first[0])
            for side in first:
                runs[side].append(bench(sides[side], workload, seconds))
                print(f"{workload} pair {i + 1}/{PAIRS} {side}: exit {runs[side][-1]['exit']}",
                      file=sys.stderr, flush=True)
        facts = runs["change"][0]["facts"]
        machine = {key: facts.get(key) for key in
                   ("cpu_count", "cpu_model", "python", "numpy", "blas", "blas_threads")}
        results = {side: [r["result"] for r in rs] for side, rs in runs.items()}
        entry = {
            "pairs": PAIRS, "first_in_pair": order,
            "exit": {side: [r["exit"] for r in rs] for side, rs in runs.items()},
            "failed": {side: [r.get("failed") for r in rs] for side, rs in results.items()},
            "attempted": {side: [r.get("attempted") for r in rs] for side, rs in results.items()},
            "correct": {side: all(r.get("correct") for r in rs) for side, rs in results.items()},
            "problems": [],
            "metrics": {},
        }
        for side in sides:
            if any(code != 0 for code in entry["exit"][side]):
                entry["problems"].append(f"a {side} run exited non-zero")
            if not entry["correct"][side]:
                entry["problems"].append(f"a {side} run was not correct")
        if failed_share(results["change"]) > failed_share(results["parent"]):
            entry["problems"].append("the change fails a larger share of operations")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs if name in r.get("metrics", {})]
                      for side, rs in results.items()}
            if len(values["parent"]) == len(values["change"]) == PAIRS:
                entry["metrics"][name] = compare(metric, values["parent"], values["change"])
            else:
                entry["problems"].append(f"{name} has {len(values['parent'])} parent and "
                                         f"{len(values['change'])} change values of {PAIRS}")
        end_to_end[f"{workload}/seed{SEED}"] = entry
        # written after each workload, so an interrupted run keeps what it measured
        doc = {
            **notes,
            # a git archive holds no .git, so the commit may come as a note
            "parent_commit": notes.get("parent_commit",
                                       runs["parent"][0]["facts"].get("git_commit")),
            "command": f"python3 perfbench/run.py --workload <{'|'.join(workloads)}> "
                       f"--seed {SEED} --seconds {seconds:g} --trace 0",
            "method": METHOD.format(pairs=PAIRS, seconds=seconds,
                                    workloads=", ".join(workloads)),
            "machine": machine,
            "rounds": [{"round": "committed", "end_to_end": end_to_end}],
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    ok = all(not e["problems"] and all(m["within_bound"] for m in e["metrics"].values())
             for e in end_to_end.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
