#!/usr/bin/env python3
"""Per-call costs from a spans file that ``run.py --trace 1`` wrote.

    python3 perfbench/percall.py perfbench/out/spans-presets-seed1.jsonl.gz --preset h2-a

prints, for each traced name, its call count and mean time per call (with and
without its child spans), and for each optimizer the mean time per recorded
iterate. ``--preset`` keeps only the spans under that preset's
``experiments.compare`` call. Times include the tracer's own cost, about a
microsecond per span.
"""
import argparse
import gzip
import json
from collections import defaultdict


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("spans")
    parser.add_argument("--preset", default=None)
    args = parser.parse_args()

    with gzip.open(args.spans, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    # which preset each span ran under; parents always precede children
    preset = {}
    for s in spans:
        here = s["note"] if s["name"] == "experiments.compare" else None
        preset[s["id"]] = here or preset.get(s["parent"])

    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    step_s, steps = defaultdict(float), defaultdict(int)
    for s in spans:
        if args.preset is not None and preset[s["id"]] != args.preset:
            continue
        duration = s["end"] - s["start"]
        calls[s["name"]] += 1
        total[s["name"]] += duration
        own[s["name"]] += duration - child[s["id"]]
        if s["name"] == "optimizers.run" and s["note"] is not None:
            kind, iterates = s["note"]
            step_s[kind] += duration
            steps[kind] += iterates
    print(f"{'name':36s} {'calls':>8s} {'us/call':>10s} {'self us/call':>13s}")
    for name in sorted(calls):
        n = calls[name]
        print(f"{name:36s} {n:8d} {total[name] / n * 1e6:10.1f} {own[name] / n * 1e6:13.1f}")
    for kind in sorted(steps):
        print(f"optimizers.run[{kind}] {step_s[kind] / steps[kind] * 1e6:.1f} us per iterate "
              f"over {steps[kind]} iterates")


if __name__ == "__main__":
    main()
