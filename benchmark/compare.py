#!/usr/bin/env python3
"""Compare two sets of benchmark results (the files run.py writes under
<build dir>/results/) metric by metric.

  python3 benchmark/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Refuses (exit 2) when the sets' provenance stamps differ in anything that
makes timings incomparable: build type, sanitizer, SIMD path, core counts,
worker count, compiler, workload, size or trace mode. Commit, source digest
and seed may differ — that is what is being compared. Prints each side's
median, the change and the base side's quartile spread (a change smaller
than that spread is unresolved, not a gain); exits 1 when an end-to-end
metric got worse than its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as m  # noqa: E402

COMPARABLE = ("build_type", "sanitize", "simd", "hardware_concurrency", "nproc", "workers",
              "compiler", "workload", "size", "trace")


def load(path):
    with open(path) as f:
        return json.load(f)


def incomparable(base_paths, new_paths):
    """None when every file shares the comparability stamp, else a message."""
    stamps = [(p, load(p)["provenance"]) for p in base_paths + new_paths]
    ref_path, ref = stamps[0]
    for path, stamp in stamps[1:]:
        for key in COMPARABLE:
            if stamp.get(key) != ref.get(key):
                return f"{key}: {ref.get(key)!r} in {ref_path} != {stamp.get(key)!r} in {path}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    why = incomparable(args.base, args.new)
    if why:
        print(f"compare: refusing to compare result sets with different stamps: {why}",
              file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {x["name"]: x for x in bench["end_to_end"] + bench["per_layer"]}
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    worse = False
    print(f"{'metric':28s} {'base':>12s} -> {'new':>12s} {'unit':6s} {'change':>8s}  "
          "base spread (Q3-Q1)/median")
    for name in base[0]["metrics"]:
        base_values = [r["metrics"][name]["value"] for r in base]
        b = m.median(base_values)
        n = m.median([r["metrics"][name]["value"] for r in new])
        unit = base[0]["metrics"][name]["unit"]
        change = (n - b) / b if b else 0.0
        spread = m.quartile_spread(base_values) if len(base_values) >= 2 and b else 0.0
        bound = spec.get(name, {}).get("bound")
        lower = spec.get(name, {}).get("better", "lower") == "lower"
        regressed = bound is not None and (change > bound if lower else -change > bound)
        worse |= regressed
        print(f"{name:28s} {b:12.6g} -> {n:12.6g} {unit:6s} {change:+8.2%}  {spread:.3f}"
              f"{'  WORSE THAN BOUND' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
