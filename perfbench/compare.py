#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py
(`<workload>-seed<N>-trace<T>.json`, e.g. a copy of perfbench/out/).
Runs are paired by workload, trace mode and seed. The comparison refuses
(exit 2) to pair runs whose environment stamps differ: nproc, SIMD
backend, preset, node thread budget, node count or window length. A run
under HEAP_SIMD=scalar never pairs with a native one. For each metric it
prints both medians and the change; end-to-end metrics are checked
against their bounds in BENCHMARK.json (exit 1 when one is exceeded).
"""

import glob
import json
import os
import statistics
import sys

ENV_KEYS = ["nproc", "simd", "preset", "node_threads", "nodes", "seconds"]


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json"))):
        with open(path) as fh:
            run = json.load(fh)
        s = run["stamp"]
        runs[(s["workload"], s["trace"], s["seed"])] = run
    return runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    pairs = sorted(set(base) & set(new))
    if not pairs:
        sys.exit("no runs to pair (same workload, trace mode and seed on both sides)")
    for key in pairs:
        a, b = base[key]["stamp"], new[key]["stamp"]
        diff = [k for k in ENV_KEYS if a.get(k) != b.get(k)]
        if diff:
            print(f"refusing to pair {key}: stamps differ in "
                  + ", ".join(f"{k} ({a.get(k)} vs {b.get(k)})" for k in diff))
            sys.exit(2)

    exceeded = False
    groups = sorted({(w, t) for w, t, _ in pairs})
    for workload, trace in groups:
        keys = [k for k in pairs if k[:2] == (workload, trace)]
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, {len(keys)} seeds, "
              f"{base[keys[0]]['stamp']['source'][:12]} -> {new[keys[0]]['stamp']['source'][:12]})")
        names = base[keys[0]]["result"]["metrics"].keys()
        for name in names:
            va = [base[k]["result"]["metrics"][name]["value"] for k in keys]
            vb = [new[k]["result"]["metrics"][name]["value"] for k in keys]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounds:
                ok = worse <= bounds[name]
                exceeded |= not ok
                verdict = f"  bound {bounds[name]:.2f}: {'ok' if ok else 'EXCEEDED'}"
            unit = base[keys[0]]["result"]["metrics"][name]["unit"]
            print(f"  {name:28s} {ma:14.4f} -> {mb:14.4f} {unit:6s} {change:+8.2%}{verdict}")
    sys.exit(1 if exceeded else 0)


if __name__ == "__main__":
    main()
