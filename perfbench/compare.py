#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, per workload.

    python3 perfbench/compare.py --base A/*.json --new B/*.json

Each file is a result-trace<0|1>.json that run.py writes under
.bench_build/out/<workload>-seed<seed>/. For every workload and metric it
prints each side's median and quartiles and a verdict against the bound in
BENCHMARK.json (end-to-end metrics only; per-layer metrics have no bound):

  worse       the new median is worse than the base median by more than
              the bound
  unresolved  the base's own quartile spread is wider than the bound, and
              not every new run beats every base run
  ok          otherwise

Refuses (exit 2) to compare runs whose recorded build type, hardware
thread count or compiler differ: such numbers are not comparable.
Exit 1 if any metric is worse.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_KEYS = ("build_type", "hardware_threads", "compiler")


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)

    envs = {json.dumps({k: r["environment"][k] for k in ENV_KEYS},
                       sort_keys=True) for r in base + new}
    if len(envs) != 1:
        print("refused: runs were made in different environments:",
              file=sys.stderr)
        for e in sorted(envs):
            print("  " + e, file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    keys = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in keys:
        b_runs = [r for r in base if (r["workload"], r["trace"]) ==
                  (workload, trace)]
        n_runs = [r for r in new if (r["workload"], r["trace"]) ==
                  (workload, trace)]
        if not b_runs or not n_runs:
            print("%s trace=%d: missing on one side" % (workload, trace))
            continue
        print("== %s trace=%d (%d base / %d new runs) ==" %
              (workload, trace, len(b_runs), len(n_runs)))
        for name, m in metrics.items():
            bs = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            ns = [r["metrics"][name] for r in n_runs if name in r["metrics"]]
            if not bs or not ns:
                continue
            b_lo, b_med, b_hi = quartiles(bs)
            n_lo, n_med, n_hi = quartiles(ns)
            sign = 1 if m["better"] == "lower" else -1
            verdict = ""
            if "bound" in m and b_med:
                change = sign * (n_med - b_med) / abs(b_med)
                spread = (b_hi - b_lo) / abs(b_med)
                all_better = (max(ns) < min(bs) if sign > 0
                              else min(ns) > max(bs))
                if change > m["bound"]:
                    verdict, worse = "worse", True
                elif spread > m["bound"] and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print("  %-30s base %12.6g [%.6g, %.6g]  new %12.6g [%.6g, "
                  "%.6g] %s" % (name, b_med, b_lo, b_hi, n_med, n_lo, n_hi,
                                verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
