#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --trace-overhead

Run from the repository root. Each set runs every workload of
BENCHMARK.json once per seed (set 1 uses seeds 1..10, set 2 seeds
101..110) for its run_seconds. Per workload and end-to-end metric it prints
each set's median and quartiles (statistics.quantiles, n=4), the quartile
spread as a share of the median, and set 2's median shift from set 1's
(signed, positive = larger); the sets agree when the shift's size is
within the metric's bound. The failed share of operations must match
exactly.
--trace-overhead instead runs one untraced and one traced run per
workload on the same seed and prints the traced run's throughput loss.
Exits 1 when any spread (setup_s aside) or median shift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # per set


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs not correct")
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace-overhead", action="store_true")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    if args.trace_overhead:
        for w in workloads:
            plain = run(w, 1, seconds, 0)["metrics"]["ops_per_cpu_s"]["value"]
            traced = run(w, 1, seconds, 1)["metrics"]["trace_ops_per_cpu_s"]["value"]
            print(f"{w:16s} ops_per_cpu_s {plain:12.1f}  traced {traced:12.1f}  "
                  f"overhead {100 * (1 - traced / plain):6.1f}%")
        return 0

    ok = True
    for w in workloads:
        sets = []
        for base in (0, 100):
            sets.append([run(w, base + i, seconds, 0)
                         for i in range(1, RUNS + 1)])
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        same_share = len(shares[0] | shares[1]) == 1
        ok &= same_share
        print(f"== {w}: failed share {sorted(shares[0] | shares[1])}"
              f"{'' if same_share else '  MISMATCH'}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            s1 = summary([r["metrics"][name]["value"] for r in sets[0]])
            s2 = summary([r["metrics"][name]["value"] for r in sets[1]])
            shift = (s2[1] - s1[1]) / s1[1]
            spread_ok = name == "setup_s" or max(s1[3], s2[3]) <= bound
            agree = abs(shift) <= bound
            ok &= spread_ok and agree
            print(f"  {name:12s} bound {bound:4.2f} | set1 {s1[1]:12.6g} "
                  f"[{s1[0]:.6g}, {s1[2]:.6g}] spread {s1[3]:6.3f} | set2 "
                  f"{s2[1]:12.6g} [{s2[0]:.6g}, {s2[2]:.6g}] spread "
                  f"{s2[3]:6.3f} | shift {shift:+7.3f} "
                  f"{'ok' if spread_ok and agree else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
