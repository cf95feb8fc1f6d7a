#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and its output
to stderr, so the last line of stdout is the benchmark's JSON result. The
binary's metrics are checked against BENCHMARK.json, the one list of
names and units: an untraced run must report exactly its end_to_end
metrics, a traced run (--trace 1) only per_layer ones, and a per-layer
metric the workload does not measure reads 0. A traced run also writes its
spans to <build dir>/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def declared_metrics(bench, measured, trace):
    """The measured metrics in BENCHMARK.json's order, or None if a name or
    unit does not match it."""
    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wrong = [f"{k} [{v['unit']}]" for k, v in measured.items()
             if units.get(k) != v["unit"]]
    missing = [] if trace else [k for k in units if k not in measured]
    if wrong or missing:
        print(f"perfbench: metrics not declared in BENCHMARK.json: {wrong}, "
              f"declared but not reported: {missing}", file=sys.stderr)
        return None
    return {m["name"]: measured.get(m["name"],
                                    {"value": 0, "unit": m["unit"]})
            for m in declared}


def main():
    bench = benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        print(f"perfbench: exit {p.returncode}", file=sys.stderr)
        return p.returncode or 1
    result = json.loads(lines[-1])
    metrics = declared_metrics(bench, result["metrics"], args.trace)
    if metrics is None:
        return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
