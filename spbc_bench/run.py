#!/usr/bin/env python3
"""Benchmark entry point: builds spbc_bench from source, runs one workload.

    python3 spbc_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first call
configures the benchmark package, which adds the root CMake project, and
builds the `spbc` library and the driver into .bench_build/ at the
repository root (Release-with-debug-info); later calls rebuild
incrementally. The driver repeats whole passes of the workload for S seconds
and checks its own outputs. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, a separate traced run that also writes a
Chrome trace-event file under .bench_build/out/).

Exit codes: 0 when every check passed; 1 with "correct": false when a check
failed or the driver aborted, was killed or timed out; 2, with no result
line, on a usage or build error.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "spbc_bench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("spbc_bench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def broken(msg):
    """The driver ran but ended without a report: prints a failed result."""
    print("spbc_bench/run.py: " + msg, file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "scenario.cpp")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "spbc_bench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "spbc_bench")


def check_trace(path):
    """The trace must load as Chrome trace-event JSON with complete events."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        return bool(events) and all(
            e["ph"] == "X" and e["dur"] >= 0 and isinstance(e["name"], str)
            for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if args.seed < 1 or args.seconds < 0:
        fail("--seed must be >= 1 and --seconds >= 0")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-%d-%d" % (args.workload, args.seed, args.trace))
    json_path = stem + ".json"
    trace_path = stem + ".trace.json"
    for p in (json_path, trace_path):
        if os.path.exists(p):
            os.remove(p)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--json=" + json_path]
    if args.trace:
        cmd.append("--trace=" + trace_path)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        broken("driver exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode == 2:
        fail("driver rejected its arguments or could not write its report")
    if proc.returncode not in (0, 1) or not os.path.isfile(json_path):
        # An abort (SPBC_ASSERT), a signal or a missing report is how a
        # broken simulator shows up: a failed run, not a harness error.
        broken("driver exited with code %d and no report" % proc.returncode)

    with open(json_path) as f:
        report = json.load(f)
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        attempted += 1
        failed += 0 if check_trace(trace_path) else 1
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail("driver did not report metric " + m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(report["correct"]) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
