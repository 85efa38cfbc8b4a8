#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the harness from source into
.bench_build (perfbench/CMakeLists.txt compiles ../src), measures set-up
time over several fresh harness processes, runs one workload, and prints
the harness's JSON result as the last line of standard output, with
setup_s added to the end-to-end metrics.  Build output and diagnostics go
to standard error.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
WORKLOADS = ("table1", "pipeline", "sequencer", "symbolic")
# setup_s is the median over this many fresh processes, half of them
# started before the timed run and half after it, so that the median spans
# the run's drift in host speed.
SETUP_REPEATS = 20
# The harness run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "BENCH_table1.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("%s not found: run from a full checkout" % needed)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_harness"],
                   stdout=sys.stderr, check=True)


def setup_samples(workload, count):
    """Process start to 'ready' (the point the first timed job would start),
    once per fresh process."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([HARNESS, "--workload", workload, "--root", ROOT, "--setup-only"],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            fail("set-up of workload %s failed" % workload)
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    setup = setup_samples(args.workload, SETUP_REPEATS // 2) if args.trace == 0 else []

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT,
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if args.trace == 0:
        setup += setup_samples(args.workload, SETUP_REPEATS - len(setup))
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
