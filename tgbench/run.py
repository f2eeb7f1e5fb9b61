#!/usr/bin/env python3
"""Repository benchmark: one command, one named workload, one seed.

    python3 tgbench/run.py --workload serve_read|serve_mixed|audit_leaky \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
library sources under src/ plus the tgbench driver (Release) into
.bench_build/tgbench; later calls only re-check the build.  The driver's
output is forwarded unchanged: a context line, then the result line
{"correct", "attempted", "failed", "metrics"}.  Before forwarding, the
metric names are checked against BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).  Exits non-zero, without a result line, when the
sources are missing, the build fails, the driver fails, or the sheet does
not match.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tgbench")
DRIVER = os.path.join(BUILD_DIR, "tgbench_driver")
WORKLOADS = ("serve_read", "serve_mixed", "audit_leaky")
RUN_TIMEOUT_S = 170


def fail(message):
    print("tgbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s; run from a full checkout" % ROOT)
    build()

    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("driver exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    if list(result["metrics"]) != want:
        sys.stderr.write(proc.stdout)
        fail("metric sheet differs from BENCHMARK.json")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
