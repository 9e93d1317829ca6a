#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root. The first call configures and compiles
perfbench/CMakeLists.txt (the repository's src/ libraries plus
perfbench.cc, Release flags) into .bench_build/perfbench; later calls only
re-check that build. Build output goes to stderr, so the last line of stdout
is the binary's JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero, printing no result, when the build fails, the binary fails,
or its result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_hot", "serve_miss", "train", "ingest")
# A run sets up, measures --seconds, and checks; it must never hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "util", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a checkout",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def valid_result(result):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    return result["attempted"] >= 1 and isinstance(result["metrics"], dict)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: benchmark binary exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not valid_result(result):
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
