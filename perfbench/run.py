#!/usr/bin/env python3
"""Build and run the SparkXD benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-axes --seed 1 --seconds 50 --trace 0

Workloads: pipeline-axes and serve-open (see BENCHMARK.json). A third,
pipeline-train, runs the same way; it is left out of BENCHMARK.json (two
workloads allow longer, steadier runs) and serves to compare layer shares
with pipeline-axes under --trace 1.
The first run configures and builds the library and the benchmark binary in
Release mode under .bench_build/ (later runs only re-check it); then the
binary measures and prints one JSON object as the last line of stdout.
Build output goes to stderr. Exits non-zero, printing no result, when the
tree holds no SparkXD sources or the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sparkxd_perfbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent runs in one checkout share the build; serialise it.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "sparkxd_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "pipeline.hpp")):
        sys.exit("perfbench: no SparkXD sources next to perfbench/ "
                 "(expected src/core/pipeline.hpp)")
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT]
    env = dict(os.environ, SPARKXD_THREADS="1")
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
