#!/usr/bin/env python3
"""Self-checks of the SparkXD benchmark. Run from the repository root:

    python3 perfbench/selfcheck.py [--seed N]

1. Exact counts: the traced leg of every workload, run twice with the same
   seed, prints identical simulated counts (so later changes can cite them).
2. The metric names every run prints are exactly those of BENCHMARK.json.
3. A corrupted reference digest makes a pipeline run fail (exit 1,
   "correct": false).
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Everything it writes stays under .bench_build/. Exits 1 on any failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selfcheck")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "sparkxd_perfbench")
REFERENCE = os.path.join(HERE, "reference", "digests.txt")

# Simulated counts: pure functions of the seed, never of the host.
EXACT_COUNTS = [
    "core.mc_trials", "error.injector_builds", "error.candidates",
    "error.ecc_codewords", "error.ecc_corrected", "error.ecc_detected",
    "dram.accesses", "dram.row_hits", "dram.refreshes",
    "snn.input_spikes_per_step", "serve.flips", "serve.flips_per_request",
]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload, seed, trace, seconds=1, reference=None):
    """Runs run.py (or the binary with another reference); returns
    (exit code, parsed last JSON line or None)."""
    if reference is None:
        cmd = [sys.executable, os.path.join(HERE, "run.py")]
    else:
        cmd = [BINARY, "--root", ROOT, "--reference", reference]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    os.makedirs(SCRATCH, exist_ok=True)

    for w in spec["workloads"]:
        name = w["name"]
        code_a, a = run_bench(name, args.seed, 1)
        code_b, b = run_bench(name, args.seed, 1)
        check(code_a == 0 and code_b == 0 and a and b and a["correct"]
              and b["correct"], name + ": traced legs run clean")
        if not (a and b):
            continue
        check(set(a["metrics"]) == per_layer,
              name + ": traced leg prints exactly the per_layer metrics")
        same = all(a["metrics"][k]["value"] == b["metrics"][k]["value"]
                   for k in EXACT_COUNTS)
        check(same, name + ": simulated counts repeat exactly for one seed")
        code, e2e = run_bench(name, args.seed, 0)
        check(code == 0 and e2e and e2e["correct"]
              and set(e2e["metrics"]) == end_to_end,
              name + ": end-to-end run prints exactly the end_to_end metrics")

    # A corrupted reference digest must fail the run.
    slot_seed = 42 + args.seed % 16
    tampered = os.path.join(SCRATCH, "tampered_digests.txt")
    with open(REFERENCE) as src, open(tampered, "w") as dst:
        for line in src:
            parts = line.split()
            if (len(parts) == 3 and parts[0] == str(slot_seed)
                    and parts[1] == "digits-small-commodity-m0"):
                flipped = "0" if parts[2][-1] != "0" else "1"
                line = " ".join(parts[:2] + [parts[2][:-1] + flipped]) + "\n"
            dst.write(line)
    code, result = run_bench("pipeline-train", args.seed, 1,
                             reference=tampered)
    check(code == 1 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "a corrupted reference digest fails the run")

    # Without the sources next to it, the benchmark must refuse to run.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "a tree with only the benchmark files exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
