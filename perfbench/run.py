#!/usr/bin/env python3
"""Build the warehouse maintenance benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build at the repository
root, then runs one workload. The benchmark's last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; --trace 0 reports the end-to-end metrics and --trace 1 the
per-layer ledger (its spans go to .bench_build/perfbench/). The exit
code is the benchmark's: non-zero when the build fails, a view fails the
correctness gate or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
WORKLOADS = ["compensate", "selfmaint", "fanout-chaos"]
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; run from a full checkout" % ROOT)

    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)

    spans_dir = os.path.join(ROOT, BUILD_DIR, "perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans-out",
                os.path.join(spans_dir, "spans-%s.jsonl" % args.workload)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
