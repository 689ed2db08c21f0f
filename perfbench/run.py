#!/usr/bin/env python3
"""Builds and runs the LAAR pipeline benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_corpus --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from ../src) into .bench_build/; later
calls only rebuild what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Exits non-zero without a
result when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
WORKLOADS = ("paper_corpus", "web_inline", "web_sharded")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: LAAR sources not found under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))
    return os.path.join(BUILD_DIR, "laar_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shards", type=int, default=0,
                        help="web_sharded shard count (default twice its executors)")
    args = parser.parse_args()

    binary = build()
    command = [binary,
               "--workload=%s" % args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace,
               "--out=%s" % OUT_DIR,
               "--pins=%s" % os.path.join(HERE, "pins.json")]
    if args.shards > 0:
        command.append("--shards=%d" % args.shards)
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
