#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use it configures and builds the program and the benchmark driver
from this checkout's sources into $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild incrementally. The last line of standard output is the
result object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-read-mostly", "serve-durable-writes", "library-contended")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build incrementally; the output goes to a log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    # The benchmark measures the program built from this checkout; without
    # the program's sources there is nothing to measure.
    for rel in ("CMakeLists.txt", os.path.join("src", "server", "server_main.cpp")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"{rel} not found beside perfbench/: run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "perfbench-runs")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", repr(args.seconds),
                      "--trace", str(args.trace), "--workdir", workdir])


if __name__ == "__main__":
    main()
