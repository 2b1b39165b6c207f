#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The repository's libraries and the C++ driver in perfbench/src are built
from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); a rebuild is incremental. The driver then runs one
workload for S seconds. Its last line of standard output is the JSON result
({"correct", "attempted", "failed", "metrics"}); the line before it carries
the host fingerprint. --trace 1 also writes the spans of the last traced
repetition to <build dir>/traces/<workload>.trace.json. Workloads, metrics
and the layer each metric belongs to are described in perfbench/src/main.cpp.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["taskgraph", "taskgraph-mt", "cholesky-ooc", "fhe-dot",
             "weather-graph"]
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    """Configures and builds the driver; returns its path or None."""
    steps = [["cmake", "-S", src_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src_dir = os.path.dirname(os.path.abspath(__file__))
    target = (os.environ.get("CARGO_TARGET_DIR")
              or os.path.join(os.path.dirname(src_dir), ".bench_build"))
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(src_dir, build_dir)
    if binary is None:
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
