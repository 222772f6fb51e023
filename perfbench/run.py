#!/usr/bin/env python3
"""End-to-end pipeline benchmark: build, run one workload, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/; later runs only check
that build. The benchmark binary prints a header, human-readable detail, and as
its last line one JSON object with the metrics of the mode: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The exit code
is the binary's: 0 on success, 1 when an answer check failed, 2 on error.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ct_e2e")
WORKLOADS = ("ingest_durable", "viewport_serve", "wide_churn")


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "ct_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-answer", type=int, choices=(0, 1), default=0,
                        help="test hook: flip one checked answer")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    work = os.path.join(BUILD, "work")
    spans = os.path.join(BUILD, "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    sys.stdout.flush()
    result = subprocess.run(
        [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
         "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
         "--workdir=" + work,
         "--spans=" + os.path.join(spans, args.workload + ".tsv"),
         "--corrupt-answer=%d" % args.corrupt_answer],
        cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
