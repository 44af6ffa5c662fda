#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into .bench_build/perfbench (build output goes to
stderr); reports and traces land in .bench_out/. The last line of
stdout is the benchmark's result line. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cold_large", "livepoint_warm", "corun_mix")


def build():
    """Configure, then (re)build only the benchmark target."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the benchmark's correctness "
                             "checks catch a wrong fingerprint and a "
                             "corrupted store entry")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    if args.self_test:
        cmd = [binary, "--self-test", "--out", OUT]
    else:
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", OUT,
               "--expect", os.path.join(HERE, "fingerprints.txt")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
