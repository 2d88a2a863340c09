#!/usr/bin/env python3
"""Build the wire benchmark from source and run one workload.

Usage, from the repository root:

    python3 wirebench/run.py [--netdesc-rate R] --workload chain|netdesc|longrun \
        --seed N --seconds S --trace 0|1

The first call configures and builds the simulator library and the driver
into .bench_build/wirebench (Release); later calls only rebuild what
changed.  Build output goes to stderr, so the last stdout line is the
driver's JSON result.  Without the simulator sources next to this directory
the script exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "wirebench")
BINARY = os.path.join(BUILD, "wirebench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("wirebench: simulator sources (src/) not found", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("wirebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    try:
        return subprocess.run([BINARY] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wirebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
