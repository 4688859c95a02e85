#!/usr/bin/env python3
"""Build presto_bench (Release) from this checkout and run it.

Usage, from the repository root:

    python3 presto_bench/run.py                      # all four workloads
    python3 presto_bench/run.py --workload ranker_stache --seed 7 \
        --seconds 20 --trace 0

Every flag is passed to the presto_bench binary (see presto_bench.cc). The
build lives in .bench_build/presto_bench and its output goes to stderr, so
the last line on stdout is presto_bench's one-line JSON result. If the
presto sources are missing or the build fails, this exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "presto_bench")
JOBS = "4"  # the host has 4 CPUs; the build never uses more


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: presto sources not found under %s/src" % ROOT)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "presto_bench", "-j", JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    build()
    binary = os.path.join(BUILD, "presto_bench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
