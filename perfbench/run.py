#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload echo-hm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest     # unit tests of the derivations

The CMake package in this directory is configured on first use and built
(incrementally) on every run, into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The exit
code is the benchmark's: nonzero when a build step or an output check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target):
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("perfbench_tests")]).returncode
        exe = build("neo_perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
