#!/usr/bin/env python3
"""Builds the sensor benchmark from source and runs it.

    python3 sensorbench/run.py --workload web_replay --seed 1 --seconds 10 --trace 0
    python3 sensorbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the repository root (configured once,
then rebuilt incrementally); the arguments are passed to the sensorbench
program, plus --out-dir .bench_build/results (per-run records and the traced
run's spans) unless given.  The program prints its record and metrics, and
as its last line one JSON object with the keys correct, attempted, failed
and metrics.
The exit code is non-zero when the build fails or any run is incorrect.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sensorbench")


def build():
    """Configures (first time) and builds; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")  # keep compiler temporaries in the checkout
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if result.returncode != 0:
            return result.returncode
    return 0


def main():
    code = build()
    if code != 0:
        print("sensorbench: build failed", file=sys.stderr)
        return code if code > 0 else 1
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(BUILD, "results")]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
