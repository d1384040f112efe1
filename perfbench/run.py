#!/usr/bin/env python3
"""End-to-end benchmark of the coordination service.

Builds perfbench_driver from this checkout's sources (CMake, Release)
into .bench_build/perfbench, runs one workload through the full stack
(sessions -> write-ahead log -> sharded engine) and prints, as the last
line of stdout, one JSON object:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  Usage, from the repository root:

  python3 perfbench/run.py --workload social_stream --seed 1 \
      --seconds 10 --trace 0

The driver checks its own outputs and exits non-zero when a check
fails; this wrapper then fails too.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_driver")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "system", "engine.cc")):
        fail("no library sources under ./src; run from the repository root")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--workdir", workdir],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)


if __name__ == "__main__":
    main()
