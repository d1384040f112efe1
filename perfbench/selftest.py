#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, run from the repository root:

  python3 perfbench/selftest.py

For every workload it
  1. replays a reduced run through the benchmark's full stack (sessions,
     write-ahead log, sharded engine) and through the from-scratch
     oracle (EngineOptions::incremental = false, no sessions, no
     durability), and requires byte-identical delivery streams; and
  2. makes a short traced run, whose driver fails unless the traced and
     untraced passes agree on the delivery digest and WAL counts and
     recovery restores the pre-crash pending set.
Exits non-zero on the first failure.
"""

import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

# (workload, ring steps replayed against the oracle, backlog scale)
# The oracle re-evaluates from scratch, so its cost grows steeply with
# pending queries: the sizes keep the whole test to about two minutes;
# social_stream's run still crosses the first patience cancels (512
# arrivals), and merge_backlog's (128-text slots at this scale) crosses
# its first private-relation slot.
ORACLE_RUNS = [
    ("social_stream", 400, 1.0),
    ("merge_backlog", 200, 0.001),
]


def driver(*args):
    workdir = os.path.join(run.BUILD, "selftest-%d" % os.getpid())
    cmd = [run.BINARY, *args, "--workdir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    print(last[0][:160])
    if proc.returncode != 0:
        print("FAILED: " + " ".join(cmd), file=sys.stderr)
        sys.exit(1)


def main():
    run.build()
    for workload, steps, scale in ORACLE_RUNS:
        driver("--workload", workload, "--seed", "7", "--oracle-check",
               "--steps", str(steps), "--scale", str(scale))
    for workload, _, scale in ORACLE_RUNS:
        driver("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "1", "--scale", str(max(scale, 0.1)))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
