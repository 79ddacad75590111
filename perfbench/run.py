#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/perfbench.exe
from source with dune (release profile, build directory
.bench_build/dune, no shared dune cache, so nothing is written outside
the checkout), then runs it and exits with its exit code. The last line
of standard output is the run's JSON result; spans of a traced run go
to .bench_build/perfbench/. `--workload all` runs every workload in
turn, each printing its own result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("openloop_lrpc", "erpc_lossy", "closed_mp")
BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout (no dune-project and lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # The build's own output goes to stderr: stdout carries the result.
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".",
             "--build-dir", os.path.abspath(BUILD_DIR),
             "--profile", "release", "--cache", "disabled",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    for workload in WORKLOADS if a.workload == "all" else (a.workload,):
        sys.stdout.flush()
        try:
            run = subprocess.run(
                [EXE, "--workload", workload, "--seed", str(a.seed),
                 "--seconds", repr(a.seconds), "--trace", str(a.trace),
                 "--out", OUT_DIR],
                timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(workload + " run timed out")
        if run.returncode != 0:
            sys.exit(run.returncode)


if __name__ == "__main__":
    main()
