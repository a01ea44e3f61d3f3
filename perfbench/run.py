#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 25 --trace 0

The harness is built with dune into .bench_build/ (the shared dune cache
is disabled, so nothing is written outside the checkout).  Its stdout is
passed through: the last line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
detail report, also written with the span dump to .bench_build/perfbench-out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
WORKLOADS = ("paper-sim", "conflict-sim", "paper-domains")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-oracle", default="",
                    help="self-test only: make this program's expected output wrong")
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("source tree incomplete: %s is missing" % needed)
    if shutil.which("dune") is None:
        return fail("dune not found on PATH")

    build = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--cache=disabled", "--profile", "release", "perfbench/harness.exe"]
    try:
        built = subprocess.run(build, cwd=ROOT, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if built.returncode != 0:
        return fail("build failed (exit %d)" % built.returncode)

    os.makedirs(OUT_DIR, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out-dir", OUT_DIR]
    if args.corrupt_oracle:
        cmd += ["--corrupt-oracle", args.corrupt_oracle]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("harness timed out")
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        sys.stderr.write(ran.stdout)
        return fail("harness failed (exit %d)" % ran.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("malformed result line")
    sys.stdout.write(ran.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
