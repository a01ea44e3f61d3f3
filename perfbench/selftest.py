#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that
  1. every name in BENCHMARK.json uses only [A-Za-z0-9_.-] and is unique;
  2. every end-to-end metric (--trace 0) and every per-layer metric
     (--trace 1) is emitted, as a finite number, for every workload, and
     every output is correct;
  3. a deliberately wrong oracle output shows up in `failed` and in
     failed_frac;
  4. on a simulator workload, the deterministic metrics repeat exactly
     across two runs with different seeds.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics that are functions of the program alone on the
# simulator: any difference between two runs is a determinism bug.
DETERMINISTIC = re.compile(
    r"^(vtime_cycles|vt\..*|tm\.(forks|commits|rollbacks|nosyncs|commit_frac)|"
    r"policy\..*|gbuf\.(loads|stores|validate_words|commit_words|parks|spills|overflows)|"
    r"frontend\.mir_instrs|speculator\.mir_instrs|failed_frac)$")


def check(cond, msg):
    if not cond:
        print("selftest FAILED: " + msg)
        sys.exit(1)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(out.returncode == 0, "%s exited %d: %s" % (cmd, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    names = workloads + e2e + layers
    for n in names:
        check(NAME.match(n) is not None, "bad name %r" % n)
    check(len(names) == len(set(names)), "duplicate names")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, "bad unit %r" % m["unit"])
    print("names ok: %d workloads, %d end-to-end, %d per-layer"
          % (len(workloads), len(e2e), len(layers)))

    for w in workloads:
        for trace, expected in ((0, e2e), (1, layers)):
            r = run(w, 1, trace)
            got = r["metrics"]
            check(sorted(got) == sorted(expected),
                  "%s trace %d: missing %s, unexpected %s" % (
                      w, trace, sorted(set(expected) - set(got)),
                      sorted(set(got) - set(expected))))
            for k, v in got.items():
                check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                      "%s %s is not a finite number" % (w, k))
                if trace == 0:
                    check(v["value"] != 0, "%s %s is 0" % (w, k))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  "%s trace %d: outputs not correct: %s" % (w, trace, r))
            print("%s trace %d ok: %d metrics, %d runs verified"
                  % (w, trace, len(got), r["attempted"]))

    r = run("conflict-sim", 1, 1, "--corrupt-oracle", "policy-scan")
    check(not r["correct"] and r["failed"] >= 1 and r["metrics"]["failed_frac"]["value"] > 0,
          "a wrong oracle output was not reported: %s" % r)
    print("wrong oracle detected: failed %d of %d" % (r["failed"], r["attempted"]))

    a = run("conflict-sim", 2, 1)["metrics"]
    b = run("conflict-sim", 3, 1)["metrics"]
    det = [k for k in layers if DETERMINISTIC.match(k)]
    diff = [k for k in det if a[k]["value"] != b[k]["value"]]
    check(not diff, "deterministic metrics differ across seeds: %s" % diff)
    print("determinism ok: %d metrics repeat exactly across seeds" % len(det))
    print("selftest passed")


if __name__ == "__main__":
    main()
