#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first form builds perfbench/bench.exe
from source with dune (its build log goes to stderr) and runs one
workload; the last line of standard output is the benchmark's JSON
result. --smoke runs every workload of BENCHMARK.json at tiny size with
--trace 0 and --trace 1 and checks that each named metric is present,
finite and carries its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: the library sources are missing")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(args):
    """Run bench.exe; return (exit code, stdout). Never leaves it running."""
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) else None


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run(["--workload", wl["name"], "--seed", "11",
                             "--seconds", "1", "--trace", trace, "--tiny"])
            res = result_of(out)
            tag = "%s --trace %s" % (wl["name"], trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d, no result" % (tag, code))
                continue
            if not res.get("correct"):
                problems.append("%s: a correctness check failed" % tag)
            got = res.get("metrics", {})
            for m in spec[key]:
                v = got.get(m["name"])
                if v is None:
                    problems.append("%s: %s missing" % (tag, m["name"]))
                elif v.get("unit") != m["unit"]:
                    problems.append("%s: %s unit %r, want %r"
                                    % (tag, m["name"], v.get("unit"), m["unit"]))
                elif not (isinstance(v.get("value"), (int, float))
                          and math.isfinite(v["value"])):
                    problems.append("%s: %s not finite" % (tag, m["name"]))
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
            print("smoke %-32s %d metrics" % (tag, len(got)))
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    build()
    if a.smoke:
        return smoke()
    if not a.workload:
        fail("--workload is required")
    code, out = run(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", a.trace])
    if code != 0 or result_of(out) is None:
        # Show what ran, but never a result line.
        sys.stderr.write(out)
        fail("benchmark failed (exit %d)" % code)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
