#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/).

Usage, from the repository root:

    python3 perfbench/run.py --workload raizn_fio|kv_mdraid|raid6_degraded|all \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ together with src/
(CMake, RelWithDebInfo) under $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild incrementally. Build output goes to stderr. The
benchmark's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is the benchmark's: 0 when
every byte read back was correct, 1 otherwise or when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("raizn_fio", "kv_mdraid", "raid6_degraded", "all")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--spans-out", default="",
                    help="traced run: write every span to this TSV file")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(bdir, "raizn_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans_out:
        cmd += ["--spans-out", args.spans_out]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
