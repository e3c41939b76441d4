#!/usr/bin/env python3
"""Build perfbench (Release, into .bench_build/) and run one workload.

    python3 perfbench/run.py --workload in-process --seed 1 --seconds 55 --trace 0

Every argument is passed on to the perfbench binary; see README.md.
`--workload all` runs every workload listed in BENCHMARK.json in turn.
Build output goes to stderr so the last line of stdout stays the
result JSON. Run from anywhere: paths are relative to the checkout
that holds this file.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["perfbench", "xbsim", "xbatch"]


def build():
    generated = ("build.ninja", "Makefile")
    if not any(os.path.isfile(os.path.join(BUILD, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                   + TARGETS, check=True, stdout=sys.stderr)


def runs(args):
    """One argument list per workload to run."""
    for i, arg in enumerate(args):
        if arg == "--workload=all" or (
                arg == "all" and i > 0 and args[i - 1] == "--workload"):
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            head = args[:i - 1] if arg == "all" else args[:i]
            return [head + ["--workload", n] + args[i + 1:] for n in names]
    return [args]


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "perfbench")
    status = 0
    for args in runs(sys.argv[1:]):
        status = max(status, subprocess.run([binary] + args).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
