#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload remote_read --seed 1 --seconds 10 --trace 0

The first call configures and builds `kgbench` (perfbench/CMakeLists.txt,
Release) under $CARGO_TARGET_DIR, default `.bench_build`, relative to the
checkout root; later calls rebuild only what changed. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
Any other argument (e.g. --inject-wrong-answer) is passed to kgbench.
The exit status is kgbench's, or 2 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("remote_read", "store_churn", "cluster_mix")


def build(root, build_dir):
    """Configures (once) and builds kgbench; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "kgbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "kgbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir] + extra
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
