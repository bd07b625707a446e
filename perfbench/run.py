#!/usr/bin/env python3
"""Builds the mdseq benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. Exits non-zero without a
result when the build or any correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "perfbench"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets=(TARGET,)):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr)
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    work = os.path.join(build_dir(), "work")
    command = [
        os.path.join(out, TARGET),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--scale={args.scale}",
        f"--work-dir={work}",
        f"--cache-dir={os.path.join(build_dir(), 'cache')}",
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
