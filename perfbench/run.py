#!/usr/bin/env python3
"""Builds and runs the measured training benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lr_inproc --seed 1 --seconds 10 --trace 0

Builds the `perfbench` binary and the `columnsgd-worker` binary (the TCP
workload's worker processes) from source in release mode, then runs
`perfbench` with the same arguments. Cargo writes to `CARGO_TARGET_DIR`
when it is set, else to `perfbench/target`. Build output goes to standard
error, so the last line of standard output is the benchmark's result.
Exits nonzero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest,
        "-p", "columnsgd-perfbench", "-p", "columnsgd-core", "--bins",
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
