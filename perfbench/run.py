#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload ilp-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py exact-test

Workloads: ilp-grid, mc-10k, serve-open (see perfbench/NOTES.md). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error.
The exit code is non-zero when the build fails or any output check
fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/fbbbench.exe", "./bin/fbbd.exe"]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "fbbbench.exe")
    try:
        return subprocess.run(
            [exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
