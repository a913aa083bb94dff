#!/usr/bin/env python3
"""Build and run the ppm benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `ppm` binary and the `perfbench` package (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
measurement. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the checkout does not hold the repository's sources or any
step fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("build-mcf", "refit-200", "serve-predict")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the root of a ppm checkout",
                  file=sys.stderr)
            sys.exit(2)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ppm", "--bin", "ppm"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(3)

    work = os.path.join(root, ".bench_build", "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--ppm", os.path.join(target, "release", "ppm"),
        "--work", work,
    ]
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
