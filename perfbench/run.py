#!/usr/bin/env python3
"""Builds and runs the mvq benchmark.

    python3 perfbench/run.py --workload census_cold|synth_warm|serve_hits \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds `perfbench/` (a package of
its own, path-dependent on the repository's crates) with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the `perfbench` binary with the same
arguments. Build output goes to standard error; the binary's standard
output, whose last line is the JSON result, passes through unchanged.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys


def run_timeout_s(argv: list) -> float:
    """How long the binary may run before it is killed: the measured
    seconds plus room for the snapshot, the set-ups and the last round
    (175 s at the usual 35 s)."""
    seconds = 10.0
    if "--seconds" in argv[:-1]:
        try:
            seconds = float(argv[argv.index("--seconds") + 1])
        except ValueError:
            pass  # the binary rejects the value itself
    return seconds + 140


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    work_dir = os.path.join(target_dir, "perfbench-work")
    timeout = run_timeout_s(sys.argv[1:])
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--work-dir", work_dir],
            cwd=root, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:g} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
