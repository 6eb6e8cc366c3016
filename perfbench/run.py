#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mixed_replay --seed 1 --seconds 10 --trace 0

Workloads: mixed_replay, bitwise_replay, fleet_replay. `--trace 0` prints
the end-to-end metrics, `--trace 1` the per-layer waterfall (its spans
land in `.bench_build/perfbench/`). Any further flags (such as `--ops N`,
the session length) go to the benchmark binary unchanged.

The benchmark is a Cargo package of its own (`perfbench/Cargo.toml`),
built in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`).
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it stamps the
environment. Any failure, a missed correctness gate included, exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def probe(cmd):
    """First line of a command's output, or 'unknown'."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    args = sys.argv[1:]
    for flag in ("--workload", "--seed"):
        if flag not in args:
            fail(f"{flag} is required")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    # One malloc arena: with glibc's default of one per thread, which
    # arena a session's threads land in decides how much freed memory
    # stays mapped, and peak RSS spread 16 % between identical runs.
    env["MALLOC_ARENA_MAX"] = "1"
    env["PERFBENCH_RUSTC"] = probe(["rustc", "-V"])
    env["PERFBENCH_GIT_COMMIT"] = probe(["git", "rev-parse", "HEAD"])
    binary = os.path.join(target, "release", "perfbench")
    started = time.monotonic()
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no result line")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail(f"malformed or incorrect result: {lines[-1]}")
    print(run.stdout, end="")
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
