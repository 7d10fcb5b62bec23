#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The Rust program is built with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`) and then run with the same arguments; its last line of
standard output is the JSON result. Exits non-zero without a result when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def tool_output(args, env):
    try:
        done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    # Telemetry and progress logging stay off: the benchmark times the
    # program as it runs by default.
    env["REGEMU_TELEMETRY"] = "0"
    env["REGEMU_LOG"] = "off"
    # Never look for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "regemu-perfbench")
    print(f"# git_rev {tool_output(['git', 'rev-parse', 'HEAD'], env)}")
    print(f"# rustc {tool_output(['rustc', '--version'], env)}")
    print(f"# nproc {os.cpu_count()}", flush=True)
    try:
        run = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
