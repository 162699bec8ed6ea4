#!/usr/bin/env python3
"""Runs one pass of the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload mcmf --seed 1 --seconds 33 --trace 0

Builds the release `bcc-served` daemon and the `perfbench` program from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
program, which prints one line per metric and, as its last line, the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "bcc-served"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for build in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(build))
    release = os.path.join(target, "release")
    # Relative, so the daemon's socket path stays short.
    work = os.path.relpath(os.path.join(target, "perfbench-work", str(os.getpid())))
    try:
        command = [
            os.path.join(release, "perfbench"), *sys.argv[1:],
            "--daemon", os.path.join(release, "bcc-served"),
            "--work", work,
        ]
        code = subprocess.run(command, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
