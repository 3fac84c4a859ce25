#!/usr/bin/env python3
"""Builds and runs the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper-sweep|mem-drain|serve-mix \
        --seed N --seconds S --trace 0|1

Builds the `experiments` binary (the server's worker) and the benchmark
package into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark with a scratch directory under `.bench_work/`, which it removes
afterwards. The last line of standard output is the JSON result; build
output goes to standard error. Exits non-zero without a result when the
current directory is not a checkout of this repository.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "serve"))):
        print("perfbench: run from the root of a repository checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "capstan-serve", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for build in builds:
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    work_dir = os.path.abspath(os.path.join(".bench_work", str(os.getpid())))
    command = [
        os.path.join(target, "release", "capstan-perfbench"),
        *sys.argv[1:],
        "--worker",
        os.path.join(target, "release", "experiments"),
        "--work-dir",
        work_dir,
    ]
    try:
        return subprocess.run(command, env=env).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
