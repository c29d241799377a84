#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

perfbench/ is a Cargo package of its own that depends on the repository's
crates by path. This script builds it in release mode into $CARGO_TARGET_DIR
(default: .bench_build) and runs the binary with the same arguments. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. Every child process is waited for; on SIGTERM or
Ctrl-C the running child is killed first.
"""

import os
import signal
import subprocess
import sys


def run(argv, env, stdout=None):
    child = subprocess.Popen(argv, env=env, stdout=stdout)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        if run(build, env, stdout=sys.stderr) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env)
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
