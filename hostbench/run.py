#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs the benchmark.

Usage, from the root of a checkout:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: target/ at the checkout root)
and are offline. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. See hostbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args):
    """Runs one cargo build at the checkout root; exits on failure."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"error: cargo build {' '.join(args)} failed")


def wants_trace(argv):
    """Whether the arguments ask for the traced run (`--trace 1`)."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value == "1"
    return False


def main():
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"error: {needed} is missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    # The traced run is its own binary, so the untraced one keeps building
    # when the layers' internal interfaces change.
    name = "hostbench-trace" if wants_trace(sys.argv[1:]) else "hostbench"
    build(["--bin", "blockreorg-cli"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", name])
    release = os.path.join(target, "release")
    bench = os.path.join(release, name)
    argv = [
        bench,
        "--server",
        os.path.join(release, "blockreorg-cli"),
        "--workdir",
        os.path.join(HERE, ".run"),
        *sys.argv[1:],
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(bench, argv)


if __name__ == "__main__":
    main()
