#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs it.

    python3 perfbench/run.py --workload <detail|sampled|sweep> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --reference <check|write>

Run it from the repository root. The build is `cargo build --release
--offline` of perfbench/Cargo.toml into `CARGO_TARGET_DIR` (default
perfbench/target); its output goes to standard error, so standard output
carries only the runner's report. The exit code is the build's when the
build fails, the runner's otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    runner = os.path.join(target, "release", "perfbench")
    return subprocess.run([runner] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
