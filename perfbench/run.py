#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <paper-mix|serve-zipf|write-read> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds with `cargo build --release
--offline` into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark; its last line of standard output is the JSON result. Counts and
spans the runs record go to `<target dir>/perfbench/`.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
