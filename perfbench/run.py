#!/usr/bin/env python3
"""Build and run the Shelley-rs benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <edit-10k|restart-10k|claims-deep> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) from the repository's
sources into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the chosen
workload, and passes its output through. The last line of standard output
is the result object. Exits non-zero without a result when the
repository's sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The crates the benchmark builds on, relative to the checkout root.
SOURCES = [
    "crates/core/Cargo.toml",
    "crates/daemon/Cargo.toml",
    "crates/micropython/Cargo.toml",
    "crates/ltlf/Cargo.toml",
    "crates/regular/Cargo.toml",
    "devtools/serde/Cargo.toml",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    os.chdir(ROOT)
    missing = [path for path in SOURCES if not os.path.isfile(path)]
    if missing:
        fail("repository sources not found: " + ", ".join(missing))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary, *sys.argv[1:]], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
