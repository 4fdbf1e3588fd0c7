#!/usr/bin/env python3
"""Builds cmp-tlp and the benchmark from source, then runs one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fig3-paper --seed 1 --seconds 25 --trace 0

Cargo builds into $CARGO_TARGET_DIR when it is set, else perfbench/target.
Scratch state (daemon state directories, journals) goes to .perfbench-work
in the current directory and is removed when the run ends. The last line
of standard output is the result; build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.exit("perfbench: the cmp-tlp sources are missing; run from a repository checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "cmp-tlp", "--bin", "perfbench", "--bin", "cmp-tlp",
    ]
    built = subprocess.run(build, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {built.returncode}")
    release = os.path.join(target, "release")
    work = os.path.abspath(".perfbench-work")
    bench = [
        os.path.join(release, "perfbench"), *sys.argv[1:],
        "--cmp-tlp", os.path.join(release, "cmp-tlp"),
        "--work-dir", work,
    ]
    code = subprocess.run(bench).returncode
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
