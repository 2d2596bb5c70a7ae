#!/usr/bin/env python3
"""Build the STFM benchmark from source, then run it.

Run from anywhere; paths are resolved from this file:

    python3 stfmbench/run.py --workload fig09 [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads are fig09, fig11-8core and low16 (see stfmbench/README.md).
Every call configures and builds `.bench_build/` at the repository root:
the simulator library from src/ with the `release` preset's flags, plus
the benchmark program in stfmbench/src/. Only what changed is
recompiled. Build output goes to stderr, so stdout carries only the
benchmark's report, whose last line is the JSON result. The exit code
is the benchmark's: 0 when every correctness check passed, 1 when one
failed, 2 when the benchmark could not be built or set up.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "stfmbench"


def source_id():
    """A digest of the sources the benchmark builds and reads, after the
    git commit when the checkout has one ("-dirty" when it has
    uncommitted changes, so the digest tells the two trees apart)."""
    digest = hashlib.sha256()
    for top in ("src", "specs", "stfmbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "sources-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            git = [["git", "rev-parse", "HEAD"],
                   ["git", "status", "--porcelain"]]
            head, status = (subprocess.run(
                command, cwd=ROOT, check=True, capture_output=True,
                text=True).stdout.strip() for command in git)
            ident = f"{head}{'-dirty' if status else ''} {ident}"
        except (OSError, subprocess.CalledProcessError):
            pass
    return ident


def build():
    """Configure and build; False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "stfmbench",
         "-j", jobs],
    ]
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, cwd=ROOT)
        except OSError as error:
            print(f"run.py: cannot run {step[0]}: {error}", file=sys.stderr)
            return False
        if result.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    command = [str(BINARY), *sys.argv[1:], "--commit", source_id()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
