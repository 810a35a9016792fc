#!/usr/bin/env python3
"""Build the simulator and run one workload of the speed benchmark.

    python3 perfbench/run.py --workload rsync-ooo --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The first run configures and compiles
the simulator library and the benchmark program (an optimized build) into
.bench_build/perfbench; later runs only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Any other arguments (--scale tiny) pass through to the
program. See perfbench/README.md.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def build():
    """Configure and compile; exit non-zero if the sources are missing
    or do not build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources at src/ (run from the "
                 "root of a full checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def digest_file(argv):
    """Where this binary records each workload-and-seed digest, so a
    later run of the same binary is checked against an earlier one."""
    binary_hash = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    opts = dict(zip(argv[::2], argv[1::2]))
    name = "%s-%s-%s.txt" % (opts.get("--workload", "none"),
                             opts.get("--seed", "1"),
                             opts.get("--scale", "full"))
    path = BUILD / "digests" / binary_hash / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def main():
    argv = sys.argv[1:]
    build()
    cmd = [str(BINARY)] + argv + ["--digest-file", str(digest_file(argv))]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
