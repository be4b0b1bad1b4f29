#!/usr/bin/env python3
"""Builds and runs the wall-clock fleet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the MARS sources plus the mars_perfbench program) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Extra flags after the four
above are passed to mars_perfbench unchanged (see perfbench/src/main.cc).
The exit code is mars_perfbench's, or 2 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# mars_perfbench is killed after this long, so a run can never hang.
RUN_TIMEOUT_S = 175


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(root)


def build(build_dir):
    """Builds mars_perfbench; returns its path, or None on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target",
                  "mars_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "mars_perfbench")


def main(argv):
    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    if binary is None:
        return 2
    command = [binary, "--scratch", os.path.join(root, "scratch")] + argv
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: mars_perfbench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
