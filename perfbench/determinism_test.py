#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/determinism_test.py

Runs a reduced disk_motion_admit and a reduced zipf_sharded_all fleet at
1 worker and at 4 workers and checks that each pair prints the same
output digest (FNV-1a over every client's and the aggregate's
full-precision RunMetricsJson). FleetEngine promises byte-identical
fleet output at any worker count; this shows that the benchmark measures
the program that promise describes. Exits 0 when every pair matches.
"""

import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: the shared build step)

# (workload, clients, frames): small enough to finish in seconds, large
# enough that admission defers and sheds, the pool evicts and, in the
# zipf case, shards split and clients hand over between cells.
CASES = [
    ("disk_motion_admit", 16, 12),
    ("zipf_sharded_all", 32, 20),
]
WORKERS = (1, 4)
DIGEST = re.compile(r'^\{"digest": "([0-9a-f]{16})"')


def digest(binary, scratch, workload, clients, frames, workers):
    command = [binary, "--workload", workload, "--seed", "1",
               "--seconds", "60", "--trace", "0", "--reps", "1",
               "--clients", str(clients), "--frames", str(frames),
               "--workers", str(workers), "--scratch", scratch]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    for line in done.stdout.splitlines():
        match = DIGEST.match(line)
        if match:
            return match.group(1)
    return None


def main():
    root = run.build_root()
    binary = run.build(os.path.join(root, "perfbench"))
    if binary is None:
        return 2
    scratch = os.path.join(root, "scratch")
    ok = True
    for workload, clients, frames in CASES:
        digests = [digest(binary, scratch, workload, clients, frames, w)
                   for w in WORKERS]
        same = digests[0] is not None and len(set(digests)) == 1
        ok = ok and same
        print("%s %s (%d clients x %d frames): %s" % (
            "PASS" if same else "FAIL", workload, clients, frames,
            ", ".join("workers %d -> %s" % (w, d)
                      for w, d in zip(WORKERS, digests))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
