"""Record the reference outputs and work counts the benchmark checks against.

Usage, from the root of a checkout::

    python3 e2ebench/record.py --seeds 0-19 [--workload fleet] [--jobs 2]

For each workload and seed this runs one repetition with exact work
counts and stores its output digests and counts in
``e2ebench/reference.json``.  Re-record only after a change that is
meant to alter the program's outputs or the work it does; a change
that claims only a speed-up must leave both untouched.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from run import REFERENCE, ROOT, WORKLOAD_NAMES, spawn


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 0,3,5")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for workload in args.workload or WORKLOAD_NAMES:

        def record(seed, workload=workload):
            work = ROOT / ".e2ebench-work" / f"record-{workload}-{seed}"
            try:
                _, rep = spawn(workload, seed, "counts", work, time.monotonic() + 600)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            return seed, rep

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            for seed, rep in pool.map(record, parse_seeds(args.seeds)):
                reference.setdefault(workload, {})[str(seed)] = {
                    "digests": rep["digests"],
                    "counts": rep["counts"],
                    "failed": rep["failures"],
                }
                print(f"{workload} seed {seed}: {rep['attempted']} attempted, "
                      f"{rep['failed']} failed", file=sys.stderr)
        reference[workload] = dict(sorted(reference[workload].items(), key=lambda kv: int(kv[0])))
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
