"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Protocol on the
standard output it inherits: the line ``READY`` once set-up is done,
then one JSON line with the pass's results.  Everything the program
itself prints is sent to /dev/null so it cannot interleave.

Modes: ``plain`` installs nothing but the workload's own operation
clock; ``counts`` adds exact work counts; ``trace`` adds spans and the
package sampler on top of the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPRO = ROOT / "src" / "repro"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "counts", "trace"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    protocol = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    import repro

    if Path(repro.__file__).resolve().parent != REPRO:
        raise SystemExit(f"imported repro from {repro.__file__}, not {REPRO}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.work))
    counts = spans = sampler = None
    if args.mode != "plain":
        # Importing the registry loads every module that binds the
        # wrapped functions by name, before any hook goes in.
        import repro.experiments.registry  # noqa: F401
        import repro.experiments.runner  # noqa: F401
        import repro.fleet  # noqa: F401

        from layers import PackageSampler, Spans, WorkCounts

        counts = WorkCounts()
        counts.install()
        if args.mode == "trace":
            spans = Spans()
            spans.install()
            sampler = PackageSampler(REPRO, HERE)
            sampler.start()

    workload.setup()
    protocol.write("READY\n")
    protocol.flush()
    if args.setup_only:
        return 0

    result = workload.run_pass()
    if sampler is not None:
        sampler.stop()
        result["samples"] = sampler.snapshot()
    if spans is not None:
        result.update(spans.snapshot())
    if counts is not None:
        result["counts"] = counts.snapshot()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["rss_kb"] = own + children
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
