"""End-to-end and per-layer benchmark of the reproduction.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload {reproduction,fleet,ole-counters} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: repetitions of the
workload, each in a fresh interpreter with no instrumentation, until
``--seconds`` have passed (at least one), then set-up-only interpreters
until there are enough set-up samples.  ``--trace 1`` gives the
per-layer metrics from one untraced repetition (exact work counts only)
and one traced repetition (counts, spans and the package sampler), and
checks that the two did identical work.

Every run checks its outputs against the digests recorded in
``e2ebench/reference.json`` for the seed (see ``record.py``) and that
all its repetitions agree.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Notes on
each workload and metric are in ``e2ebench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from layers import PACKAGES, TIMED_EXPERIMENTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("reproduction", "fleet", "ole-counters")
#: Set-up samples per end-to-end run; set-up-only interpreters make up
#: the difference when fewer repetitions fit in ``--seconds``.
MIN_SETUPS = 5
#: Wall-clock limit for the whole run, below the 180 s a run may take.
DEADLINE_S = 170.0

SHARES = PACKAGES + ("other",)


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, work: Path, deadline: float,
          setup_only: bool = False) -> Tuple[float, dict]:
    """Run one repetition; returns (set-up seconds, pass results)."""
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # The runner never opens its cache under --no-cache; this keeps any
    # cache the program might open inside the checkout all the same.
    env["XDG_CACHE_HOME"] = str(work / "cache")
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--work", str(work)]
    if setup_only:
        command.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before a repetition could start")
    with open(work / "stderr.txt", "w+") as errors:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=errors,
                                cwd=ROOT, env=env, text=True)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            output = proc.stdout.read()
            proc.stdout.close()
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or ready != "READY\n" or (not setup_only and not output):
            errors.seek(0)
            tail = errors.read()[-3000:]
            raise BenchmarkError(
                f"{workload} repetition ({mode}) failed with exit code {code}:\n{tail}"
            )
    return setup_s, ({} if setup_only else json.loads(output.strip().splitlines()[-1]))


def load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def check_outputs(workload: str, seed: int, reps: List[dict]) -> List[str]:
    """Problems with the outputs of ``reps``; empty when they are correct."""
    problems = []
    for rep in reps:
        if not rep["checks_ok"]:
            problems.append(f"output identities failed: {rep['failures']}")
    if any(rep["digests"] != reps[0]["digests"] for rep in reps):
        problems.append("repetitions of one seed produced different outputs")
    reference = load_reference(workload, seed)
    if reference is None:
        print(f"note: no recorded reference for {workload} seed {seed}; "
              f"outputs checked for agreement between repetitions only", file=sys.stderr)
    else:
        for name, expected in sorted(reference["digests"].items()):
            actual = reps[0]["digests"].get(name)
            if actual != expected:
                problems.append(f"{name}: digest {actual} != reference {expected}")
        extra = set(reps[0]["digests"]) - set(reference["digests"])
        if extra:
            problems.append(f"outputs without a reference: {sorted(extra)}")
    return problems


def end_to_end(workload: str, seed: int, seconds: int, work: Path, deadline: float):
    reps: List[dict] = []
    setups: List[float] = []
    started = time.monotonic()
    while not reps or time.monotonic() - started < seconds:
        setup_s, rep = spawn(workload, seed, "plain", work, deadline)
        setups.append(setup_s)
        reps.append(rep)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "plain", work, deadline, setup_only=True)[0])
    op_ms = [value for rep in reps for value in rep["op_ms"]]
    # Every 5th percentile, interpolated between closest ranks.
    vigintiles = statistics.quantiles(op_ms, n=20, method="inclusive")
    metrics = {
        "wall_s": (statistics.median(rep["wall_s"] for rep in reps), "s"),
        "ops_per_s": (len(op_ms) / sum(rep["wall_s"] for rep in reps), "1/s"),
        "op_ms_p50": (vigintiles[9], "ms"),
        "op_ms_p95": (vigintiles[18], "ms"),
        "peak_rss_mb": (max(rep["rss_kb"] for rep in reps) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"{workload} seed {seed}: {len(reps)} repetition(s), {len(op_ms)} timed "
          f"operations, {len(setups)} set-ups", file=sys.stderr)
    return reps, metrics


def per_layer(workload: str, seed: int, work: Path, deadline: float):
    _, untraced = spawn(workload, seed, "counts", work, deadline)
    _, traced = spawn(workload, seed, "trace", work, deadline)
    reps = [untraced, traced]
    counts = untraced["counts"]
    problems = []
    if traced["counts"] != counts:
        problems.append(
            f"tracing changed the work done: {traced['counts']} != {counts}"
        )
    reference = load_reference(workload, seed)
    if reference is not None and reference.get("counts") != counts:
        # Not an output error: a change may legitimately do less work.
        print(f"note: work counts differ from the recorded reference for seed {seed}: "
              f"{counts} != {reference.get('counts')}", file=sys.stderr)

    metrics: Dict[str, Tuple[float, str]] = {}
    for name, (inclusive_ns, self_ns, calls) in traced["spans"].items():
        metrics[f"{name}.s"] = (inclusive_ns / 1e9, "s")
        metrics[f"{name}.self_s"] = (self_ns / 1e9, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    for experiment_id in TIMED_EXPERIMENTS:
        metrics[f"experiments.wall_s.{experiment_id}"] = (
            traced["experiment_ns"].get(experiment_id, 0) / 1e9, "s")

    samples = traced["samples"]
    total = sum(samples.values())
    if total <= 0:
        problems.append("the sampler took no samples")
        total = 1
    shares = {package: samples.get(package, 0) / total for package in SHARES}
    if abs(sum(shares.values()) - 1.0) > 1e-9:
        problems.append(f"package shares sum to {sum(shares.values())}")
    for package, share in shares.items():
        metrics[f"share.{package}"] = (share, "ratio")
    metrics["share.samples"] = (sum(samples.values()), "count")

    for name, value in counts.items():
        if name == "sim.sim_ns":
            metrics["sim.sim_s"] = (value / 1e9, "sim_s")
        else:
            metrics[name] = (value, "count")
    executed = counts["sim.events_executed"]
    wall = untraced["wall_s"]
    lookups = counts["winsys.cache_hits"] + counts["winsys.cache_misses"]
    metrics["sim.host_ns_per_event"] = (wall * 1e9 / executed if executed else 0.0, "ns/event")
    metrics["sim.ff_fraction"] = (
        counts["sim.events_fast_forwarded"] / executed if executed else 0.0, "ratio")
    metrics["sim.sim_s_per_host_s"] = (counts["sim.sim_ns"] / 1e9 / wall, "sim_s/s")
    metrics["winsys.cache_hit_ratio"] = (
        counts["winsys.cache_hits"] / lookups if lookups else 0.0, "ratio")
    metrics["trace.untraced_wall_s"] = (wall, "s")
    metrics["trace.traced_wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead"] = (traced["wall_s"] / wall, "ratio")
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    metrics["error_rate"] = (failed / attempted, "ratio")
    return reps, metrics, problems


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so that spawn()
    # kills and reaps the running repetition on its way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".e2ebench-work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            reps, metrics, problems = per_layer(args.workload, args.seed, work, deadline)
        else:
            reps, metrics = end_to_end(args.workload, args.seed, args.seconds, work, deadline)
            problems = []
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    problems += check_outputs(args.workload, args.seed, reps)
    for rep in reps:
        for failure in rep["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    declared = declared_metrics(bool(args.trace))
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if measured != declared:
        print(f"error: metrics {measured} do not match BENCHMARK.json {declared}",
              file=sys.stderr)
        return 1
    result = {
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
