"""Performance-regression gate over the simulator micro-benchmarks.

Two subcommands turn raw ``pytest-benchmark`` output into a small,
reviewable metrics file and compare such files:

    python -m repro.perfgate collect raw.json -o BENCH_simulator.json
    python -m repro.perfgate check raw.json --baseline BENCH_simulator.json

``collect`` distils each benchmark down to the metrics the gate tracks:

* ``median_s`` — the per-benchmark median wall time;
* ``relative_cost`` — that median normalised to the raw event-throughput
  benchmark's, which cancels the host machine's absolute speed and is
  the most portable regression signal;
* ``events_per_s`` / ``sim_ns_per_wall_ms`` — simulation throughput,
  derived from the ``events`` / ``sim_ns`` entries the benchmarks record
  in ``extra_info`` (what counts as an event is the benchmark's choice:
  engine callbacks for the simulator benchmarks, *input* events for the
  fleet and remote session benchmarks);
* ``sessions_per_s`` — whole sessions per second, from a ``sessions``
  entry (the fleet and remote session benchmarks);
* ``idle_ff_speedup`` — the fast-forward ablation's measured speedup,
  which additionally carries an absolute floor (see ``SPEEDUP_FLOOR``);
* ``batch_speedup`` — the batched side-calendar dispatch speedup over
  per-event execution, with its own floor (``BATCH_SPEEDUP_FLOOR``).

``check`` fails (exit 1) if any tracked metric of any baseline benchmark
regresses by more than the tolerance (default 25%), if a baseline
benchmark disappeared, or if the ablation speedup drops below its floor.
The tolerance is deliberately generous: the gate exists to catch
order-of-magnitude mistakes (an accidentally quadratic calendar, a dead
fast path), not scheduler jitter.

Wired into CI as ``make bench-json`` + ``make perf-gate``; the committed
baseline is ``BENCH_simulator.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .core.atomicio import atomic_write_text

__all__ = [
    "BATCH_SPEEDUP_FLOOR",
    "ENVELOPE_OFF_CEILING",
    "SPEEDUP_FLOOR",
    "TOLERANCE",
    "collect_metrics",
    "compare_metrics",
    "main",
]

#: Default regression tolerance: a tracked metric may move 25% in the
#: bad direction before the gate fails.
TOLERANCE = 0.25

#: Absolute floor for the idle fast-forward ablation speedup, enforced
#: regardless of what the baseline recorded.
SPEEDUP_FLOOR = 5.0

#: Absolute floor for the batched side-calendar dispatch speedup
#: (``benchmarks/test_batch_dispatch.py``), enforced regardless of what
#: the baseline recorded.
BATCH_SPEEDUP_FLOOR = 1.3

#: Absolute ceiling for the envelope-off overhead ratio (session open,
#: stage envelopes disabled, vs. uninstrumented) — the <5% disabled-path
#: budget extended to the envelope switch, enforced regardless of what
#: the baseline recorded.
ENVELOPE_OFF_CEILING = 1.05

#: Benchmark whose median anchors ``relative_cost`` for all the others.
_REFERENCE = "test_engine_event_throughput"

#: Tracked metrics and whether larger values are better.  Anything else
#: in a metrics file is informational.
_DIRECTIONS: Dict[str, bool] = {
    "median_s": False,
    "relative_cost": False,
    "events_per_s": True,
    "sessions_per_s": True,
    "sim_ns_per_wall_ms": True,
    "idle_ff_speedup": True,
    "batch_speedup": True,
    "envelope_off_overhead": False,
}


def collect_metrics(raw: dict) -> dict:
    """Distil a pytest-benchmark JSON document into gate metrics."""
    benches = raw.get("benchmarks") or []
    if not benches:
        raise ValueError("no benchmarks in input (did the run fail?)")
    medians: Dict[str, float] = {}
    extras: Dict[str, dict] = {}
    for bench in benches:
        name = bench["name"]
        medians[name] = float(bench["stats"]["median"])
        extras[name] = bench.get("extra_info") or {}
    reference = medians.get(_REFERENCE)
    if not reference:
        raise ValueError(f"reference benchmark {_REFERENCE!r} missing from input")

    metrics: Dict[str, dict] = {}
    for name in sorted(medians):
        median = medians[name]
        extra = extras[name]
        entry: Dict[str, float] = {
            "median_s": median,
            "relative_cost": median / reference,
        }
        if extra.get("events") and median > 0:
            entry["events_per_s"] = float(extra["events"]) / median
        if extra.get("sessions") and median > 0:
            entry["sessions_per_s"] = float(extra["sessions"]) / median
        if extra.get("sim_ns") and median > 0:
            entry["sim_ns_per_wall_ms"] = float(extra["sim_ns"]) / (median * 1e3)
        if "idle_ff_speedup" in extra:
            entry["idle_ff_speedup"] = float(extra["idle_ff_speedup"])
        if "batch_speedup" in extra:
            entry["batch_speedup"] = float(extra["batch_speedup"])
        if "envelope_off_overhead" in extra:
            entry["envelope_off_overhead"] = float(extra["envelope_off_overhead"])
        metrics[name] = entry
    return {
        "schema": 1,
        "reference": _REFERENCE,
        "tolerance": TOLERANCE,
        "benchmarks": metrics,
    }


def compare_metrics(
    current: dict,
    baseline: dict,
    tolerance: float = TOLERANCE,
) -> List[str]:
    """Return regression messages (empty list means the gate passes)."""
    problems: List[str] = []
    current_benches = current.get("benchmarks") or {}
    baseline_benches = baseline.get("benchmarks") or {}
    for name, base_entry in sorted(baseline_benches.items()):
        cur_entry = current_benches.get(name)
        if cur_entry is None:
            problems.append(f"{name}: benchmark missing from current run")
            continue
        for metric, higher_is_better in _DIRECTIONS.items():
            base = base_entry.get(metric)
            cur = cur_entry.get(metric)
            if base is None:
                continue
            if cur is None:
                problems.append(f"{name}: metric {metric} missing from current run")
                continue
            if higher_is_better:
                limit = base * (1.0 - tolerance)
                if cur < limit:
                    problems.append(
                        f"{name}: {metric} regressed {cur:.4g} < {limit:.4g} "
                        f"(baseline {base:.4g}, tolerance {tolerance:.0%})"
                    )
            else:
                limit = base * (1.0 + tolerance)
                if cur > limit:
                    problems.append(
                        f"{name}: {metric} regressed {cur:.4g} > {limit:.4g} "
                        f"(baseline {base:.4g}, tolerance {tolerance:.0%})"
                    )
    for name, cur_entry in sorted(current_benches.items()):
        speedup = cur_entry.get("idle_ff_speedup")
        if speedup is not None and speedup < SPEEDUP_FLOOR:
            problems.append(
                f"{name}: idle_ff_speedup {speedup:.2f}x below the "
                f"absolute {SPEEDUP_FLOOR:.1f}x floor"
            )
        batch_speedup = cur_entry.get("batch_speedup")
        if batch_speedup is not None and batch_speedup < BATCH_SPEEDUP_FLOOR:
            problems.append(
                f"{name}: batch_speedup {batch_speedup:.2f}x below the "
                f"absolute {BATCH_SPEEDUP_FLOOR:.1f}x floor"
            )
        overhead = cur_entry.get("envelope_off_overhead")
        if overhead is not None and overhead > ENVELOPE_OFF_CEILING:
            problems.append(
                f"{name}: envelope_off_overhead {overhead:.3f}x above the "
                f"absolute {ENVELOPE_OFF_CEILING:.2f}x ceiling"
            )
    return problems


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _normalise(document: dict) -> dict:
    """Accept either raw pytest-benchmark output or a collected file."""
    if document.get("schema") == 1 and "benchmarks" in document:
        inner = document["benchmarks"]
        if inner and all(isinstance(entry, dict) for entry in inner.values()):
            return document
    return collect_metrics(document)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perfgate",
        description="collect and compare simulator benchmark metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser(
        "collect", help="distil pytest-benchmark JSON into gate metrics"
    )
    collect.add_argument("input", help="raw pytest-benchmark JSON file")
    collect.add_argument(
        "-o", "--output", default=None, help="metrics file to write (default: stdout)"
    )

    check = sub.add_parser(
        "check", help="compare a run against the committed baseline"
    )
    check.add_argument(
        "input", help="current run (raw pytest-benchmark JSON or collected metrics)"
    )
    check.add_argument(
        "--baseline",
        default="BENCH_simulator.json",
        help="committed metrics baseline (default: BENCH_simulator.json)",
    )
    check.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help=f"allowed fractional regression (default: {TOLERANCE})",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "collect":
            metrics = collect_metrics(_load(args.input))
            text = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
            if args.output:
                atomic_write_text(Path(args.output), text)
                print(
                    f"perfgate: wrote {len(metrics['benchmarks'])} benchmark(s) "
                    f"to {args.output}"
                )
            else:
                sys.stdout.write(text)
            return 0

        current = _normalise(_load(args.input))
        baseline = _load(args.baseline)
        problems = compare_metrics(current, baseline, tolerance=args.tolerance)
        for name in sorted(baseline.get("benchmarks") or {}):
            cur = (current.get("benchmarks") or {}).get(name)
            if cur:
                print(
                    f"perfgate: {name}: median {cur['median_s'] * 1e3:.2f} ms, "
                    f"relative cost {cur['relative_cost']:.3f}"
                )
        if problems:
            for problem in problems:
                print(f"perfgate: REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(
            f"perfgate: ok — {len(baseline.get('benchmarks') or {})} benchmark(s) "
            f"within {args.tolerance:.0%} of baseline"
        )
        return 0
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfgate: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
