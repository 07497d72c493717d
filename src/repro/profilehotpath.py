"""Hot-path profiler for the simulation substrate.

Runs the benchmarks that bound the engine core's performance — the
schedule/cancel-heavy calendar churn, the full keystroke pipeline and
idle time completed in tick spans (the fleet's hot path) — under
:mod:`cProfile` and writes a top-N cumulative-time report:

    python -m repro.profilehotpath [-o .profile-hotpath.txt] [--top 20]

The report is the artifact ``make profile-hotpath`` produces.  It
exists so a perf regression found by the gate can be localised without
re-deriving the profiling setup: the workloads here are the same shapes
``benchmarks/test_simulator_perf.py`` and ``test_fastforward.py`` time,
so a function that grows in this report is the function that moved the
gate.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from .core.atomicio import atomic_write_text

__all__ = ["calendar_churn", "keystroke_pipeline", "profile_report", "main"]


def calendar_churn(events: int = 50_000) -> int:
    """The lazy-deletion worst case: every event schedules a far-future
    decoy and cancels the previous one (mirrors
    ``test_engine_calendar_churn``)."""
    from .sim.engine import Simulator

    sim = Simulator()
    count = [0]
    decoy = [None]

    def chain():
        count[0] += 1
        if decoy[0] is not None:
            decoy[0].cancel()
        decoy[0] = sim.schedule(10**9, lambda: None, "decoy")
        if count[0] < events:
            sim.schedule(10, chain)

    sim.schedule(10, chain)
    sim.run(until_ns=events * 10 + 1)
    return count[0]


def keystroke_pipeline(keystrokes: int = 100) -> int:
    """Interrupt -> DPC -> message -> app handling under contention
    (mirrors ``test_busy_fastforward_overhead``)."""
    from .apps import NotepadApp
    from .core import IdleLoopInstrument
    from .sim.timebase import ns_from_ms
    from .winsys import boot
    from .workload.mstest import MsTestDriver
    from .workload.script import InputScript, Key

    system = boot("nt40")
    app = NotepadApp(system)
    app.start(foreground=True)
    instrument = IdleLoopInstrument(system, loop_ms=1.0)
    instrument.install()
    system.run_for(ns_from_ms(5))
    driver = MsTestDriver(
        system,
        InputScript([Key("a", pause_ms=5.0)] * keystrokes),
        queuesync=False,
        default_pause_ms=5.0,
    )
    driver.run_to_completion(max_seconds=60)
    return app.keystrokes


def idle_tick_spans(sim_ms: float = 10_000.0) -> int:
    """10 idle sim-s per OS, instrumented, in a sink-less obs session
    (mirrors ``test_idle_tick_span``): tick spans complete quiet ticks,
    housekeeping and Win95 background DPC episodes in closed form."""
    from .core import IdleLoopInstrument
    from .obs import observed
    from .sim.timebase import ns_from_ms
    from .winsys import boot

    samples = 0
    for os_name in ("nt351", "nt40", "win95"):
        with observed(trace=False, metrics=False):
            system = boot(os_name)
            instrument = IdleLoopInstrument(system)
            instrument.install()
            system.run_for(ns_from_ms(sim_ms))
        samples += instrument.samples_collected
    return samples


_WORKLOADS: List[Tuple[str, Callable[[], object]]] = [
    ("calendar-churn", calendar_churn),
    ("keystroke-pipeline", keystroke_pipeline),
    ("idle-tick-spans", idle_tick_spans),
]


def profile_report(top: int = 20, repeats: int = 3) -> str:
    """Profile every hot-path workload; return the combined report text.

    Each workload runs ``repeats`` times inside one profiler so ncalls
    are stable multiples and one-off warm-up (import, personality
    construction) is diluted.
    """
    sections: List[str] = []
    for name, workload in _WORKLOADS:
        workload()  # warm imports and caches outside the profile
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(repeats):
            workload()
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        sections.append(
            f"==== {name} (x{repeats}, top {top} by cumulative time) ====\n"
            f"{buffer.getvalue()}"
        )
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.profilehotpath",
        description="profile the engine hot paths, write a top-N report",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=".profile-hotpath.txt",
        help="report file to write (default: .profile-hotpath.txt)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="functions per section (default: 20)"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per workload inside the profiler (default: 3)",
    )
    args = parser.parse_args(argv)
    report = profile_report(top=args.top, repeats=args.repeats)
    atomic_write_text(Path(args.output), report)
    sys.stdout.write(report)
    print(f"profilehotpath: wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
