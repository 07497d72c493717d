"""Fast-forward ablation benchmarks (idle- vs busy-dominated workloads).

These quantify the determinism-preserving idle fast-forward path
(``docs/performance.md``): on an idle-dominated trace the kernel batches
uncontended idle-loop segments analytically, so wall time stops scaling
with loop granularity; on a busy-dominated trace the fast path almost
never fires and must cost nothing.

Each benchmark also *checks* the optimisation's contract where cheap to
do so: the ablation run asserts the collected records are identical with
the optimisation on and off.  ``extra_info`` carries the simulated span,
event counts and the measured speedup; ``python -m repro.perfgate
collect`` turns those into the tracked metrics the perf gate compares.
"""

import time

import pytest

from repro.apps import NotepadApp
from repro.core import IdleLoopInstrument
from repro.obs import observed
from repro.sim.engine import set_fast_forward_default
from repro.sim.timebase import ns_from_ms
from repro.winsys import boot
from repro.workload.mstest import MsTestDriver
from repro.workload.script import InputScript, Key

#: High-resolution tracing point for the ablation: a 0.1 ms loop is the
#: fine end of the granularity/buffer trade-off the paper discusses
#: (finer loop, more records), and the regime where skipping idle
#: segments pays most — slow-path cost scales with record count while
#: the fast path only pays a fixed cost per clock-tick period.
_ABLATION_LOOP_MS = 0.1
_ABLATION_SIM_MS = 5_000.0


def _idle_run(fast_forward, loop_ms=_ABLATION_LOOP_MS, sim_ms=_ABLATION_SIM_MS):
    """Boot nt40, trace an idle system, return (records, sim stats)."""
    set_fast_forward_default(fast_forward)
    try:
        system = boot("nt40")
        instrument = IdleLoopInstrument(system, loop_ms=loop_ms)
        instrument.install()
        system.run_for(ns_from_ms(sim_ms))
        return (
            instrument.buffer.records(),
            system.sim.events_executed,
            system.kernel.fast_forward_batches,
        )
    finally:
        set_fast_forward_default(True)


def test_idle_fastforward_ablation(benchmark):
    """Idle-dominated trace: fast forward on (benchmarked) vs off (timed).

    Asserts the two runs collect byte-identical records and that the
    speedup clears the 5x floor the perf gate tracks.
    """
    result = benchmark(_idle_run, True)
    records_on, events_on, batches = result
    assert batches > 0, "fast forward never fired on an idle system"

    # The slow path is too slow to hand to the benchmark fixture's round
    # machinery; time it directly (best of two to shed warm-up noise).
    off_s = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        records_off, events_off, _ = _idle_run(False)
        off_s = min(off_s, time.perf_counter() - started)

    assert records_on == records_off, "fast forward changed the trace"
    assert events_on == events_off, "fast forward changed the event count"

    on_s = benchmark.stats.stats.median
    speedup = off_s / on_s
    sim_ns = ns_from_ms(_ABLATION_SIM_MS)
    benchmark.extra_info["sim_ns"] = sim_ns
    benchmark.extra_info["events"] = events_on
    benchmark.extra_info["ff_off_s"] = off_s
    benchmark.extra_info["idle_ff_speedup"] = speedup
    assert speedup >= 5.0, (
        f"idle fast-forward speedup {speedup:.2f}x below the 5x floor "
        f"(on {on_s * 1e3:.1f} ms, off {off_s * 1e3:.1f} ms)"
    )


def test_busy_fastforward_overhead(benchmark):
    """Busy-dominated workload: the fast path must not tax real work.

    Keystroke handling keeps the CPU contended, so nearly every idle
    segment is interrupted and executes on the slow path; the only cost
    the optimisation may add here is the per-segment budget probe.
    """

    def run():
        system = boot("nt40")
        app = NotepadApp(system)
        app.start(foreground=True)
        instrument = IdleLoopInstrument(system, loop_ms=1.0)
        instrument.install()
        system.run_for(ns_from_ms(5))
        driver = MsTestDriver(
            system,
            InputScript([Key("a", pause_ms=5.0)] * 100),
            queuesync=False,
            default_pause_ms=5.0,
        )
        driver.run_to_completion(max_seconds=60)
        return app.keystrokes, system.sim.events_executed, system.now

    keystrokes, events, sim_ns = benchmark(run)
    benchmark.extra_info["sim_ns"] = sim_ns
    benchmark.extra_info["events"] = events
    assert keystrokes >= 100


#: Simulated span of the tick-span benchmark: 1000 clock ticks.
_SPAN_SIM_MS = 10_000.0

#: Upper bounds on live (not synthesized) engine events per 10 idle
#: sim-s, by case: a deterministic work count, set to what the tick
#: spans leave (before DPC episodes were spanned: 600 / 604 / 1931, and
#: 6495 / 7310 with the timer).  Housekeeping, Win95 background and
#: armed-timer tick DPCs are spanned, so what runs live is boot, the
#: ticks where a span meets a segment end, and each firing of the armed
#: timer (100 per 10 s) with its message handling.
_LIVE_EVENT_BOUNDS = {
    "nt351": 6,
    "nt40": 10,
    "win95": 18,
    "nt40-timer": 1_101,
    "win95-timer": 1_137,
}


def _word_style_timer_app():
    """Block in GetMessage with a 100 ms timer armed (Word's lazy
    background drain, Section 5.4): every idle tick runs the tick DPC."""
    from repro.sim.work import Work
    from repro.winsys import Compute, GetMessage, SetTimer

    yield SetTimer(timer_id=1, period_ns=ns_from_ms(100))
    while True:
        yield GetMessage()
        yield Compute(Work(20_000, label="on-timer"))


@pytest.mark.parametrize("case", list(_LIVE_EVENT_BOUNDS))
def test_idle_tick_span(benchmark, case):
    """10 idle simulated seconds, instrumented, the way the fleet runs them.

    The session is open with trace and metrics off (the fleet's
    configuration), so idle clock periods — quiet ticks, housekeeping
    ticks, Win95's background activity and, in the ``-timer`` cases, the
    tick DPC of an armed app timer — are completed analytically in tick
    spans; only the timer's firings and the ticks where a span meets a
    segment end execute event by event.  ``live_events`` is the count
    of engine events that ran rather than being synthesized.
    """
    os_name, _, app = case.partition("-")

    def run():
        with observed(trace=False, metrics=False):
            system = boot(os_name)
            if app:
                system.spawn("timer-app", _word_style_timer_app())
            instrument = IdleLoopInstrument(system)
            instrument.install()
            system.run_for(ns_from_ms(_SPAN_SIM_MS))
        return system.sim, instrument.samples_collected

    sim, samples = benchmark(run)
    live = sim.events_executed - sim.events_fast_forwarded
    assert samples >= 9_000
    assert live <= _LIVE_EVENT_BOUNDS[case], f"{live} live events"
    benchmark.extra_info["sim_ns"] = ns_from_ms(_SPAN_SIM_MS)
    benchmark.extra_info["events"] = sim.events_executed
    benchmark.extra_info["live_events"] = live
