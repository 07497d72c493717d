"""The idle fast-forward path must be bit-identical to normal execution.

Every test here runs the same workload with the optimisation on and
off and asserts the *outputs* — trace records, clocks, counters,
serialized payloads, golden digests — match exactly.  The fast path is
an optimisation of the simulator, not of the simulated system; if any
of these fail, it changed the physics.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IdleLoopInstrument
from repro.core.isrcost import InterruptCostProbe
from repro.sim.engine import (
    SimulationError,
    Simulator,
    fast_forward_default,
    set_fast_forward_default,
)
from repro.sim.timebase import ns_from_ms
from repro.winsys import boot

PERSONALITIES = ("nt351", "nt40", "win95")


@pytest.fixture(autouse=True)
def _restore_fast_forward_default():
    saved = fast_forward_default()
    yield
    set_fast_forward_default(saved)


def _idle_state(os_name, fast_forward, loop_ms=1.0, sim_ms=500.0):
    """Boot, trace an idle system, return every observable we compare."""
    set_fast_forward_default(fast_forward)
    system = boot(os_name)
    instrument = IdleLoopInstrument(system, loop_ms=loop_ms)
    instrument.install()
    system.run_for(ns_from_ms(sim_ms))
    return {
        "records": instrument.buffer.records(),
        "now": system.now,
        "events_executed": system.sim.events_executed,
        "seq": system.sim._seq,
        "busy_ns": system.machine.cpu.busy_ns,
        "batches": system.kernel.fast_forward_batches,
        "segments": system.kernel.fast_forward_segments,
        "ff_events": system.sim.events_fast_forwarded,
    }


class TestIdleEquivalence:
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_idle_trace_identical_with_and_without(self, os_name):
        on = _idle_state(os_name, fast_forward=True)
        off = _idle_state(os_name, fast_forward=False)
        assert on["batches"] > 0, "fast forward never fired on an idle system"
        assert on["segments"] > 0
        assert on["ff_events"] > 0
        assert off["batches"] == 0
        assert off["ff_events"] == 0
        assert on["records"] == off["records"]
        assert on["now"] == off["now"]
        assert on["busy_ns"] == off["busy_ns"]
        # The accounting contract: skipped segments count as executed
        # events and consume sequence numbers, so every event scheduled
        # after a batch carries the same (time, seq) key either way.
        assert on["events_executed"] == off["events_executed"]
        assert on["seq"] == off["seq"]

    def test_fine_loop_equivalence(self):
        # The high-resolution regime the ablation benchmark exercises.
        on = _idle_state("nt40", True, loop_ms=0.25, sim_ms=200.0)
        off = _idle_state("nt40", False, loop_ms=0.25, sim_ms=200.0)
        assert on["batches"] > 0
        assert on["records"] == off["records"]
        assert on["seq"] == off["seq"]

    def test_interrupt_cost_probe_parity(self):
        """Per-record counter readings pair identically (record_hook)."""
        reports = {}
        readings = {}
        for fast_forward in (True, False):
            set_fast_forward_default(fast_forward)
            system = boot("nt40")
            probe = InterruptCostProbe(system, loop_us=50.0)
            report = probe.measure(duration_ms=200.0)
            reports[fast_forward] = report
            readings[fast_forward] = list(probe._interrupt_readings)
        assert readings[True] == readings[False]
        assert (
            reports[True].single_interrupt_cycles
            == reports[False].single_interrupt_cycles
        )
        assert reports[True].interrupts_observed == reports[False].interrupts_observed


class TestPayloadEquivalence:
    def test_fig1_payload_byte_identical(self):
        from repro.core.serialize import experiment_to_dict
        from repro.experiments.registry import run_experiment
        from repro.verify.golden import canonical_json

        blobs = {}
        for fast_forward in (True, False):
            set_fast_forward_default(fast_forward)
            payload = experiment_to_dict(run_experiment("fig1", seed=0))
            blobs[fast_forward] = canonical_json(payload)
        assert blobs[True] == blobs[False]

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_strict_invariant_probe_outcomes_identical(self, os_name):
        """The --strict-invariants probe matrix must reach the same
        verdicts (and pass) with the fast path on and off."""
        from repro.verify.invariants import InvariantChecker, summarize_reports
        from repro.verify.probe import gather_probe_evidence

        checker = InvariantChecker()
        summaries = {}
        for fast_forward in (True, False):
            set_fast_forward_default(fast_forward)
            reports = checker.check(gather_probe_evidence(os_name, seed=0))
            summaries[fast_forward] = summarize_reports(reports)
        assert summaries[True] == summaries[False]
        assert summaries[True]["failed"] == []

    def test_golden_digests_hold_with_fast_forward_off(self):
        """The committed digests were blessed with the optimisation on;
        the slow path must reproduce them byte for byte."""
        from repro.verify.golden import check_golden

        set_fast_forward_default(False)
        for entry in check_golden():
            assert entry["status"] == "matched", entry


class TestEngineFastForward:
    def test_budget_bounded_by_next_event(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        # Segments of 300 ns: 3 fit strictly before the event at 1000.
        assert sim.fast_forward_budget(300) == 3
        # A segment that would land exactly on the event must run normally.
        assert sim.fast_forward_budget(500) == 1
        assert sim.fast_forward_budget(1000) == 0

    def test_budget_zero_when_event_is_immediate(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        assert sim.fast_forward_budget(100) == 0

    def test_budget_zero_without_any_bound(self):
        # Empty calendar, no horizon: nothing to fast-forward *to*.
        assert Simulator().fast_forward_budget(100) == 0

    def test_budget_respects_run_horizon(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append(sim.fast_forward_budget(300))

        sim.schedule(100, probe)
        sim.run(until_ns=1000)
        # From now=100, 3 segments of 300 ns fit at or before 1000.
        assert seen == [3]

    def test_budget_zero_under_max_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.fast_forward_budget(10)))
        sim.schedule(10_000, lambda: None)
        sim.run(max_events=2)
        assert seen == [0]

    def test_fast_forward_advances_all_counters(self):
        sim = Simulator()
        sim.schedule(10_000, lambda: None)
        seq_before = sim._seq
        sim.fast_forward(3 * 300, events=3)
        assert sim.now == 900
        assert sim._seq == seq_before + 3
        assert sim.events_executed == 3
        assert sim.events_fast_forwarded == 3

    def test_fast_forward_refuses_to_cross_pending_event(self):
        sim = Simulator()
        sim.schedule(500, lambda: None)
        with pytest.raises(SimulationError):
            sim.fast_forward(500, events=1)

    def test_fast_forward_refuses_to_cross_horizon(self):
        sim = Simulator()
        errors = []

        def jump():
            try:
                sim.fast_forward(10_000, events=1)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(10, jump)
        sim.run(until_ns=100)
        assert len(errors) == 1

    def test_fast_forward_rejects_negative(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.fast_forward(-1, events=0)
        with pytest.raises(SimulationError):
            sim.fast_forward(0, events=-1)


class TestObservability:
    def test_fast_forward_and_calendar_metrics_surface(self):
        from repro.obs import observed

        with observed(metrics=True) as session:
            system = boot("nt40")
            instrument = IdleLoopInstrument(system)
            instrument.install()
            system.run_for(ns_from_ms(300))
            snapshot = session.metrics_snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        batches = counters["repro_sim_fast_forward_batches_total"]["samples"]
        assert batches[0]["value"] > 0
        segments = counters["repro_sim_fast_forward_segments_total"]["samples"]
        assert segments[0]["value"] >= batches[0]["value"]
        assert "repro_sim_fast_forward_ns_total" in counters
        depth = gauges["repro_sim_calendar_depth_high_water"]["samples"]
        assert depth[0]["value"] > 0
        assert "repro_sim_calendar_cancelled_fraction" in gauges
        assert "repro_sim_calendar_compactions" in gauges


class TestRunnerFlag:
    def test_no_fast_forward_flag_runs_clean(self, tmp_path):
        from repro.experiments.runner import main

        rc = main(
            [
                "fig1",
                "--jobs",
                "1",
                "--no-cache",
                "--checks-only",
                "--no-fast-forward",
            ]
        )
        assert rc == 0
        assert fast_forward_default() is False  # flag reached the global


# ----------------------------------------------------------------------
# Tick spans: whole quiet clock periods completed analytically
# ----------------------------------------------------------------------

#: Idle ticks per span comparison: more than the 250 / 222 / 167 ticks
#: after which the segment/tick phase wraps on NT 4.0 / NT 3.51 / Win95,
#: so every alignment — including a tick landing exactly on a segment
#: end — is crossed at least once.
SPAN_TICKS = 3200


def _system_state(system, instrument=None, fast_forward_counters=False):
    """Every observable a skipped tick could have moved.

    ``fast_forward_counters`` adds the fast-forward batch and segment
    counts, which differ by design between fast forward on and off:
    compare them only between two fast-forward runs (spanned or not).
    """
    sim = system.sim
    kernel = system.kernel
    live = [] if sim._next is None else [sim._next[:2]]
    live += sorted(entry[:2] for entry in sim._queue)
    state = {
        "now": sim.now,
        "seq": sim._seq,
        "events_executed": sim.events_executed,
        "calendar": live,
        "calendar_high_water": sim.calendar_high_water,
        "compactions": sim.compactions,
        "cancelled": (sim._cancelled, sorted(sim._kind_cancelled)),
        "busy_ns": system.machine.cpu.busy_ns,
        "perf": dict(system.perf._tally),
        "residual": dict(system.perf._residual),
        "ticks": system.machine.clock.ticks,
        "delivered": dict(system.machine.interrupts.delivered),
        "context_switches": kernel.context_switches,
        "dpcs_run": kernel.dpcs_run,
        "timers": [  # thread ids come from a process-wide counter
            (kernel.threads.index(timer.thread), timer.timer_id, timer.next_due_ns)
            for timer in kernel._timers.values()
        ],
        "threads": [
            (t.state, t.quantum_ticks_used, t.dispatches) for t in kernel.threads
        ],
    }
    if fast_forward_counters:
        state["fast_forward"] = (
            kernel.fast_forward_batches,
            kernel.fast_forward_segments,
        )
    if instrument is not None:
        state["records"] = instrument.buffer.records()
        state["dropped"] = instrument.buffer.dropped
    return state


def _reset_high_water(system):
    """Start the calendar high-water mark from the current depth.

    Boot schedules more entries than an idle system ever holds again,
    so a peak recorded during boot would mask a span that under-counts
    its own peak; both sides of a comparison reset it the same way.
    """
    system.sim.calendar_high_water = system.sim.calendar_depth()


def _idle_run(os_name, fast_forward, *, instrumented=True, chunks_ms=None,
              capacity=2_000_000, sim_ms=SPAN_TICKS * 10.0):
    """Boot, idle (optionally instrumented) in ``chunks_ms`` run_for calls."""
    set_fast_forward_default(fast_forward)
    system = boot(os_name)
    instrument = None
    if instrumented:
        instrument = IdleLoopInstrument(system, buffer_capacity=capacity)
        instrument.install()
    _reset_high_water(system)
    for chunk in chunks_ms or [sim_ms]:
        system.run_for(ns_from_ms(chunk))
    return system, instrument


def _spanned_events(system):
    """Synthesized events beyond plain fast-forward segments."""
    return system.sim.events_fast_forwarded - system.kernel.fast_forward_segments


def _live_events(system):
    """Events the engine actually executed (not synthesized)."""
    return system.sim.events_executed - system.sim.events_fast_forwarded


def _chunks(seed, total_ms, max_chunk_ms=97.3):
    rng = random.Random(seed)
    chunks = []
    while total_ms > 0:
        chunk = min(total_ms, round(rng.uniform(0.001, max_chunk_ms), 6))
        chunks.append(chunk)
        total_ms -= chunk
    return chunks


class TestTickSpanEquivalence:
    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_long_idle_identical(self, os_name, instrumented):
        on, on_instr = _idle_run(os_name, True, instrumented=instrumented)
        off, off_instr = _idle_run(os_name, False, instrumented=instrumented)
        assert on.machine.clock.ticks >= SPAN_TICKS
        assert _spanned_events(on) > 0, "no tick was ever spanned"
        assert off.sim.events_fast_forwarded == 0
        # Housekeeping and background DPC episodes are spanned too: a
        # handful of events around boot run live, not one per episode.
        assert on.kernel.dpcs_run >= SPAN_TICKS // 10 - 1
        assert _live_events(on) < 40
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_random_chunking_identical(self, os_name, instrumented):
        # Horizons land anywhere: inside spans, on ticks, between a tick
        # and its ISR return, inside elongated segments.
        chunks = _chunks(seed=len(os_name) * 7 + instrumented, total_ms=8_000.0)
        on, on_instr = _idle_run(
            os_name, True, instrumented=instrumented, chunks_ms=chunks
        )
        off, off_instr = _idle_run(
            os_name, False, instrumented=instrumented, chunks_ms=chunks
        )
        assert _spanned_events(on) > 0
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_first_ticks_after_boot_identical(self, os_name, instrumented):
        # Before the first housekeeping tick only boot and spanned ticks
        # have run: a span that starts from boot state must land it the
        # same way.
        on, on_instr = _idle_run(os_name, True, instrumented=instrumented, sim_ms=95.0)
        off, off_instr = _idle_run(
            os_name, False, instrumented=instrumented, sim_ms=95.0
        )
        assert _spanned_events(on) > 0
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    @given(
        os_name=st.sampled_from(PERSONALITIES),
        instrumented=st.booleans(),
        chunks_us=st.lists(
            st.integers(min_value=1, max_value=120_000), min_size=1, max_size=40
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_chunking_identical(self, os_name, instrumented, chunks_us):
        chunks = [us / 1000.0 for us in chunks_us]
        on, on_instr = _idle_run(
            os_name, True, instrumented=instrumented, chunks_ms=chunks
        )
        off, off_instr = _idle_run(
            os_name, False, instrumented=instrumented, chunks_ms=chunks
        )
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_nearly_full_trace_buffer(self, os_name):
        # The buffer fills mid-span: the span must stop at the last
        # record that fits and the loop exit exactly where it would.
        capacity = 4_321
        on, on_instr = _idle_run(os_name, True, capacity=capacity, sim_ms=6_000.0)
        off, off_instr = _idle_run(os_name, False, capacity=capacity, sim_ms=6_000.0)
        assert on_instr.buffer.space_left == 0
        assert on_instr.thread.done
        assert _spanned_events(on) > 0
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    def test_record_hook_keeps_per_tick_path(self):
        """The isrcost probe reads a counter at every record; the ISRs
        move it, so batches must stop short of every tick."""
        readings = {}
        for fast_forward in (True, False):
            set_fast_forward_default(fast_forward)
            system = boot("nt40")
            probe = InterruptCostProbe(system, loop_us=250.0)
            report = probe.measure(duration_ms=1_500.0)
            readings[fast_forward] = (
                list(probe._interrupt_readings),
                report.single_interrupt_cycles,
                _system_state(system, probe.instrument),
            )
            if fast_forward:
                assert system.kernel.fast_forward_segments > 0
                assert _spanned_events(system) == 0
        assert readings[True] == readings[False]

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_run_until_quiescent_identical(self, os_name):
        """An ``until`` predicate is evaluated between every two events,
        so spans stand down while it is active — and resume afterwards."""
        from repro.apps import NotepadApp

        states = {}
        for fast_forward in (True, False):
            set_fast_forward_default(fast_forward)
            system = boot(os_name)
            app = NotepadApp(system)
            app.start(foreground=True)
            instrument = IdleLoopInstrument(system)
            instrument.install()
            system.run_for(ns_from_ms(50))
            for char in "span":
                system.machine.keyboard.keystroke(char)
                system.run_until_quiescent(max_ns=system.now + ns_from_ms(2_000))
            system.run_for(ns_from_ms(3_000))
            states[fast_forward] = _system_state(system, instrument)
            if fast_forward:
                assert _spanned_events(system) > 0
        assert states[True] == states[False]

    def test_tick_on_segment_end_falls_back(self, monkeypatch):
        """A tick landing exactly on a segment end races the completion
        against the ISR return (or, on a housekeeping tick, against the
        preempting dispatch): the span declines that tick."""
        from repro.winsys.kernel import Kernel

        declined = []
        span_ticks = Kernel._span_ticks

        def watched(kernel, work=None, duration=0, space=0):
            clock = kernel.machine.clock
            window = clock.span_window()
            result = span_ticks(kernel, work, duration, space)
            if window is not None and window[1][0] is not None and duration:
                tick_ns = window[1][0][0]
                gap = tick_ns - kernel.sim.now
                if gap > 0 and gap % duration == 0:
                    assert result is None
                    declined.append(tick_ns)
            return result

        monkeypatch.setattr(Kernel, "_span_ticks", watched)
        on, on_instr = _idle_run("nt40", True, sim_ms=15_000.0)
        assert declined, "the phase never aligned a tick with a segment end"
        monkeypatch.setattr(Kernel, "_span_ticks", span_ticks)
        off, off_instr = _idle_run("nt40", False, sim_ms=15_000.0)
        assert _system_state(on, on_instr) == _system_state(off, off_instr)


# ----------------------------------------------------------------------
# DPC episodes inside tick spans: housekeeping, armed timers, Win95
# background activity
# ----------------------------------------------------------------------


def _timer_program(period_ms, exit_after=None):
    """A Word-style app thread: arm a timer, then block in GetMessage,
    doing a little work per WM_TIMER (and exiting after ``exit_after``
    of them, leaving its timer armed for the kernel to reap)."""
    from repro.sim.work import Work
    from repro.winsys import Compute, GetMessage, SetTimer
    from repro.winsys.messages import WM

    def program():
        yield SetTimer(timer_id=1, period_ns=ns_from_ms(period_ms))
        handled = 0
        while True:
            message = yield GetMessage()
            if message.kind == WM.TIMER:
                handled += 1
                yield Compute(Work(50_000, label="on-timer"))
                if exit_after is not None and handled >= exit_after:
                    return

    return program()


def _app_run(os_name, fast_forward, *, instrumented, period_ms, exit_after=None,
             sim_ms=SPAN_TICKS * 10.0, chunks_ms=None, personality=None):
    """An idle system whose only app waits on an armed timer."""
    set_fast_forward_default(fast_forward)
    if personality is None:
        system = boot(os_name)
    else:
        from repro.winsys.system import WindowsSystem

        system = WindowsSystem(personality).boot()
    system.spawn("timer-app", _timer_program(period_ms, exit_after))
    instrument = None
    if instrumented:
        instrument = IdleLoopInstrument(system)
        instrument.install()
    _reset_high_water(system)
    for chunk in chunks_ms or [sim_ms]:
        system.run_for(ns_from_ms(chunk))
    return system, instrument


class TestDpcSpanEquivalence:
    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    @pytest.mark.parametrize("period_ms", [100, 2_500], ids=["100ms", "2500ms"])
    def test_armed_timer_identical(self, os_name, instrumented, period_ms):
        """Every idle tick runs the tick DPC while the timer is armed;
        the span stops only at the ticks where it comes due."""
        on, on_instr = _app_run(
            os_name, True, instrumented=instrumented, period_ms=period_ms
        )
        off, off_instr = _app_run(
            os_name, False, instrumented=instrumented, period_ms=period_ms
        )
        assert on.kernel._timers, "the timer must stay armed"
        assert on.kernel.dpcs_run > SPAN_TICKS  # a tick DPC per tick
        firings = SPAN_TICKS * 10 // period_ms
        assert _live_events(on) < (firings + 10) * 40
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_armed_timer_random_chunking_identical(self, os_name, instrumented):
        chunks = _chunks(seed=len(os_name) * 11 + instrumented, total_ms=6_000.0)
        runs = [
            _app_run(os_name, ff, instrumented=instrumented, period_ms=100,
                     chunks_ms=chunks)
            for ff in (True, False)
        ]
        assert _system_state(*runs[0]) == _system_state(*runs[1])

    @given(
        os_name=st.sampled_from(PERSONALITIES),
        instrumented=st.booleans(),
        period_ms=st.sampled_from([10, 30, 100, 1_000]),
        chunks_us=st.lists(
            st.integers(min_value=1, max_value=150_000), min_size=1, max_size=30
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_armed_timer_any_chunking_identical(
        self, os_name, instrumented, period_ms, chunks_us
    ):
        chunks = [us / 1000.0 for us in chunks_us]
        runs = [
            _app_run(os_name, ff, instrumented=instrumented, period_ms=period_ms,
                     chunks_ms=chunks)
            for ff in (True, False)
        ]
        assert _system_state(*runs[0]) == _system_state(*runs[1])

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_finished_threads_timer_reaped_on_the_same_tick(self, os_name, instrumented):
        """The thread exits with its timer armed; the first tick after
        that reaps it — inside a span with fast forward on."""
        reaped = {}
        for ff in (True, False):
            system, instrument = _app_run(
                os_name, ff, instrumented=instrumented, period_ms=40,
                exit_after=3, sim_ms=100.0,
            )
            assert system.kernel._timers  # exited at 120 ms, not yet reaped
            system.run_for(ns_from_ms(3_000.0))
            assert not system.kernel._timers
            reaped[ff] = _system_state(system, instrument)
        assert reaped[True] == reaped[False]

    def test_word_background_timer_identical(self):
        """Word's lazy background drain arms a 100 ms timer after input
        and kills it once the queue is empty."""
        from repro.apps import WordApp

        states = {}
        for ff in (True, False):
            set_fast_forward_default(ff)
            system = boot("nt40")
            app = WordApp(system)
            app.start(foreground=True)
            instrument = IdleLoopInstrument(system)
            instrument.install()
            _reset_high_water(system)
            system.run_for(ns_from_ms(50))
            for char in "spanning ticks":
                system.machine.keyboard.keystroke(char)
                system.run_for(ns_from_ms(150))
            armed_after_input = bool(system.kernel._timers)
            system.run_for(ns_from_ms(20_000))
            states[ff] = (armed_after_input, _system_state(system, instrument))
            if ff:
                assert app.bg_units_run > 0
        assert states[True][0], "Word never armed its background timer"
        assert states[True] == states[False]

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    def test_win95_background_on_tick_instant_spanned(self, monkeypatch, instrumented):
        """55 ms is 5.5 clock periods: every other background instant is
        a tick instant, where the background DPC runs first and the tick
        queues the tick DPC behind it.  Spans cover both phases."""
        from repro.winsys.kernel import Kernel

        live = []
        handler = Kernel._idle_background_tick

        def watched(kernel):
            live.append(kernel.sim.now)
            handler(kernel)

        monkeypatch.setattr(Kernel, "_idle_background_tick", watched)
        on, on_instr = _idle_run("win95", True, instrumented=instrumented, sim_ms=2_000.0)
        on_live = list(live)
        live.clear()
        off, off_instr = _idle_run("win95", False, instrumented=instrumented, sim_ms=2_000.0)
        period = ns_from_ms(10)
        on_tick = [t for t in live if t % period == 0]
        assert len(live) == 36 and len(on_tick) == 18
        assert all(t < ns_from_ms(200) for t in on_live), on_live
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    def test_win95_background_after_on_tick_instants_identical(self, instrumented):
        """Runs that stop right after a shared tick/background instant
        expose the re-keyed tick and background entries."""
        chunks = [112.0] + [110.0] * 17
        on, on_instr = _idle_run("win95", True, instrumented=instrumented, chunks_ms=chunks)
        off, off_instr = _idle_run("win95", False, instrumented=instrumented, chunks_ms=chunks)
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize(
        "os_name, crowd_ms, due_ms",
        [("nt40", 20.5, 48.0), ("win95", 50.5, 56.0)],
        ids=["quiet-ticks-only", "background-only"],
    )
    def test_crowded_span_sets_the_depth_peak(
        self, os_name, crowd_ms, due_ms, instrumented
    ):
        """Foreign entries pending only around one short span (quiet
        ticks 30 and 40 ms; the 55 ms background episode) make that
        span's episodes the run's calendar-depth peak."""
        states = {}
        for ff in (True, False):
            set_fast_forward_default(ff)
            system = boot(os_name)
            instrument = None
            if instrumented:
                instrument = IdleLoopInstrument(system)
                instrument.install()
            _reset_high_water(system)
            sim = system.sim

            def crowd():
                for _ in range(3):
                    sim.schedule_at(ns_from_ms(due_ms), lambda: None)

            sim.schedule_at(ns_from_ms(crowd_ms), crowd)
            system.run_for(ns_from_ms(500.0))
            states[ff] = _system_state(system, instrument)
        assert states[True] == states[False]

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize(
        "variant",
        [
            # Background instants inside elongated segments and tick
            # episodes: the span stops before the next periodic event.
            {"idle_background_period_ns": 10_300_000},
            # Shorter than a clock period: on a shared instant the tick
            # was armed first and runs first (not spanned).
            {"idle_background_period_ns": 5_000_000},
            # A background DPC shorter than the clock ISR: the tick's
            # DPCs would not queue behind it (not spanned).
            {"idle_background_cycles": 300},
            # Empty DPCs: the preempted segment's cancelled completion
            # can outlive the resumed remainder (not spanned).
            {"housekeeping_cycles": 0, "idle_background_cycles": 1},
        ],
        ids=["inside-episodes", "tick-first", "short-dpc", "empty-dpcs"],
    )
    def test_background_variants_identical(self, variant, instrumented):
        import dataclasses

        from repro.winsys import PERSONALITIES as OS_PERSONALITIES
        from repro.winsys.system import WindowsSystem

        personality = dataclasses.replace(OS_PERSONALITIES["win95"], **variant)
        states = {}
        for ff in (True, False):
            set_fast_forward_default(ff)
            system = WindowsSystem(personality).boot()
            instrument = None
            if instrumented:
                instrument = IdleLoopInstrument(system)
                instrument.install()
            _reset_high_water(system)
            # Stop 2 ms after every tick: the calendar then shows the
            # keys the last shared instant's re-arms were given.
            for chunk_ms in [12.0] + [10.0] * 298:
                system.run_for(ns_from_ms(chunk_ms))
                states.setdefault(ff, []).append(_system_state(system, instrument))
            if ff and instrumented:
                assert _spanned_events(system) > 0
        assert states[True] == states[False]

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_episode_overrunning_the_next_tick_falls_back(self, os_name, instrumented):
        """Housekeeping longer than a clock period would still run when
        the next tick fires: those episodes stay per-tick."""
        import dataclasses

        from repro.winsys import PERSONALITIES as OS_PERSONALITIES

        slow = dataclasses.replace(
            OS_PERSONALITIES[os_name], housekeeping_cycles=1_050_000
        )
        states = {}
        for ff in (True, False):
            set_fast_forward_default(ff)
            from repro.winsys.system import WindowsSystem

            system = WindowsSystem(slow).boot()
            instrument = None
            if instrumented:
                instrument = IdleLoopInstrument(system)
                instrument.install()
            _reset_high_water(system)
            system.run_for(ns_from_ms(3_000.0))
            states[ff] = _system_state(system, instrument)
            if ff:
                assert _spanned_events(system) > 0
                # Every housekeeping tick runs live.
                assert _live_events(system) > 300 // 10 * 5
        assert states[True] == states[False]

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_episode_overrunning_the_limit_falls_back(self, os_name, instrumented):
        """A foreign entry due inside a housekeeping episode (or a
        background one) bounds the span just before that episode."""
        states = {}
        for ff in (True, False):
            set_fast_forward_default(ff)
            system = boot(os_name)
            instrument = None
            if instrumented:
                instrument = IdleLoopInstrument(system)
                instrument.install()
            _reset_high_water(system)
            for due_us in (100_050, 200_004, 330_100, 440_003):
                system.sim.schedule_at(due_us * 1_000, lambda: None)
            system.run_for(ns_from_ms(1_000.0))
            states[ff] = _system_state(system, instrument)
        assert states[True] == states[False]

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_requeue_jitter_keeps_preempting_episodes_per_tick(self, os_name):
        """A requeue-jitter source draws at every front re-queue: spans
        may not preempt the idle thread on its behalf."""
        import random as _random

        states = {}
        for ff in (True, False):
            set_fast_forward_default(ff)
            system = boot(os_name)
            instrument = IdleLoopInstrument(system)
            instrument.install()
            rng = _random.Random(7)
            system.kernel.scheduler.set_requeue_jitter(lambda t: rng.random() < 0.5)
            _reset_high_water(system)
            system.run_for(ns_from_ms(2_000.0))
            states[ff] = (_system_state(system, instrument), rng.random())
        assert states[True] == states[False]


class TestTickSpanObservability:
    @staticmethod
    def _observed_run(fast_forward, *, trace, metrics, sim_ms=4_000.0):
        from repro.obs import observed

        set_fast_forward_default(fast_forward)
        with observed(trace=trace, metrics=metrics) as session:
            system = boot("win95")
            instrument = IdleLoopInstrument(system)
            instrument.install()
            system.run_for(ns_from_ms(sim_ms))
            snapshot = session.metrics_snapshot()
            # Thread ids come from a process-wide counter; drop them.
            events = (
                [
                    (e.phase, e.name, e.sim_ns, e.pid, e.tid, e.category,
                     {k: v for k, v in (e.args or {}).items() if k != "tid"})
                    for e in session.tracer.events()
                ]
                if session.tracer is not None
                else None
            )
        return system, instrument, snapshot, events

    def test_traced_run_keeps_every_irq_instant(self):
        on, on_instr, _, on_events = self._observed_run(True, trace=True, metrics=False)
        off, off_instr, _, off_events = self._observed_run(
            False, trace=True, metrics=False
        )
        assert _spanned_events(on) == 0, "a live tracer must disable spans"
        irqs = [e for e in on_events if e[1] == "irq:clock"]
        assert len(irqs) == on.machine.clock.ticks
        assert on_events == off_events
        assert _system_state(on, on_instr) == _system_state(off, off_instr)

    def test_metrics_match_per_tick_fast_forward(self, monkeypatch):
        from repro.winsys.kernel import Kernel

        spanned = self._observed_run(True, trace=False, metrics=True)
        assert _spanned_events(spanned[0]) > 0
        monkeypatch.setattr(Kernel, "_span_ticks", lambda *args, **kwargs: None)
        per_tick = self._observed_run(True, trace=False, metrics=True)
        assert _spanned_events(per_tick[0]) == 0
        counters = spanned[2]["counters"]
        assert counters["repro_sim_dpcs_total"]["samples"][0]["value"] > 100
        switches = counters["repro_sim_context_switches_total"]["samples"]
        assert {sample["labels"]["reason"] for sample in switches} == {"preempt"}
        assert spanned[2] == per_tick[2]
        assert _system_state(spanned[0], spanned[1], True) == _system_state(
            per_tick[0], per_tick[1], True
        )
        # Against the slow path, only the fast-forward counters differ.
        slow = self._observed_run(False, trace=False, metrics=True)
        strip = lambda snap: {  # noqa: E731
            name: family
            for name, family in snap["counters"].items()
            if "fast_forward" not in name
        }
        assert strip(spanned[2]) == strip(slow[2])

    @pytest.mark.parametrize("instrumented", [True, False], ids=["instrument", "bare"])
    def test_metrics_match_per_tick_with_armed_timer(self, monkeypatch, instrumented):
        """Tick DPCs, timer firings and the app's own dispatches: the
        metrics snapshot and every counter match the per-tick path."""
        from repro.obs import observed
        from repro.winsys.kernel import Kernel

        def run():
            with observed(trace=False, metrics=True) as session:
                system, instrument = _app_run(
                    "nt40", True, instrumented=instrumented, period_ms=100,
                    sim_ms=3_000.0,
                )
                snapshot = session.metrics_snapshot()
            return snapshot, _system_state(system, instrument, True), system

        spanned = run()
        assert _spanned_events(spanned[2]) > 0
        monkeypatch.setattr(Kernel, "_span_ticks", lambda *args, **kwargs: None)
        per_tick = run()
        assert _spanned_events(per_tick[2]) == 0
        assert spanned[:2] == per_tick[:2]

    def test_sinkless_session_wires_no_sink_hooks(self):
        from repro.obs import observed

        with observed(trace=False, metrics=False):
            system = boot("nt40")
        assert system.obs is not None and system.kernel.obs is system.obs
        assert system.kernel.obs_sinks is None
        assert system.machine.interrupts.obs is None
        assert not system.hooks.active
        assert system.obs.envelopes is not None  # envelope stamping stays
        with observed(trace=False, metrics=True):
            counted = boot("nt40")
        assert counted.kernel.obs_sinks is counted.obs
        assert counted.machine.interrupts.obs is not None
        assert counted.hooks.active


class TestTickSpanEngine:
    @staticmethod
    def _clocked(until=None, max_events=None, horizon=50_000):
        """A simulator whose only pending entry is a kind 'tick' at 1000."""
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        windows = []
        sim.schedule(10, lambda: windows.append(sim.tick_span_window((hid,))))
        sim.schedule_kind_at(1_000, hid)
        sim.run(until_ns=horizon, until=until, max_events=max_events)
        return windows

    def test_window_bounded_by_horizon(self):
        assert self._clocked() == [(50_000, [(1_000, 1)])]

    def test_window_bounded_by_next_entry(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        windows = []
        sim.schedule(10, lambda: windows.append(sim.tick_span_window((hid,))))
        sim.schedule_kind_at(1_000, hid)
        cancelled = sim.schedule(7_000, lambda: None)
        cancelled.cancel()  # a cancelled entry still bounds the span
        sim.schedule(9_000, lambda: None)
        sim.run(until_ns=50_000)
        assert windows == [(6_999, [(1_000, 1)])]

    def test_window_passes_over_every_periodic_source(self):
        sim = Simulator()
        tick = sim.register_handler(lambda: None)
        background = sim.register_handler(lambda: None)
        other = sim.register_handler(lambda: None)
        windows = []
        sim.schedule(10, lambda: windows.append(sim.tick_span_window((tick, background))))
        sim.schedule_kind_at(3_000, tick)
        sim.schedule_kind_at(2_000, background)  # the head need not be the tick
        sim.schedule_kind_at(8_000, other)
        for _ in range(6):  # deepen the heap: the sources sit below its root
            sim.schedule(20_000, lambda: None)
        sim.run(until_ns=50_000)
        assert windows == [(7_999, [(3_000, 1), (2_000, 2)])]

    def test_window_reports_sources_past_other_work_as_none(self):
        sim = Simulator()
        tick = sim.register_handler(lambda: None)
        background = sim.register_handler(lambda: None)
        windows = []
        sim.schedule(10, lambda: windows.append(sim.tick_span_window((tick, background))))
        sim.schedule_kind_at(1_000, tick)
        sim.schedule(1_500, lambda: None)
        sim.schedule_kind_at(2_000, background)
        sim.run(until_ns=50_000)
        assert windows == [(1_499, [(1_000, 1), None])]

    def test_no_window_under_predicate_or_event_budget(self):
        assert self._clocked(until=lambda: False) == [None]
        assert self._clocked(max_events=5) == [None]

    def test_no_window_outside_run_or_when_head_is_not_the_tick(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        sim.schedule_kind_at(1_000, hid)
        assert sim.tick_span_window((hid,)) is None  # not inside run()
        other = sim.register_handler(lambda: None)
        windows = []
        sim.schedule(10, lambda: windows.append(sim.tick_span_window((other,))))
        sim.run(until_ns=5_000)
        assert windows == [None]

    def test_commit_rekeys_the_tick(self):
        sim = Simulator()
        fired = []
        hid = sim.register_handler(lambda: fired.append((sim.now, sim._seq)))

        def span():
            limit, keys = sim.tick_span_window((hid,))
            assert (limit, keys) == (40_000, [(1_000, 1)])
            sim.commit_tick_span(
                [(31_000, sim._seq + 5, hid)], now_ns=20_500,
                seq=sim._seq + 6, events=9, depth_peak=7,
            )

        sim.schedule(10, span)
        sim.schedule_kind_at(1_000, hid)
        sim.schedule(100_000, lambda: None)
        before = sim._seq
        sim.run(until_ns=40_000)
        assert fired == [(31_000, before + 6)]
        assert sim.events_fast_forwarded == 9
        assert sim.events_executed == 1 + 9 + 1
        assert sim.calendar_high_water == 7

    def test_commit_rekeys_every_source_in_key_order(self):
        sim = Simulator()
        fired = []
        tick = sim.register_handler(lambda: fired.append(("tick", sim.now)))
        background = sim.register_handler(lambda: fired.append(("bg", sim.now)))

        def span():
            limit, keys = sim.tick_span_window((tick, background))
            assert keys == [(1_000, 1), (1_000, 2)]
            seq = sim._seq
            # Both land on one instant; the lower seq must pop first.
            sim.commit_tick_span(
                [(5_000, seq + 3, tick), (5_000, seq + 1, background)],
                now_ns=4_000, seq=seq + 4, events=6, depth_peak=0,
            )

        sim.schedule(10, span)
        sim.schedule_kind_at(1_000, tick)
        sim.schedule_kind_at(1_000, background)
        sim.run(until_ns=40_000)
        assert fired == [("bg", 5_000), ("tick", 5_000)]
        assert sim.now == 40_000

    def test_commit_refuses_handlers_it_did_not_window(self):
        sim = Simulator()
        tick = sim.register_handler(lambda: None)
        other = sim.register_handler(lambda: None)
        errors = []

        def span():
            try:
                sim.commit_tick_span([(9_000, sim._seq, other)], 2_000, sim._seq + 1, 1, 0)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(10, span)
        sim.schedule_kind_at(1_000, tick)
        sim.run(until_ns=1_050)
        assert len(errors) == 1

    def test_commit_refuses_to_cross_horizon(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        errors = []

        def span():
            try:
                sim.commit_tick_span(
                    [(1_200, sim._seq, hid)], 1_100, sim._seq + 1, 2, 0
                )
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(10, span)
        sim.schedule_kind_at(1_000, hid)
        sim.run(until_ns=1_050)
        assert len(errors) == 1
