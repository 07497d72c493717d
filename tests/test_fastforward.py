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


def _system_state(system, instrument=None):
    """Every observable a skipped tick could have moved."""
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
        "busy_ns": system.machine.cpu.busy_ns,
        "perf": dict(system.perf._tally),
        "residual": dict(system.perf._residual),
        "ticks": system.machine.clock.ticks,
        "delivered": dict(system.machine.interrupts.delivered),
        "context_switches": kernel.context_switches,
        "dpcs_run": kernel.dpcs_run,
        "quantum_ticks": [t.quantum_ticks_used for t in kernel.threads],
    }
    if instrument is not None:
        state["records"] = instrument.buffer.records()
        state["dropped"] = instrument.buffer.dropped
    return state


def _idle_run(os_name, fast_forward, *, instrumented=True, chunks_ms=None,
              capacity=2_000_000, sim_ms=SPAN_TICKS * 10.0):
    """Boot, idle (optionally instrumented) in ``chunks_ms`` run_for calls."""
    set_fast_forward_default(fast_forward)
    system = boot(os_name)
    instrument = None
    if instrumented:
        instrument = IdleLoopInstrument(system, buffer_capacity=capacity)
        instrument.install()
    for chunk in chunks_ms or [sim_ms]:
        system.run_for(ns_from_ms(chunk))
    return system, instrument


def _spanned_events(system):
    """Synthesized events beyond plain fast-forward segments."""
    return system.sim.events_fast_forwarded - system.kernel.fast_forward_segments


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
        against the ISR return: the span declines that tick."""
        from repro.winsys.kernel import Kernel

        declined = []
        span_ticks = Kernel._span_ticks

        def watched(kernel, work=None, duration=0, space=0):
            clock = kernel.machine.clock
            window = clock.span_window()
            quiet = (clock.ticks + 1) % kernel.personality.housekeeping_period_ticks
            result = span_ticks(kernel, work, duration, space)
            if window is not None and duration and quiet:
                tick_ns = window[0]
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
        assert spanned[2] == per_tick[2]
        assert _system_state(spanned[0], spanned[1]) == _system_state(
            per_tick[0], per_tick[1]
        )
        # Against the slow path, only the fast-forward counters differ.
        slow = self._observed_run(False, trace=False, metrics=True)
        strip = lambda snap: {  # noqa: E731
            name: family
            for name, family in snap["counters"].items()
            if "fast_forward" not in name
        }
        assert strip(spanned[2]) == strip(slow[2])

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
        sim.schedule(10, lambda: windows.append(sim.tick_span_window(hid)))
        sim.schedule_kind_at(1_000, hid)
        sim.run(until_ns=horizon, until=until, max_events=max_events)
        return windows

    def test_window_bounded_by_horizon(self):
        assert self._clocked() == [(1_000, 50_000)]

    def test_window_bounded_by_next_entry(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        windows = []
        sim.schedule(10, lambda: windows.append(sim.tick_span_window(hid)))
        sim.schedule_kind_at(1_000, hid)
        cancelled = sim.schedule(7_000, lambda: None)
        cancelled.cancel()  # a cancelled entry still bounds the span
        sim.schedule(9_000, lambda: None)
        sim.run(until_ns=50_000)
        assert windows == [(1_000, 6_999)]

    def test_no_window_under_predicate_or_event_budget(self):
        assert self._clocked(until=lambda: False) == [None]
        assert self._clocked(max_events=5) == [None]

    def test_no_window_outside_run_or_when_head_is_not_the_tick(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        sim.schedule_kind_at(1_000, hid)
        assert sim.tick_span_window(hid) is None  # not inside run()
        other = sim.register_handler(lambda: None)
        windows = []
        sim.schedule(10, lambda: windows.append(sim.tick_span_window(other)))
        sim.run(until_ns=5_000)
        assert windows == [None]

    def test_commit_rekeys_the_tick(self):
        sim = Simulator()
        fired = []
        hid = sim.register_handler(lambda: fired.append((sim.now, sim._seq)))

        def span():
            tick_ns, limit = sim.tick_span_window(hid)
            assert (tick_ns, limit) == (1_000, 40_000)
            sim.commit_tick_span(
                tick_ns=31_000, tick_seq=sim._seq + 5, now_ns=20_500,
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

    def test_commit_refuses_to_cross_horizon(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        errors = []

        def span():
            try:
                sim.commit_tick_span(1_200, sim._seq, 1_100, sim._seq + 1, 2, 0)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(10, span)
        sim.schedule_kind_at(1_000, hid)
        sim.run(until_ns=1_050)
        assert len(errors) == 1
