"""Attaching the observability session to one booted system.

:func:`instrument_system` is called by :func:`repro.winsys.boot` when an
observability session is active; it builds one
:class:`SystemInstrumentation` and hands it to the kernel
(``kernel.obs``), the interrupt controller, the I/O manager, the hook
manager and every created thread's message queue.  Nothing here imports
:mod:`repro.winsys` — the instrumentation is duck-typed over the booted
system, which keeps the dependency arrow pointing one way (winsys →
obs) and the disabled path a plain ``obs is None`` check.

Track layout per simulated OS (one Perfetto *process* per boot):

===========  ==========================================================
track        contents
===========  ==========================================================
``cpu``      what the processor executes: ``run:<thread>`` and
             ``dpc:<label>`` spans, serialized (depth 1)
``irq``      one instant per interrupt delivery (genuine and spurious)
``io``       ``sync-io-wait`` spans while synchronous I/O is
             outstanding (the Figure 2 FSM input)
``faults``   one instant per fault injection
per-thread   ``handle:<WM_*>`` app-event spans plus ``post:``/``get:``
             message instants — one track per simulated thread
===========  ==========================================================

Every hook reads the simulated clock and records; none schedules
events, draws random numbers, or mutates kernel state, which is why
payloads stay byte-identical with observability on
(``tests/test_obs_determinism.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

from .envelope import EnvelopeRecorder
from .metrics import NULL_REGISTRY
from .runtime import ObsSession
from .tracer import NULL_TRACER

__all__ = ["SystemInstrumentation", "instrument_system"]

#: Reserved track ids within each simulated process.
CPU_TRACK = 1
IRQ_TRACK = 2
IO_TRACK = 3
FAULTS_TRACK = 4
FIRST_THREAD_TRACK = 5

_DPC_OWNER = object()  # cpu-track owner sentinel while a DPC executes


def _message_kind(message) -> str:
    kind = getattr(message, "kind", message)
    return getattr(kind, "name", str(kind))


class SystemInstrumentation:
    """Observer wired into one booted system's kernel and devices."""

    def __init__(self, system, os_name: str, session: ObsSession) -> None:
        self.system = system
        self.os = os_name
        self._sim = system.machine.sim
        tracer = session.tracer if session.tracer is not None else NULL_TRACER
        registry = (
            session.registry if session.registry is not None else NULL_REGISTRY
        )
        self.tracer = tracer
        self.registry = registry
        #: Whether the session records a trace / metrics.  A session with
        #: neither (the fleet's) leaves the tracer- and registry-only
        #: hooks unwired (see :func:`instrument_system`) and the hooks
        #: shared with stage envelopes stop after the envelope part; a
        #: traced one keeps the kernel on the per-tick path, because
        #: every clock interrupt is an instant on the ``irq`` track.
        self.tracing = session.tracer is not None
        self.sinks = self.tracing or session.registry is not None
        self.pid = tracer.register_process(os_name)
        tracer.register_thread(self.pid, "cpu", tid=CPU_TRACK)
        tracer.register_thread(self.pid, "irq", tid=IRQ_TRACK)
        tracer.register_thread(self.pid, "io", tid=IO_TRACK)
        tracer.register_thread(self.pid, "faults", tid=FAULTS_TRACK)
        #: SimThread.tid -> trace track id.
        self._thread_tracks: Dict[int, int] = {}
        self._next_thread_track = FIRST_THREAD_TRACK
        self._cpu_owner: object = None
        self._io_span_open = False
        #: Stage-envelope recorder; attached by instrument_system when
        #: the session's envelope config is enabled, None otherwise.
        self.envelopes: Optional[EnvelopeRecorder] = None
        #: stage name -> trace track id ("stage:input", ...), lazy.
        self._stage_tracks: Dict[str, int] = {}

        self._ctx_switches = registry.counter(
            "repro_sim_context_switches_total",
            "Involuntary context switches (preemption, quantum expiry).",
        )
        self._interrupts = registry.counter(
            "repro_sim_interrupts_total",
            "Interrupts serviced, by vector; spurious deliveries labeled.",
        )
        self._dpcs = registry.counter(
            "repro_sim_dpcs_total", "Deferred procedure calls retired."
        )
        self._messages = registry.counter(
            "repro_sim_messages_total",
            "Message-queue transitions (post and get).",
        )
        self._queue_depth = registry.gauge(
            "repro_sim_queue_depth_high_water",
            "Maximum message-queue depth observed, per thread.",
        )
        self._api_calls = registry.counter(
            "repro_sim_api_calls_total",
            "Intercepted USER32-style API calls (GetMessage/PeekMessage).",
        )
        self._app_events = registry.counter(
            "repro_sim_app_events_total",
            "Application message-handler dispatches, by message kind.",
        )
        self._threads_created = registry.counter(
            "repro_sim_threads_created_total", "Simulated threads created."
        )
        self._faults = registry.counter(
            "repro_sim_faults_injected_total",
            "Fault injections fired, by fault name and kind.",
        )
        self._io_waits = registry.counter(
            "repro_sim_sync_io_waits_total",
            "Transitions into the outstanding-synchronous-I/O state.",
        )
        self._io_high_water = registry.gauge(
            "repro_sim_sync_io_outstanding_high_water",
            "Maximum concurrent outstanding synchronous I/O operations.",
        )
        self._ff_batches = registry.counter(
            "repro_sim_fast_forward_batches_total",
            "Idle fast-forward batches (analytic idle-loop jumps).",
        )
        self._ff_segments = registry.counter(
            "repro_sim_fast_forward_segments_total",
            "Idle-loop segments completed analytically by fast-forward.",
        )
        self._ff_ns = registry.counter(
            "repro_sim_fast_forward_ns_total",
            "Simulated nanoseconds crossed by idle fast-forward jumps.",
        )
        self._calendar_depth = registry.gauge(
            "repro_sim_calendar_depth_high_water",
            "Maximum event-calendar length (live + cancelled entries).",
        )
        self._calendar_cancelled = registry.gauge(
            "repro_sim_calendar_cancelled_fraction",
            "Cancelled fraction of the event calendar at snapshot time.",
        )
        self._calendar_compactions = registry.gauge(
            "repro_sim_calendar_compactions",
            "Lazy-deletion compactions performed by the event calendar.",
        )
        self._remote_packets = registry.counter(
            "repro_remote_packets_total",
            "Lossy-link packets offered, by direction and outcome.",
        )
        self._remote_retransmits = registry.counter(
            "repro_remote_retransmits_total",
            "ARQ retransmissions of remote input events.",
        )
        self._remote_give_ups = registry.counter(
            "repro_remote_give_ups_total",
            "Remote inputs abandoned after the retry cap.",
        )
        self._remote_frames = registry.counter(
            "repro_remote_frames_total",
            "Remote frame-pipeline decisions, by outcome.",
        )
        self._remote_predictions = registry.counter(
            "repro_remote_predictions_total",
            "Client-side prediction reconciliations, by outcome.",
        )
        self._remote_rto = registry.gauge(
            "repro_remote_rto_ms_high_water",
            "Maximum adaptive retransmission timeout reached (ms).",
        )
        self._remote_backlog = registry.gauge(
            "repro_remote_link_backlog_ms_high_water",
            "Maximum lossy-link serialization backlog observed (ms).",
        )
        #: direction -> trace track id for link-busy spans (lazy; only
        #: remote sessions allocate them).
        self._net_tracks: Dict[str, int] = {}
        if session.registry is not None:
            session.add_flush(self.flush_calendar_stats)

    # ------------------------------------------------------------------
    # Threads and the CPU track
    # ------------------------------------------------------------------
    def thread_created(self, thread) -> int:
        """Register a per-thread track; subscribe to its message queue."""
        track = self._thread_tracks.get(thread.tid)
        if track is not None:
            return track
        track = self.tracer.register_thread(
            self.pid, f"{thread.name} [t{thread.tid}]", tid=self._next_thread_track
        )
        self._next_thread_track = track + 1
        self._thread_tracks[thread.tid] = track
        self._threads_created.inc(os=self.os)
        if self.sinks or self.envelopes is not None:
            thread.queue.add_observer(
                lambda action, message, depth, t=thread: self.queue_event(
                    t, action, message, depth
                )
            )
        return track

    def run_begin(self, thread) -> None:
        now = self._sim.now
        if self._cpu_owner is not None:
            # A stale span (e.g. a cancelled busy-wait) — close it so
            # the CPU track stays serialized at depth 1.
            self.tracer.end(self.pid, CPU_TRACK, now, args={"reason": "switch"})
        self._cpu_owner = thread
        self.tracer.begin(
            f"run:{thread.name}",
            self.pid,
            CPU_TRACK,
            now,
            category="sched",
            args={"tid": thread.tid, "priority": thread.priority},
        )

    def run_end(self, thread, reason: str) -> None:
        if self._cpu_owner is not thread:
            return
        self._cpu_owner = None
        self.tracer.end(self.pid, CPU_TRACK, self._sim.now, args={"reason": reason})

    def context_switch(self, reason: str) -> None:
        self._ctx_switches.inc(os=self.os, reason=reason)

    def fast_forward(self, segments: int, span_ns: int) -> None:
        """One analytic idle batch: ``segments`` completions, ``span_ns`` ns."""
        self._ff_batches.inc(os=self.os)
        self._ff_segments.inc(segments, os=self.os)
        self._ff_ns.inc(span_ns, os=self.os)

    def tick_span(
        self, ticks: int, batches: int, segments: int, span_ns: int
    ) -> None:
        """A tick span completed ``ticks`` quiet clock ticks analytically.

        Adds exactly what the skipped per-tick path would have added:
        one clock-interrupt count per tick and the fast-forward batches
        it would have run between them.  Only called while not tracing.
        """
        self._interrupts.inc(ticks, os=self.os, vector="clock", spurious="false")
        if batches:
            self._ff_batches.inc(batches, os=self.os)
            self._ff_segments.inc(segments, os=self.os)
            self._ff_ns.inc(span_ns, os=self.os)

    def flush_calendar_stats(self) -> None:
        """Publish event-calendar health gauges (run at metrics snapshot)."""
        sim = self._sim
        self._calendar_depth.set_max(sim.calendar_high_water, os=self.os)
        self._calendar_cancelled.set(sim.cancelled_fraction(), os=self.os)
        self._calendar_compactions.set_max(sim.compactions, os=self.os)

    def dpc_begin(self, label: str) -> None:
        now = self._sim.now
        if self._cpu_owner is not None:
            self.tracer.end(self.pid, CPU_TRACK, now, args={"reason": "dpc"})
        self._cpu_owner = _DPC_OWNER
        self.tracer.begin(
            f"dpc:{label or 'dpc'}", self.pid, CPU_TRACK, now, category="dpc"
        )

    def dpc_end(self, label: str) -> None:
        if self._cpu_owner is not _DPC_OWNER:
            return
        self._cpu_owner = None
        self.tracer.end(self.pid, CPU_TRACK, self._sim.now)
        self._dpcs.inc(os=self.os)

    # ------------------------------------------------------------------
    # Interrupts, I/O, faults
    # ------------------------------------------------------------------
    def interrupt(self, vector: str, duration_ns: int, spurious: bool) -> None:
        self.tracer.instant(
            f"irq:{vector}",
            self.pid,
            IRQ_TRACK,
            self._sim.now,
            category="irq",
            args={"duration_ns": duration_ns, "spurious": spurious},
        )
        self._interrupts.inc(
            os=self.os, vector=vector, spurious=str(spurious).lower()
        )

    def sync_io(self, outstanding: int) -> None:
        if self.envelopes is not None:
            self.envelopes.sync_io(outstanding)
        if not self.sinks:
            return
        now = self._sim.now
        if outstanding > 0 and not self._io_span_open:
            self._io_span_open = True
            self.tracer.begin("sync-io-wait", self.pid, IO_TRACK, now, category="io")
            self._io_waits.inc(os=self.os)
        elif outstanding == 0 and self._io_span_open:
            self._io_span_open = False
            self.tracer.end(self.pid, IO_TRACK, now)
        self._io_high_water.set_max(outstanding, os=self.os)

    def fault_injected(self, name: str, kind: str) -> None:
        self.tracer.instant(
            f"fault:{name}",
            self.pid,
            FAULTS_TRACK,
            self._sim.now,
            category="fault",
            args={"kind": kind},
        )
        self._faults.inc(fault=name, kind=kind)

    # ------------------------------------------------------------------
    # Remote interaction (lossy link + resilient transport)
    # ------------------------------------------------------------------
    def _net_track(self, name: str) -> int:
        """Lazily allocate a named network track (``net-up``/``net-down``
        serialization spans, ``net-events`` packet instants)."""
        track = self._net_tracks.get(name)
        if track is None:
            track = self.tracer.register_thread(
                self.pid, name, tid=self._next_thread_track
            )
            self._next_thread_track = track + 1
            self._net_tracks[name] = track
        return track

    def remote_packet(self, direction: str, outcome: str, size_bytes: int) -> None:
        self.tracer.instant(
            f"pkt:{direction}:{outcome}",
            self.pid,
            self._net_track("net-events"),
            self._sim.now,
            category="net",
            args={"size_bytes": size_bytes},
        )
        self._remote_packets.inc(os=self.os, direction=direction, outcome=outcome)

    def remote_link_busy(self, direction: str, start_ns: int, end_ns: int) -> None:
        # Serialization is strictly sequential per direction (each start
        # is >= the previous end), so the span pair stays monotone.
        track = self._net_track(f"net-{direction}")
        self.tracer.begin(
            f"serialize:{direction}", self.pid, track, start_ns, category="net"
        )
        self.tracer.end(self.pid, track, end_ns)

    def remote_backlog(self, direction: str, backlog_ns: int) -> None:
        self._remote_backlog.set_max(
            backlog_ns / 1e6, os=self.os, direction=direction
        )

    def remote_retransmit(self, seq: int, attempt: int, rto_ns: int) -> None:
        self.tracer.instant(
            f"rexmit:{seq}",
            self.pid,
            self._net_track("net-events"),
            self._sim.now,
            category="net",
            args={"attempt": attempt, "rto_ms": rto_ns / 1e6},
        )
        self._remote_retransmits.inc(os=self.os)
        self._remote_rto.set_max(rto_ns / 1e6, os=self.os)

    def remote_give_up(self, seq: int) -> None:
        self.tracer.instant(
            f"give-up:{seq}",
            self.pid,
            self._net_track("net-events"),
            self._sim.now,
            category="net",
        )
        self._remote_give_ups.inc(os=self.os)

    def remote_frame(self, outcome: str) -> None:
        self._remote_frames.inc(os=self.os, outcome=outcome)

    def remote_prediction(self, hit: bool) -> None:
        self._remote_predictions.inc(
            os=self.os, outcome="hit" if hit else "correction"
        )

    # ------------------------------------------------------------------
    # Stage envelopes (per-stage tracks; see repro.obs.envelope)
    # ------------------------------------------------------------------
    def stage_track(self, stage: str) -> int:
        """Lazily allocate the per-stage trace track (``stage:input``,
        ``stage:queue``, ...) within this OS process."""
        track = self._stage_tracks.get(stage)
        if track is None:
            track = self.tracer.register_thread(
                self.pid, f"stage:{stage}", tid=self._next_thread_track
            )
            self._next_thread_track = track + 1
            self._stage_tracks[stage] = track
        return track

    def input_dispatch_begin(self, payload) -> None:
        if self.envelopes is not None:
            self.envelopes.input_dispatch_begin(payload)

    def take_envelope(self, payload):
        if self.envelopes is None:
            return None
        return self.envelopes.take_envelope(payload)

    def pump_idle(self, thread) -> None:
        if self.envelopes is not None:
            self.envelopes.pump_idle(thread)

    # ------------------------------------------------------------------
    # Messages and app events (per-thread tracks)
    # ------------------------------------------------------------------
    def queue_event(self, thread, action: str, message, depth: int) -> None:
        if self.envelopes is not None:
            self.envelopes.on_queue_event(thread, action, message, depth)
        if not self.sinks:
            return
        track = self._thread_tracks.get(thread.tid)
        if track is not None:
            self.tracer.instant(
                f"{action}:{_message_kind(message)}",
                self.pid,
                track,
                self._sim.now,
                category="msg",
                args={"depth": depth},
            )
        self._messages.inc(os=self.os, action=action)
        self._queue_depth.set_max(depth, os=self.os, thread=thread.name)

    def api_call(self, record) -> None:
        self._api_calls.inc(os=self.os, api=record.api)

    def app_event_begin(self, thread, message) -> None:
        if not self.sinks:
            return
        track = self._thread_tracks.get(thread.tid)
        if track is None:
            track = self.thread_created(thread)
        kind = _message_kind(message)
        self.tracer.begin(
            f"handle:{kind}",
            self.pid,
            track,
            self._sim.now,
            category="app",
            args={"from_input": bool(getattr(message, "from_input", False))},
        )
        self._app_events.inc(os=self.os, kind=kind)

    def app_event_end(self, thread, message) -> None:
        if self.envelopes is not None:
            self.envelopes.on_app_event_end(thread, message)
        track = self._thread_tracks.get(thread.tid)
        if track is None or not self.sinks:
            return
        self.tracer.end(self.pid, track, self._sim.now)


def instrument_system(system, os_name: str, session: ObsSession):
    """Wire a :class:`SystemInstrumentation` into one booted system."""
    instrumentation = SystemInstrumentation(system, os_name, session)
    config = session.envelope_config
    if config.enabled:
        instrumentation.envelopes = EnvelopeRecorder(
            system, os_name, instrumentation, config
        )
        session.register_envelopes(instrumentation.envelopes)
        system.machine.interrupts.obs_deliver = (
            instrumentation.envelopes.input_injected
        )
    system.obs = instrumentation
    kernel = system.kernel
    kernel.obs = instrumentation
    if instrumentation.sinks:
        # Hooks whose only output is a trace event or a metric; a
        # sink-less session leaves them unwired instead of feeding them
        # to the null tracer and registry.
        kernel.obs_sinks = instrumentation
        system.machine.interrupts.obs = instrumentation.interrupt
        kernel.hooks.register("*", instrumentation.api_call)
    if instrumentation.sinks or instrumentation.envelopes is not None:
        kernel.iomgr.add_sync_observer(instrumentation.sync_io)
    for thread in kernel.threads:
        instrumentation.thread_created(thread)
    return instrumentation
