"""Idle-loop instrumentation (Section 2.3) — the paper's key technique.

The instrument replaces the system idle loop with a low-priority
process that times a fixed computation:

    while (space_left_in_the_buffer) {
        for (i = 0; i < N; i++) ;
        generate_trace_record;
    }

N is calibrated so the inner loop takes one millisecond when the
processor is otherwise idle; each trace record therefore marks one
millisecond of *idle* CPU.  Any non-idle time — event handling,
interrupts, background work — shows up as an elongated interval between
consecutive records.  The loop granularity trades resolution against
trace-buffer size, the trade-off the paper states and which the
``ablation_idle_n`` benchmark quantifies.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..sim.timebase import NS_PER_MS, ns_from_ms
from ..sim.trace import IntTraceBuffer, TraceBuffer
from ..winsys.syscalls import IdleCompute, Syscall
from ..winsys.system import WindowsSystem
from .samples import SampleTrace

__all__ = ["IdleLoopInstrument"]

#: Cost of one pass of the calibration busy-wait unit (cycles).
_UNIT_CYCLES = 100


class IdleLoopInstrument:
    """The replacement idle loop: calibrated busy-wait + trace records."""

    def __init__(
        self,
        system: WindowsSystem,
        loop_ms: float = 1.0,
        buffer_capacity: int = 2_000_000,
    ) -> None:
        if loop_ms <= 0:
            raise ValueError(f"loop_ms must be positive, got {loop_ms}")
        self.system = system
        self.loop_ms = loop_ms
        self.loop_ns = ns_from_ms(loop_ms)
        #: Number of busy-wait iterations per record ("N" in the paper).
        self.n_iterations = self._calibrate()
        self.buffer: TraceBuffer[int] = IntTraceBuffer(buffer_capacity, on_full="stop")
        self.thread = None
        self._installed = False
        #: Optional per-record callback ``hook(timestamp_ns)``, invoked
        #: once for every trace record — including records a fast-forward
        #: batch synthesizes (probes that pair each record with a counter
        #: reading, e.g. :class:`repro.core.isrcost.InterruptCostProbe`,
        #: hook here rather than wrapping ``buffer.append``, which the
        #: batch path bypasses).  While a hook is set, batches stop short
        #: of clock ticks, so counters cannot change between the events
        #: of a batch and the paired readings are identical with
        #: fast-forward on or off.
        self.record_hook: Optional[Callable[[int], None]] = None

    def _calibrate(self) -> int:
        """Choose N so the loop takes ``loop_ms`` on an idle processor.

        On hardware this is an empirical timing run; on the simulator the
        per-iteration cost is known exactly, so calibration is the exact
        division the empirical run converges to.
        """
        cpu_hz = self.system.machine.spec.cpu_hz
        unit_ns = _UNIT_CYCLES * (10**9) / cpu_hz
        return max(1, round(self.loop_ns / unit_ns))

    @property
    def loop_work_cycles(self) -> int:
        return self.n_iterations * _UNIT_CYCLES

    def install(self) -> None:
        """Spawn the instrument at idle priority (replacing the idle loop)."""
        if self._installed:
            raise RuntimeError("idle-loop instrument already installed")
        self._installed = True
        self.thread = self.system.spawn_idle("idle-instrument", self._program())

    def _program(self) -> Iterator[Syscall]:
        work = self.system.personality.app_work(
            self.loop_work_cycles, label="idle-loop"
        )
        system = self.system
        buffer = self.buffer
        # One reusable syscall object: the kernel consumes an IdleCompute
        # at perform time (work + max_batch + span_ticks) and never
        # retains it, so the instrument can mutate the fields between
        # yields instead of allocating a fresh syscall per millisecond.
        syscall = IdleCompute(work, max_batch=0)
        while True:
            space = buffer.space_left
            if not space:
                break
            # max_batch caps any analytic batch at the records that still
            # fit, mirroring this loop's own space_left check.
            syscall.max_batch = space
            hook = self.record_hook
            # A hook pairs each record with a counter reading; clock
            # ISRs move the counters, so batches must not cross ticks.
            syscall.span_ticks = hook is None
            completions = yield syscall
            if completions is None:
                # Segment executed on the (possibly contended) CPU; its
                # elongation, if any, is the measurement.
                now = system.now
                buffer.append(now)
                if hook is not None:
                    hook(now)
            else:
                # The kernel completed these segments analytically; each
                # completion time is the record the loop would have
                # written there.
                buffer.extend(completions)
                if hook is not None:
                    for timestamp in completions:
                        hook(timestamp)

    def trace(self) -> SampleTrace:
        """The trace collected so far, ready for analysis."""
        from ..obs.runtime import record_trace_loss

        record_trace_loss(self.buffer, scope="idle-loop")
        return SampleTrace(self.buffer.records(), loop_ns=self.loop_ns)

    def reset(self) -> None:
        """Discard collected records (e.g. after a warm-up phase)."""
        self.buffer.clear()

    @property
    def samples_collected(self) -> int:
        return len(self.buffer)
