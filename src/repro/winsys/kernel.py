"""The simulated Windows kernel.

Ties the scheduler, message queues, Win32 API layer, I/O manager and
input pipeline to one :class:`~repro.sim.machine.Machine`.  Application
threads are generators yielding :mod:`~repro.winsys.syscalls` objects;
the kernel performs each request, charging its CPU cost through the
machine's CPU model so that *every* cycle of system activity is visible
to an idle-loop instrument — the property the paper's methodology
depends on (Figure 1: the idle loop sees the interrupt handling and
rescheduling that getchar()-timestamping misses).

Scheduling model:

* DPCs (deferred procedure calls) run before any thread; they carry the
  system-side input dispatching, disk completion work and per-tick
  housekeeping.
* Threads run strictly by priority with clock-tick round-robin among
  equals.
* When nothing is runnable the CPU is idle — unless an instrument has
  installed an idle-priority thread (Section 2.3).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..sim.devices.disk import DiskRequest
from ..sim.devices.keyboard import KeyEvent
from ..sim.devices.mouse import MouseEvent
from ..sim.engine import fast_forward_default
from ..sim.machine import Machine
from ..sim.work import Work
from .filesystem import BufferCache, FileSystem
from .gdi import GdiBatch
from .hooks import ApiCallRecord, HookManager
from .iomgr import IoManager
from .messages import WM, Message
from .personality import OSPersonality
from .scheduler import Scheduler
from .syscalls import (
    AsyncRead,
    AsyncWrite,
    BusyWait,
    Compute,
    ExitThread,
    GdiFlush,
    GdiOp,
    GetMessage,
    IdleCompute,
    KillTimer,
    PeekMessage,
    PostMessage,
    ReadCycleCounter,
    SetTimer,
    Sleep,
    SpawnThread,
    Syscall,
    SyncRead,
    SyncWrite,
    UserCall,
    YieldCpu,
)
from .threads import IDLE_PRIORITY, NORMAL_PRIORITY, SimThread, ThreadState

__all__ = ["Kernel", "KernelPanic"]

# Sentinels returned by the syscall perform step.
_BLOCKED = object()
_SPIN_CYCLES = 10**14  # open-ended busy-wait; cancelled, never completed


def _noop() -> None:
    """Shared do-nothing completion (avoids a lambda per async submit)."""


class KernelPanic(RuntimeError):
    """Internal inconsistency in the simulated kernel."""


@dataclass
class _Dpc:
    """One deferred procedure call: system work plus a post-action."""

    work: Work
    action: Optional[Callable[[], None]]
    label: str = ""


class _DpcContext:
    """CPU context marker for DPC execution (not a schedulable thread)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<dpc>"


class _SpinContext:
    """CPU context marker for the Win95 mouse busy-wait."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<mouse-spin>"


@dataclass
class _Timer:
    thread: SimThread
    timer_id: int
    period_ns: int
    next_due_ns: int


class Kernel:
    """Scheduler + syscall dispatcher for one booted operating system."""

    def __init__(self, machine: Machine, personality: OSPersonality) -> None:
        self.machine = machine
        self.personality = personality
        self.sim = machine.sim
        self.cpu = machine.cpu
        self.scheduler = Scheduler()
        self.hooks = HookManager()
        self.filesystem = FileSystem(
            total_blocks=machine.spec.disk_geometry.total_blocks,
            block_size=personality.block_size,
            kind=personality.filesystem_kind,
        )
        self.buffer_cache = BufferCache(personality.buffer_cache_blocks)
        self.iomgr = IoManager(machine.disk, self.buffer_cache, personality)
        self.threads: List[SimThread] = []
        self.foreground: Optional[SimThread] = None
        #: Thread receiving WM_SOCKET notifications (None = foreground).
        self.socket_owner: Optional[SimThread] = None
        self.running: object = None  # SimThread | _DpcContext | None
        self._dpc_context = _DpcContext()
        self._spin_context = _SpinContext()
        self._dpc_queue: Deque[_Dpc] = deque()
        self._active_dpc: Optional[_Dpc] = None
        self._dispatch_scheduled = False
        self._timers: Dict[Tuple[int, int], _Timer] = {}
        self._gdi_batches: Dict[int, GdiBatch] = {}
        #: Override for every thread's GDI batch limit; 1 disables
        #: batching (the partial mitigation Section 1.1 mentions).
        self.gdi_batch_limit_override: Optional[int] = None
        self._spin_active = False
        self._spin_began_ns = 0
        self._pending_mouse_down: Optional[MouseEvent] = None
        self._booted = False
        #: Idle fast-forward switch (see :meth:`_try_fast_forward`).  The
        #: result is bit-identical either way; the process-global default
        #: is flipped by ``--no-fast-forward`` for A/B comparison.
        self.fast_forward = fast_forward_default()
        # Diagnostics.
        self.context_switches = 0
        self.dpcs_run = 0
        self.fast_forward_batches = 0
        self.fast_forward_segments = 0
        #: Observability hook (a SystemInstrumentation from repro.obs),
        #: attached by boot() when a session is active; None otherwise.
        #: Every call site guards with ``is not None`` so the disabled
        #: path costs one attribute check.
        self.obs = None
        #: The same instrumentation when its session has a tracer or a
        #: metrics registry to write to, else None.  Hooks whose only
        #: output is a trace span or a metric go through this one, so a
        #: sink-less session (the fleet's) skips them and keeps only the
        #: stage-envelope hooks on ``obs``.
        self.obs_sinks = None
        # Precompiled engine handler ids for the kernel's own recurring
        # events: one heap tuple each, no handle/closure/label per
        # occurrence (docs/performance.md, "inner loop").
        self._dispatch_hid = self.sim.register_handler(self._dispatch)
        self._idle_bg_hid = self.sim.register_handler(self._idle_background_tick)
        # Precompiled syscall dispatch table: concrete syscall class →
        # bound perform method.  Subclasses resolve through their MRO on
        # first use (see _resolve_perform) and are cached here, so the
        # steady state is one dict hit per syscall instead of an
        # isinstance chain.
        self._perform_table = {
            Compute: self._perform_compute,
            IdleCompute: self._perform_compute,
            GetMessage: self._perform_getmessage,
            PeekMessage: self._perform_peekmessage,
            PostMessage: self._perform_postmessage,
            GdiOp: self._perform_gdiop,
            GdiFlush: self._perform_gdiflush,
            UserCall: self._perform_usercall,
            SyncRead: self._perform_syncread,
            SyncWrite: self._perform_syncwrite,
            AsyncRead: self._perform_asyncread,
            AsyncWrite: self._perform_asyncwrite,
            Sleep: self._perform_sleep,
            SetTimer: self._perform_settimer,
            KillTimer: self._perform_killtimer,
            YieldCpu: self._perform_yield,
            ReadCycleCounter: self._perform_rdtsc,
            SpawnThread: self._perform_spawn,
            ExitThread: self._perform_exit,
            BusyWait: self._perform_busywait,
        }

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Wire interrupt vectors, start the clock, begin dispatching."""
        if self._booted:
            raise KernelPanic("kernel booted twice")
        self._booted = True
        personality = self.personality
        interrupts = self.machine.interrupts
        interrupts.set_isr_work("clock", personality.clock_isr_work)
        interrupts.set_isr_work("keyboard", personality.keyboard_isr_work)
        interrupts.set_isr_work("mouse", personality.mouse_isr_work)
        interrupts.set_isr_work("disk", personality.disk_isr_work)
        interrupts.set_isr_work("nic", personality.nic_isr_work)
        interrupts.set_handler("clock", self._on_clock_tick)
        interrupts.set_handler("keyboard", self._on_keyboard)
        interrupts.set_handler("mouse", self._on_mouse)
        interrupts.set_handler("disk", self._on_disk)
        interrupts.set_handler("nic", self._on_packet)
        self.machine.power_on()
        if personality.idle_background_period_ns > 0:
            self.sim.schedule_kind(
                personality.idle_background_period_ns, self._idle_bg_hid
            )

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def create_thread(
        self,
        name: str,
        program,
        priority: int = NORMAL_PRIORITY,
        process: object = None,
    ) -> SimThread:
        """Create and ready a thread around a generator ``program``."""
        thread = SimThread(name=name, program=program, priority=priority, process=process)
        self.threads.append(thread)
        thread.queue.add_post_callback(
            lambda message, t=thread: self._on_message_posted(t, message)
        )
        if self.obs is not None:
            self.obs.thread_created(thread)
        self.scheduler.make_ready(thread)
        self._request_dispatch()
        return thread

    def set_foreground(self, thread: SimThread) -> None:
        """Give ``thread`` the input focus (messages route to its queue)."""
        self.foreground = thread

    def gdi_batch(self, thread: SimThread) -> GdiBatch:
        batch = self._gdi_batches.get(thread.tid)
        if batch is None:
            batch = GdiBatch(
                self.personality, batch_limit=self.gdi_batch_limit_override
            )
            self._gdi_batches[thread.tid] = batch
        return batch

    def post_message(self, thread: SimThread, message: Message) -> None:
        """Kernel-side message post (input pipeline, drivers)."""
        thread.queue.post(message, self.sim.now)

    def post_to_foreground(self, message: Message) -> None:
        if self.foreground is None:
            raise KernelPanic("no foreground thread to receive input")
        self.post_message(self.foreground, message)

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    def _request_dispatch(self) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        self.sim.schedule_kind(0, self._dispatch_hid)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self._spin_active:
            return  # the busy-wait owns the processor until cancelled
        # DPCs run ahead of any thread.
        if self._dpc_queue:
            if self.cpu.busy:
                if self.running is self._dpc_context:
                    return  # current DPC finishes first, then queue drains
                self._preempt_running_thread()
            self._start_next_dpc()
            return
        if self.cpu.busy:
            if isinstance(self.running, SimThread):
                if self.scheduler.top > self.running.priority:
                    self._preempt_running_thread()
                else:
                    return
            else:
                return  # DPC executing and no further DPCs queued
        if not self.cpu.busy:
            thread = self.scheduler.pick()
            if thread is not None:
                self._run_thread(thread)

    def _preempt_running_thread(self) -> None:
        thread = self.running
        if not isinstance(thread, SimThread):
            raise KernelPanic(f"cannot preempt context {thread!r}")
        context, remaining = self.cpu.preempt()
        if context is not thread:
            raise KernelPanic("CPU context does not match running thread")
        thread.pending_work = remaining
        self.running = None
        self.context_switches += 1
        if self.obs_sinks is not None:
            self.obs_sinks.run_end(thread, "preempt")
            self.obs_sinks.context_switch("preempt")
        self.scheduler.make_ready(thread, front=True)

    def _run_thread(self, thread: SimThread) -> None:
        self.running = thread
        thread.dispatches += 1
        if self.obs_sinks is not None:
            self.obs_sinks.run_begin(thread)
        if thread.pending_work is not None:
            work = thread.pending_work
            thread.pending_work = None
            self.cpu.start(work, thread, self._work_done)
            return
        resume = thread.resume_value
        thread.resume_value = None
        self._advance(thread, resume)

    def _work_done(self, context: object) -> None:
        if context is self._dpc_context:
            dpc = self._active_dpc
            self._active_dpc = None
            self.running = None
            self.dpcs_run += 1
            if self.obs_sinks is not None:
                self.obs_sinks.dpc_end(dpc.label if dpc is not None else "")
            if dpc is not None and dpc.action is not None:
                dpc.action()
            self._request_dispatch()
            return
        if context is self._spin_context:
            raise KernelPanic("mouse busy-wait completed; it must be cancelled")
        thread = context
        if not isinstance(thread, SimThread):
            raise KernelPanic(f"unknown CPU context {context!r}")
        result: object = None
        action = thread.pending_action
        if action is not None:
            thread.pending_action = None
            arg = thread.pending_action_arg
            if arg is None:
                result = action()
            else:
                thread.pending_action_arg = None
                result = action(arg)
        if result is _BLOCKED:
            if self.obs_sinks is not None:
                self.obs_sinks.run_end(thread, thread.wait_reason or "block")
            self.running = None
            self._request_dispatch()
            return
        if self.scheduler.top > thread.priority or self._dpc_queue:
            thread.resume_value = result
            self.running = None
            if self.obs_sinks is not None:
                self.obs_sinks.run_end(thread, "preempt-pending")
            self.scheduler.make_ready(thread, front=True)
            self._request_dispatch()
            return
        self._advance(thread, result)

    def _advance(self, thread: SimThread, send_value: object) -> None:
        """Drive the thread's generator until it blocks or hits the CPU."""
        table = self._perform_table
        while True:
            try:
                syscall = thread.advance(send_value)
            except StopIteration:
                self._finish_thread(thread)
                return
            perform = table.get(syscall.__class__)
            if perform is None:
                perform = self._resolve_perform(syscall.__class__)
            outcome = perform(thread, syscall)
            kind = outcome[0]
            if kind == "compute":
                # ("compute", work, action, arg): run ``work`` on the
                # CPU, then ``action(arg)`` (or ``action()`` when arg is
                # None) from _work_done.
                thread.pending_action = outcome[2]
                thread.pending_action_arg = outcome[3]
                self.cpu.start(outcome[1], thread, self._work_done)
                return
            if kind == "result":
                send_value = outcome[1]
                continue
            if kind == "block":
                if self.obs_sinks is not None:
                    if thread.blocked:
                        reason = thread.wait_reason or "block"
                    elif thread.done:
                        reason = "exit"
                    else:
                        reason = "yield"
                    self.obs_sinks.run_end(thread, reason)
                self.running = None
                self._request_dispatch()
                return
            raise KernelPanic(f"unknown perform outcome {kind!r}")

    def _resolve_perform(self, cls):
        """Resolve a syscall subclass to its perform method via the MRO.

        The result is cached in the dispatch table so each concrete
        class pays the walk once.
        """
        for base in cls.__mro__[1:]:
            perform = self._perform_table.get(base)
            if perform is not None:
                self._perform_table[cls] = perform
                return perform
        raise KernelPanic(f"unknown syscall class {cls!r}")

    def _finish_thread(self, thread: SimThread) -> None:
        thread.state = ThreadState.DONE
        if self.obs_sinks is not None:
            self.obs_sinks.run_end(thread, "exit")
        self.running = None
        self._request_dispatch()

    def _block(self, thread: SimThread, reason: str) -> Tuple[str]:
        thread.state = ThreadState.BLOCKED
        thread.wait_reason = reason
        return ("block",)

    def _wake(self, thread: SimThread, resume_value: object = None) -> None:
        """Unblock a thread; preemption happens via the deferred dispatch."""
        if thread.state != ThreadState.BLOCKED:
            return
        thread.resume_value = resume_value
        thread.quantum_ticks_used = 0  # fresh quantum after blocking
        self.scheduler.make_ready(thread)
        self._request_dispatch()

    # ------------------------------------------------------------------
    # Syscall execution
    # ------------------------------------------------------------------
    # One method per syscall class, dispatched through _perform_table.
    # Every method returns one of:
    #
    #   ("compute", work, action, arg)  — run ``work`` on the CPU, then
    #       ``action(arg)`` (``action()`` when arg is None);
    #   ("result", value)               — resume the generator with value;
    #   ("block",)                      — thread left blocked/queued.
    #
    # Actions are prebound methods with their argument carried in the
    # outcome tuple, so the hot path allocates no closures.

    def _perform_compute(self, thread: SimThread, syscall: Compute):
        if syscall.__class__ is IdleCompute and self.fast_forward:
            completions = self._try_fast_forward(thread, syscall)
            if completions:
                return ("result", completions)
        return ("compute", syscall.work, None, None)

    def _perform_getmessage(self, thread: SimThread, syscall: GetMessage):
        # The interposed DLL sees the call as it is made; with no DLL
        # installed the record is never built (the call still counts).
        hooks = self.hooks
        if hooks.active:
            hooks.fire(
                ApiCallRecord(
                    time_ns=self.sim.now,
                    thread_name=thread.name,
                    api="GetMessage",
                    queue_len=len(thread.queue),
                    message=None,
                    blocked=thread.queue.empty,
                )
            )
        else:
            hooks.calls_seen += 1
        cost = self.personality.user_call_work
        # The GDI batch flushes when the thread is about to block —
        # while input keeps arriving the batch keeps accumulating,
        # which is the throughput-vs-responsiveness batching
        # behaviour of Section 1.1.
        if thread.queue.empty:
            flush = self.gdi_batch(thread).flush()
            if flush is not None:
                cost = cost.plus(flush, label="getmessage+flush")
        return ("compute", cost, self._getmessage_action, thread)

    def _perform_peekmessage(self, thread: SimThread, syscall: PeekMessage):
        hooks = self.hooks
        if hooks.active:
            hooks.fire(
                ApiCallRecord(
                    time_ns=self.sim.now,
                    thread_name=thread.name,
                    api="PeekMessage",
                    queue_len=len(thread.queue),
                    message=None,
                    blocked=False,
                )
            )
        else:
            hooks.calls_seen += 1
        cost = self.personality.user_call_work
        if thread.queue.empty:
            flush = self.gdi_batch(thread).flush()
            if flush is not None:
                cost = cost.plus(flush, label="peekmessage+flush")
        if syscall.remove:
            return ("compute", cost, self._peekmessage_remove_action, thread)
        return ("compute", cost, self._peekmessage_peek_action, thread)

    def _perform_postmessage(self, thread: SimThread, syscall: PostMessage):
        return (
            "compute",
            self.personality.user_call_work,
            self._post_action,
            syscall,
        )

    def _post_action(self, syscall: PostMessage) -> None:
        self.post_message(syscall.target, syscall.message)

    def _perform_gdiop(self, thread: SimThread, syscall: GdiOp):
        flush_work = self.gdi_batch(thread).add(syscall)
        if syscall.pixels:
            self.machine.display.paint(syscall.pixels)
        if flush_work is not None:
            return ("compute", flush_work, None, None)
        return ("result", None)

    def _perform_gdiflush(self, thread: SimThread, syscall: GdiFlush):
        flush_work = self.gdi_batch(thread).flush()
        if flush_work is not None:
            return ("compute", flush_work, None, None)
        return ("result", None)

    def _perform_usercall(self, thread: SimThread, syscall: UserCall):
        personality = self.personality
        cost = personality.user_call_work.plus(
            personality.user_work(syscall.base.cycles, label=syscall.name)
        )
        return ("compute", cost, None, None)

    def _perform_syncread(self, thread: SimThread, syscall: SyncRead):
        plan = self.iomgr.plan_read(syscall.file, syscall.offset, syscall.length)
        return ("compute", plan.cpu_work, self._sync_io_action, (thread, plan))

    def _perform_syncwrite(self, thread: SimThread, syscall: SyncWrite):
        plan = self.iomgr.plan_write(syscall.file, syscall.offset, syscall.length)
        return ("compute", plan.cpu_work, self._sync_io_action, (thread, plan))

    def _perform_asyncread(self, thread: SimThread, syscall: AsyncRead):
        plan = self.iomgr.plan_read(syscall.file, syscall.offset, syscall.length)
        return ("compute", plan.cpu_work, self._submit_async_action, plan)

    def _perform_asyncwrite(self, thread: SimThread, syscall: AsyncWrite):
        plan = self.iomgr.plan_write(syscall.file, syscall.offset, syscall.length)
        return ("compute", plan.cpu_work, self._submit_async_action, plan)

    def _submit_async_action(self, plan) -> None:
        self.iomgr.submit(plan, on_done=_noop, sync=False)

    def _perform_sleep(self, thread: SimThread, syscall: Sleep):
        now = self.sim.now
        duration = max(0, syscall.duration_ns)
        period = self.machine.spec.clock_period_ns
        earliest = now + duration
        wake_at = ((earliest + period - 1) // period) * period
        if wake_at <= now:
            wake_at = now + period
        return (
            "compute",
            self.personality.syscall_work,
            self._sleep_action,
            (thread, wake_at),
        )

    def _sleep_action(self, thread_wake):
        thread, wake_at = thread_wake
        self.sim.schedule_at(
            wake_at, lambda: self._wake(thread), label="sleep-wake"
        )
        return self._block_value(thread, "sleep")

    def _perform_settimer(self, thread: SimThread, syscall: SetTimer):
        period = max(syscall.period_ns, self.machine.spec.clock_period_ns)
        # next_due is anchored at issue time, not at the syscall cost's
        # completion — the timer period starts when SetTimer is called.
        return (
            "compute",
            self.personality.syscall_work,
            self._set_timer_action,
            (thread, syscall.timer_id, period, self.sim.now),
        )

    def _set_timer_action(self, spec):
        thread, timer_id, period, issued_ns = spec
        self._timers[(thread.tid, timer_id)] = _Timer(
            thread=thread,
            timer_id=timer_id,
            period_ns=period,
            next_due_ns=issued_ns + period,
        )
        return None

    def _perform_killtimer(self, thread: SimThread, syscall: KillTimer):
        return (
            "compute",
            self.personality.syscall_work,
            self._kill_timer_action,
            (thread.tid, syscall.timer_id),
        )

    def _kill_timer_action(self, key):
        self._timers.pop(key, None)
        return None

    def _perform_yield(self, thread: SimThread, syscall: YieldCpu):
        thread.resume_value = None
        thread.quantum_ticks_used = 0  # voluntary yield restarts it
        self.scheduler.make_ready(thread, front=False)
        self.running = None
        self._request_dispatch()
        return ("block",)  # state stays READY (already queued)

    def _perform_rdtsc(self, thread: SimThread, syscall: ReadCycleCounter):
        return ("result", self.machine.perf.read_cycle_counter())

    def _perform_spawn(self, thread: SimThread, syscall: SpawnThread):
        child = self.create_thread(
            syscall.name, syscall.coroutine, syscall.priority, process=thread.process
        )
        return ("result", child)

    def _perform_exit(self, thread: SimThread, syscall: ExitThread):
        self._finish_thread(thread)
        return ("block",)

    def _perform_busywait(self, thread: SimThread, syscall: BusyWait):
        if not thread.queue.empty:
            return ("result", None)  # input already waiting
        thread.spin_wait = True
        return (
            "compute",
            Work(_SPIN_CYCLES, label=f"spin:{syscall.reason}"),
            None,
            None,
        )

    def _try_fast_forward(self, thread: SimThread, syscall: IdleCompute):
        """Complete idle segments analytically; returns their end times.

        Preconditions (otherwise return None and execute the segment
        normally):

        * ``thread`` is the running thread, the CPU is free, no DPC is
          queued, no ready thread exists, no Win95 mouse spin is active —
          i.e. *nothing* but this idle loop can touch the processor
          before the next calendar event fires;
        * the calendar (or the active run horizon) bounds the jump, and
          at least one whole segment fits strictly before the next live
          event.  The segment that would *span* that event is excluded
          on purpose: it must execute normally so the event — typically
          the clock tick whose ISR steals time — elongates it exactly as
          on the slow path.  The elongation is the paper's measurement;
          fast-forward only skips the segments that carry no signal.

        A batch of ``k`` segments then reproduces, in closed form, the
        exact machine state ``k`` execute/complete rounds would leave:
        the clock advances ``k * duration``, the calendar sequence and
        executed-event counters advance by ``k`` (one completion event
        each), the CPU accrues ``k * duration`` busy time, and the
        segment's hardware events are charged ``k`` whole times (whole
        charges never touch the fractional residual).  When that next
        event is a quiet clock tick, :meth:`_span_ticks` goes further
        and completes whole tick periods, elongated segments included.
        The syscall result is the completion time of every synthesized
        segment, which is where the instrument writes its trace records.
        Equivalence is proven record-for-record by
        ``tests/test_fastforward.py`` and the golden digests.
        """
        limit = syscall.max_batch
        if (
            limit <= 0
            or self._dpc_queue
            or self._spin_active
            or self.running is not thread
            or self.cpu.busy
            or self.scheduler.top >= 0
        ):
            return None
        work = syscall.work
        duration = self.cpu.duration_ns(work)
        if duration <= 0:
            return None
        # A thread above idle priority makes every tick queue a DPC.
        if syscall.span_ticks and thread.priority <= IDLE_PRIORITY:
            completions = self._span_ticks(work, duration, limit)
            if completions is not None:
                return completions
        sim = self.sim
        batch = sim.fast_forward_budget(duration)
        if batch > limit:
            batch = limit
        if batch <= 0:
            return None
        start = sim.now + duration
        sim.fast_forward(batch * duration, events=batch)
        self.cpu.credit_idle_batch(work, duration, batch)
        self.fast_forward_batches += 1
        self.fast_forward_segments += batch
        if self.obs_sinks is not None:
            self.obs_sinks.fast_forward(batch, batch * duration)
        return array("q", range(start, start + batch * duration, duration))

    def _span_ticks(self, work=None, duration: int = 0, space: int = 0):
        """Complete whole quiet clock periods analytically (a tick span).

        A quiet tick is one whose ISR post-action queues no DPC: no
        armed timer, no ready thread, nothing above idle priority
        running, and not a housekeeping tick.  While the tick is the
        only pending work (:meth:`Simulator.tick_span_window`), each
        period replays in closed form what the per-tick path executes:

        * the clock event: one interrupt and the ISR's events charged,
          ISR busy time, the post-action and the re-arm scheduled;
        * the ISR return, whose only effect on a quiet tick is the
          running thread's quantum tick;
        * with ``duration`` (the idle-loop instrument is running): the
          fast-forward batch up to the tick, then the one segment the
          ISR steals from, elongated by exactly the ISR duration and
          completing — one completion event — after the ISR returns.

        A span stops at the first tick that is not quiet, whose
        elongated segment would end on or past the limit or the next
        tick, that lands exactly on a segment end (the completion then
        races the ISR return), or whose records would not fit in
        ``space``; the per-tick path takes over from there (with the
        instrument, starting with the fast-forward batch before that
        tick).  Every counter the skipped events would have moved is
        moved by the same amount, and the re-armed tick keeps the
        ``(time, seq)`` key it would have had.

        Returns the segment completion times (an empty array without
        ``duration``), or None when not even one tick could be spanned.
        """
        clock = self.machine.clock
        housekeeping = self.personality.housekeeping_period_ticks
        ticks = clock.ticks
        if (ticks + 1) % housekeeping == 0 or self._timers:
            return None
        sinks = self.obs_sinks
        interrupts = self.machine.interrupts
        if sinks is not None:
            if sinks.tracing:
                return None  # every tick is an irq instant on the trace
        elif interrupts.obs is not None:
            return None  # an interrupt observer the span cannot account
        window = clock.span_window()
        if window is None:
            return None
        tick_ns, limit = window
        period = clock.period_ns
        isr_ns = interrupts.isr_duration_ns(clock.VECTOR)
        sim = self.sim
        now = sim.now
        seq = sim._seq
        events = spanned = batches = segments = 0
        completions = array("q")
        while (ticks + spanned + 1) % housekeeping:
            if duration:
                k = (tick_ns - now - 1) // duration
                start = now + k * duration  # the segment the ISR steals from
                done = start + duration + isr_ns
                if (
                    k < 0
                    or start + duration == tick_ns
                    or done > limit
                    or done >= tick_ns + period
                    or len(completions) + k >= space
                ):
                    break
                if k:
                    completions.extend(range(now + duration, start + 1, duration))
                    batches += 1
                    segments += k
                completions.append(done)
                # Sequence numbers: k batched segments, the stolen-from
                # segment's completion, then the tick's three schedules
                # (re-queued completion, ISR return, re-arm).  Events:
                # k segments, the tick, its ISR return, the completion.
                seq += k + 4
                events += k + 3
            else:
                done = tick_ns + isr_ns
                if done > limit:
                    break
                seq += 2  # the tick schedules its ISR return and re-arm
                events += 2
            now = done
            tick_ns += period
            spanned += 1
        if not spanned:
            return None
        # Peak calendar depth inside a spanned tick: the re-arm lands
        # while the ISR return is pending — and, with the instrument,
        # while the stolen-from segment's dead and live completions are.
        depth_peak = sim.calendar_depth() + (3 if duration else 1)
        # The re-arm is each tick's last schedule.
        sim.commit_tick_span(tick_ns, seq - 1, now, seq, events, depth_peak)
        clock.credit_quiet_ticks(spanned)
        if duration:
            self.cpu.credit_idle_batch(work, duration, len(completions))
            self.running.quantum_ticks_used += spanned
            self.fast_forward_batches += batches
            self.fast_forward_segments += segments
        if sinks is not None:
            sinks.tick_span(spanned, batches, segments, segments * duration)
        return completions

    def _block_value(self, thread: SimThread, reason: str):
        """Block from inside a pending action (returns the sentinel)."""
        thread.state = ThreadState.BLOCKED
        thread.wait_reason = reason
        return _BLOCKED

    def _getmessage_action(self, thread: SimThread):
        if self.obs is not None:
            # The pump reached its next retrieval: any envelope whose
            # render tail was pending on this thread is now on screen.
            self.obs.pump_idle(thread)
        message = thread.queue.get(self.sim.now)
        if message is not None:
            hooks = self.hooks
            if hooks.active:
                hooks.fire(
                    ApiCallRecord(
                        time_ns=self.sim.now,
                        thread_name=thread.name,
                        api="GetMessage",
                        queue_len=len(thread.queue),
                        message=message,
                        blocked=False,
                    )
                )
            else:
                hooks.calls_seen += 1
            return message
        return self._block_value(thread, "message")

    def _peekmessage_remove_action(self, thread: SimThread):
        return self._peekmessage_action(thread, True)

    def _peekmessage_peek_action(self, thread: SimThread):
        return self._peekmessage_action(thread, False)

    def _peekmessage_action(self, thread: SimThread, remove: bool):
        if self.obs is not None:
            self.obs.pump_idle(thread)
        if remove:
            message = thread.queue.get(self.sim.now)
        else:
            message = thread.queue.peek()
        hooks = self.hooks
        if hooks.active:
            hooks.fire(
                ApiCallRecord(
                    time_ns=self.sim.now,
                    thread_name=thread.name,
                    api="PeekMessage",
                    queue_len=len(thread.queue),
                    message=message,
                    blocked=False,
                )
            )
        else:
            hooks.calls_seen += 1
        return message

    def _sync_io_action(self, thread_plan):
        thread, plan = thread_plan
        if plan.all_cached:
            return None
        self.iomgr.submit(plan, on_done=lambda: self._wake(thread), sync=True)
        return self._block_value(thread, "io")

    def _cancel_spin_wait(self, thread: SimThread) -> None:
        """End a BusyWait: discard the open-ended spin, resume the thread."""
        thread.spin_wait = False
        if self.running is thread and self.cpu.current_context is thread:
            self.cpu.abort()
            self.running = None
        thread.pending_work = None
        thread.pending_action = None
        thread.pending_action_arg = None
        thread.resume_value = None
        if thread.state == ThreadState.RUNNING:
            thread.state = ThreadState.READY
            if self.obs_sinks is not None:
                self.obs_sinks.run_end(thread, "spin-cancel")
            self.scheduler.make_ready(thread, front=True)
        self._request_dispatch()

    def _on_message_posted(self, thread: SimThread, message: Message) -> None:
        if thread.spin_wait:
            self._cancel_spin_wait(thread)
            return
        if thread.blocked and thread.wait_reason == "message":
            delivered = thread.queue.get(self.sim.now)
            hooks = self.hooks
            if hooks.active:
                hooks.fire(
                    ApiCallRecord(
                        time_ns=self.sim.now,
                        thread_name=thread.name,
                        api="GetMessage",
                        queue_len=len(thread.queue),
                        message=delivered,
                        blocked=True,
                    )
                )
            else:
                hooks.calls_seen += 1
            self._wake(thread, resume_value=delivered)

    # ------------------------------------------------------------------
    # DPCs
    # ------------------------------------------------------------------
    def queue_dpc(
        self,
        work: Work,
        action: Optional[Callable[[], None]] = None,
        label: str = "",
    ) -> None:
        """Queue system-side work that runs ahead of all threads."""
        self._dpc_queue.append(_Dpc(work=work, action=action, label=label))
        self._request_dispatch()

    def _start_next_dpc(self) -> None:
        dpc = self._dpc_queue.popleft()
        self._active_dpc = dpc
        self.running = self._dpc_context
        if self.obs_sinks is not None:
            self.obs_sinks.dpc_begin(dpc.label)
        self.cpu.start(dpc.work, self._dpc_context, self._work_done)

    # ------------------------------------------------------------------
    # Interrupt post-actions (run when the ISR retires)
    # ------------------------------------------------------------------
    def _on_clock_tick(self, _tick) -> None:
        now = self.sim.now
        # Fire due application timers; timers of finished threads are
        # reaped so they cannot hold the system out of quiescence.  The
        # no-timer case (every idle tick) must not allocate.
        if self._timers:
            for key, timer in list(self._timers.items()):
                if timer.thread.done:
                    del self._timers[key]
                    continue
                if now >= timer.next_due_ns:
                    timer.next_due_ns = now + timer.period_ns
                    self.post_message(
                        timer.thread,
                        Message(WM.TIMER, payload=timer.timer_id, from_input=False),
                    )
        # Per-tick scheduler/timer DPC — only when the tick has actual
        # work to do (armed timers, runnable threads, or a non-idle
        # thread to account against).  A fully idle system's cheapest
        # ticks therefore cost the bare ISR, which is how the paper
        # could observe a ~400-cycle minimum on NT 4.0 (Section 2.5).
        tick_has_work = (
            bool(self._timers)
            or self.scheduler.top >= 0
            or (
                isinstance(self.running, SimThread)
                and self.running.priority > IDLE_PRIORITY
            )
        )
        if tick_has_work:
            self.queue_dpc(self.personality.tick_dpc_work, label="tick")
        if (
            self.machine.clock.ticks % self.personality.housekeeping_period_ticks
            == 0
        ):
            self.queue_dpc(self.personality.housekeeping_work, label="housekeeping")
        # Quantum round-robin among equal priorities.  The counter lives
        # on the thread so the tick DPC's own brief preemption does not
        # restart the quantum.
        if isinstance(self.running, SimThread):
            thread = self.running
            thread.quantum_ticks_used += 1
            if (
                thread.quantum_ticks_used >= self.personality.quantum_ticks
                and self.scheduler.has_ready_at(thread.priority)
            ):
                context, remaining = self.cpu.preempt()
                if context is thread:
                    thread.pending_work = remaining
                    thread.quantum_ticks_used = 0
                    self.running = None
                    self.context_switches += 1
                    if self.obs_sinks is not None:
                        self.obs_sinks.run_end(thread, "quantum")
                        self.obs_sinks.context_switch("quantum")
                    self.scheduler.make_ready(thread, front=False)
                    self._request_dispatch()
        elif (
            self.running is None
            and self.fast_forward
            and not self._dpc_queue
            and not self._spin_active
            and self.scheduler.top < 0
            and not self.cpu.busy
        ):
            # A bare idle CPU (no idle-loop instrument installed): span
            # the quiet ticks that follow this one.
            self._span_ticks()

    def _on_keyboard(self, event: KeyEvent) -> None:
        if self.obs is not None:
            self.obs.input_dispatch_begin(event)
        self.queue_dpc(
            self.personality.input_dispatch_work,
            action=lambda: self._deliver_key(event),
            label="kbd-dispatch",
        )

    def _deliver_key(self, event: KeyEvent) -> None:
        if self.foreground is None:
            return
        envelope = (
            self.obs.take_envelope(event) if self.obs is not None else None
        )
        if event.down:
            self.post_to_foreground(
                Message(
                    WM.KEYDOWN,
                    payload=event.key,
                    from_input=True,
                    envelope=envelope,
                )
            )
            if len(event.key) == 1:
                # WM_CHAR shares the keystroke's envelope: the handler
                # stage covers both messages' handling.
                self.post_to_foreground(
                    Message(
                        WM.CHAR,
                        payload=event.key,
                        from_input=True,
                        envelope=envelope,
                    )
                )
        else:
            self.post_to_foreground(
                Message(
                    WM.KEYUP,
                    payload=event.key,
                    from_input=True,
                    envelope=envelope,
                )
            )

    def _on_mouse(self, event: MouseEvent) -> None:
        if self.obs is not None:
            self.obs.input_dispatch_begin(event)
        if event.kind == "down" and self.personality.mouse_click_busywait:
            self._pending_mouse_down = event
            self.queue_dpc(
                self.personality.input_dispatch_work,
                action=self._begin_mouse_spin,
                label="mouse-spin-start",
            )
            return
        if event.kind == "up" and self._spin_active:
            self._end_mouse_spin(event)
            return
        self.queue_dpc(
            self.personality.input_dispatch_work,
            action=lambda: self._deliver_mouse(event),
            label="mouse-dispatch",
        )

    def _deliver_mouse(self, event: MouseEvent) -> None:
        if self.foreground is None:
            return
        kind_to_wm = {
            "down": WM.LBUTTONDOWN,
            "up": WM.LBUTTONUP,
            "move": WM.MOUSEMOVE,
        }
        envelope = (
            self.obs.take_envelope(event) if self.obs is not None else None
        )
        self.post_to_foreground(
            Message(
                kind_to_wm[event.kind],
                payload=event.position,
                from_input=True,
                envelope=envelope,
            )
        )

    def _begin_mouse_spin(self) -> None:
        """Windows 95: spin on the CPU until the button comes back up."""
        if self._spin_active:
            return
        if self.cpu.busy:
            if isinstance(self.running, SimThread):
                self._preempt_running_thread()
            else:
                # A DPC is mid-flight; try again when it retires.
                self.queue_dpc(
                    Work(100, label="spin-retry"), action=self._begin_mouse_spin
                )
                return
        self._spin_active = True
        self._spin_began_ns = self.sim.now
        self.cpu.start(
            Work(_SPIN_CYCLES, label="win95-mouse-spin"),
            self._spin_context,
            self._work_done,
        )

    def _end_mouse_spin(self, up_event: MouseEvent) -> None:
        if not self._spin_active:
            return
        context = self.cpu.abort()
        if context is not self._spin_context:
            raise KernelPanic("spin cancel found a different CPU context")
        self._spin_active = False
        down_event = self._pending_mouse_down
        self._pending_mouse_down = None

        def deliver_both() -> None:
            if down_event is not None:
                self._deliver_mouse(down_event)
            self._deliver_mouse(up_event)

        self.queue_dpc(
            self.personality.input_dispatch_work,
            action=deliver_both,
            label="mouse-dispatch",
        )
        self._request_dispatch()

    def bind_socket(self, thread: SimThread) -> None:
        """Route packet notifications to ``thread`` (WSAAsyncSelect)."""
        self.socket_owner = thread

    def _on_packet(self, packet) -> None:
        if self.obs is not None:
            self.obs.input_dispatch_begin(packet)
        self.queue_dpc(
            self.personality.nic_dispatch_work,
            action=lambda: self._deliver_packet(packet),
            label="nic-dispatch",
        )

    def _deliver_packet(self, packet) -> None:
        target = self.socket_owner or self.foreground
        if target is None or target.done:
            return
        envelope = (
            self.obs.take_envelope(packet) if self.obs is not None else None
        )
        self.post_message(
            target,
            Message(
                WM.SOCKET, payload=packet, from_input=True, envelope=envelope
            ),
        )

    def _on_disk(self, request: DiskRequest) -> None:
        self.queue_dpc(
            self.personality.disk_isr_work.scaled(0.5),
            action=lambda: self.iomgr.on_disk_complete(request),
            label="disk-dpc",
        )

    def _idle_background_tick(self) -> None:
        """Windows 95's extra idle-time activity (Figure 3)."""
        personality = self.personality
        if personality.idle_background_cycles > 0:
            self.queue_dpc(personality.idle_background_work, label="idle-bg")
        self.sim.schedule_kind(
            personality.idle_background_period_ns, self._idle_bg_hid
        )

    # ------------------------------------------------------------------
    # Introspection for the measurement layer
    # ------------------------------------------------------------------
    def foreground_queue_len(self) -> int:
        """Message-queue length of the focused thread (FSM support)."""
        if self.foreground is None:
            return 0
        return len(self.foreground.queue)

    def cpu_is_idle(self) -> bool:
        """True when no thread/DPC work is executing (hardware view)."""
        return not self.cpu.busy
