"""Discrete-event simulation engine.

The engine is a deterministic event calendar: callbacks scheduled at
integer-nanosecond timestamps, executed in (time, sequence) order.  The
sequence number breaks ties in scheduling order, which — together with
the integer time base and the seeded RNG streams — makes every simulation
bit-reproducible.

Three calendar representations share one ``(time, seq)`` key space (see
``docs/performance.md`` for the measurements behind each):

* **Generic events** (:meth:`Simulator.schedule`) are stored as
  ``(time, seq, ScheduledEvent)`` tuples on a binary heap.  Tuple keys
  matter: heap sift compares run at C speed on the leading ints instead
  of calling a Python ``__lt__`` per comparison, and because ``seq`` is
  unique the third element is never compared at all.  The
  :class:`ScheduledEvent` payload is the cancellation handle.
* **Kind events** (:meth:`Simulator.schedule_kind` and friends) replace
  the per-event handle + label with a small-int *handler id* resolved
  through a precompiled handler table — ``(time, seq, hid)`` or
  ``(time, seq, hid, payload)`` tuples on the same heap.  The periodic
  clock re-arm, the kernel's zero-delay dispatch and ISR-return events
  use these; they are never cancelled individually, so they need no
  handle object.
* **The structure-of-arrays side calendar**
  (:meth:`Simulator.schedule_soa`) holds homogeneous periodic timer
  populations as parallel ``array('q')`` time/seq columns plus a
  handler-id list.  Scheduling appends three machine words; cancelling
  adds the entry's ``seq`` to a set.  No per-entry Python object exists
  at any point.  When the run loop finds k consecutive side-calendar
  entries of one kind that must execute before any other event source
  can interleave, it hands the whole run to the kind's registered
  *batch handler* in a single call (see :meth:`register_handler`).

In front of the heap sits a one-entry **next-event slot**: a pending
entry whose timestamp is strictly earlier than everything on the heap.
The dominant scheduling pattern — each event schedules its successor a
short delay ahead (chained work segments, zero-delay dispatch) — then
never touches the heap at all: the successor drops into the slot on
schedule and is lifted out on pop, replacing an O(log n) sift-up plus
sift-down with two pointer moves.  An entry that would violate the slot
invariant displaces the slot back onto the heap, so correctness never
depends on the pattern holding.

Events are cancellable: :meth:`Simulator.schedule` returns a
:class:`ScheduledEvent` handle whose :meth:`~ScheduledEvent.cancel`
removes it logically (the heap entry is left in place and skipped on
pop, the standard lazy-deletion technique).  Cancellation is what lets
the CPU model preempt an in-flight work segment and re-schedule its
completion.  When cancelled entries come to dominate the heap — every
clock tick that steals time from an in-flight segment leaves one behind
— the calendar compacts itself in place; since live events are totally
ordered by their unique ``(time, seq)`` key, rebuilding the heap cannot
change the pop order.  The side calendar compacts the same way when
cancelled timers dominate it.

The engine also carries the state the idle fast-forward path (see
:mod:`repro.winsys.kernel` and ``docs/performance.md``) needs to stay
bit-identical to ordinary execution: the active run horizon, and a
:meth:`Simulator.fast_forward` jump that advances the clock *and* the
sequence/executed counters exactly as executing the skipped events one
by one would have.  Tick spans extend that across clock ticks:
:meth:`Simulator.tick_span_window` says how far the periodic tick is the
only pending work, and :meth:`Simulator.commit_tick_span` lands the
result, re-keying the tick entry exactly as the skipped ticks would have.
"""

from __future__ import annotations

import heapq
from array import array
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "ScheduledEvent",
    "Simulator",
    "SimulationError",
    "batch_default",
    "set_batch_default",
    "fast_forward_default",
    "set_fast_forward_default",
]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


#: Process-global default for the idle fast-forward optimisation.  Booted
#: kernels read it once; ``--no-fast-forward`` (and A/B tests) flip it.
#: The output is bit-identical either way — the flag exists so that the
#: equivalence is *checkable*, not because the results differ.
_fast_forward_default = True


def fast_forward_default() -> bool:
    """Whether newly booted kernels enable the idle fast-forward."""
    return _fast_forward_default


def set_fast_forward_default(enabled: bool) -> None:
    """Set the process-global fast-forward default (see ``--no-fast-forward``)."""
    global _fast_forward_default
    _fast_forward_default = bool(enabled)


#: Process-global default for batched side-calendar execution.  Like the
#: fast-forward default, the result is bit-identical either way (proven
#: by the differential tests); ``--no-batch`` exists to make the
#: equivalence checkable and is excluded from result-cache keys.
_batch_default = True


def batch_default() -> bool:
    """Whether newly created simulators execute side-calendar runs batched."""
    return _batch_default


def set_batch_default(enabled: bool) -> None:
    """Set the process-global batch-execution default (see ``--no-batch``)."""
    global _batch_default
    _batch_default = bool(enabled)


#: Compaction threshold: never compact tiny calendars (the rebuild would
#: cost more than the skipped pops it saves).
_COMPACT_MIN_QUEUE = 64

#: Handler id 0 is reserved for out-of-order side-calendar entries that
#: fell back to the heap (see ``schedule_soa``); its payload carries the
#: original ``(hid, time, seq)`` so the call convention is preserved.
_SOA_FALLBACK_HID = 0


class ScheduledEvent:
    """Handle for a pending callback on the event calendar."""

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        label: str,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Logically remove the event; it will be skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                # Inlined _note_cancel: this runs once per preempt/steal,
                # hot enough in calendar churn that the extra frame shows.
                cancelled = sim._cancelled + 1
                sim._cancelled = cancelled
                n = len(sim._queue) + (sim._next is not None)
                if n >= _COMPACT_MIN_QUEUE and cancelled * 2 > n:
                    sim._compact()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent {self.label!r} @{self.time}ns {state}>"


class Simulator:
    """Deterministic event-calendar simulator.

    The simulator only understands time and callbacks; machines, kernels
    and applications are layered on top.  A single simulator instance is
    shared by every component of one simulated machine.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_next",
        "_running",
        "_stop_requested",
        "_horizon",
        "_ff_allowed",
        "_span_allowed",
        "_cancelled",
        "_handler_fns",
        "_handler_batch",
        "_handler_window",
        "_soa_times",
        "_soa_seqs",
        "_soa_hids",
        "_soa_head",
        "_soa_n",
        "_kind_cancelled",
        "batch_enabled",
        "events_executed",
        "events_fast_forwarded",
        "events_batched",
        "batch_runs",
        "compactions",
        "calendar_high_water",
    )

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        #: Heap of (time, seq, payload[, arg]) tuples; payload is either
        #: a ScheduledEvent (generic) or an int handler id (kind event).
        self._queue: List[tuple] = []
        #: Next-event slot: one entry strictly earlier (by time) than the
        #: whole heap, or None.  Fills when a schedule lands in front of
        #: the heap head; chained schedule-pop-schedule patterns live
        #: entirely in this slot and skip both heap sifts.
        self._next: Optional[tuple] = None
        self._running = False
        self._stop_requested = False
        #: Horizon of the active :meth:`run` call (``until_ns``), or None.
        self._horizon: Optional[int] = None
        #: False while a ``max_events``-bounded run is active — fast
        #: forward would execute segments the bound should count.
        self._ff_allowed = True
        #: True only inside a :meth:`run` with neither an ``until``
        #: predicate nor ``max_events``: a tick span executes whole clock
        #: periods in one callback, which a predicate (evaluated between
        #: every two events) or an event budget would have to observe.
        self._span_allowed = False
        #: Cancelled ScheduledEvent entries still on the calendar (lazy
        #: deletion; the slot entry counts here too).
        self._cancelled = 0
        #: Handler tables: id -> callable / batch callable / batch window.
        #: Slot 0 is the side-calendar heap-fallback trampoline.
        self._handler_fns: List[Callable[..., None]] = [self._soa_fallback_exec]
        self._handler_batch: List[Optional[Callable[..., None]]] = [None]
        self._handler_window: List[Optional[int]] = [None]
        #: Structure-of-arrays side calendar: parallel time/seq columns
        #: plus handler ids.  Entries before ``_soa_head`` are consumed;
        #: ``_soa_n`` counts pending entries (cancelled included).
        self._soa_times: array = array("q")
        self._soa_seqs: array = array("q")
        self._soa_hids: List[int] = []
        self._soa_head = 0
        self._soa_n = 0
        #: Seqs of cancelled kind/side-calendar entries (lazy deletion —
        #: checked when the entry reaches the head).
        self._kind_cancelled: set = set()
        #: Batched side-calendar execution switch (see ``--no-batch``).
        #: Flipping it cannot change any observable output, only whether
        #: consecutive same-kind runs go through one batch-handler call.
        self.batch_enabled = _batch_default
        #: Number of callbacks executed; useful for engine diagnostics.
        #: Fast-forwarded segments count here too, so the tally matches
        #: a run with the optimisation disabled.
        self.events_executed = 0
        #: Of ``events_executed``, how many were synthesized analytically.
        self.events_fast_forwarded = 0
        #: Of ``events_executed``, how many ran inside a batch-handler call.
        self.events_batched = 0
        #: Number of multi-event batch-handler calls performed.
        self.batch_runs = 0
        #: In-place calendar rebuilds triggered by cancelled-entry pile-up.
        self.compactions = 0
        #: Maximum calendar length observed (live + cancelled entries,
        #: slot, heap, and side calendar combined).
        self.calendar_high_water = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Generic scheduling (per-event handle objects)
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay_ns: int,
        callback: Callable[[], None],
        label: str = "",
        *,
        _new=object.__new__,
        _cls=ScheduledEvent,
        _heappush=_heappush,
        len=len,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay_ns`` from now.

        ``delay_ns`` may be zero (runs after already-pending events at the
        same timestamp) but never negative.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        # Inlined schedule_at: this is the hottest allocation site in the
        # engine, so it avoids the extra frame and the __init__ call (the
        # object.__new__ + direct slot stores construct the same handle;
        # the keyword-only defaults turn global lookups into local loads).
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        event = _new(_cls)
        event.time = time_ns
        event.seq = seq
        event.callback = callback
        event.label = label
        event.cancelled = False
        event._sim = self
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, event))
            else:
                # Strictly earlier than the whole heap (ties go to the
                # heap: the new seq is the largest, so a tie loses).
                self._next = (time_ns, seq, event)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, event)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, event))
        depth = len(queue) + self._soa_n + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return event

    def schedule_at(
        self,
        time_ns: int,
        callback: Callable[[], None],
        label: str = "",
        *,
        _new=object.__new__,
        _cls=ScheduledEvent,
        _heappush=_heappush,
        len=len,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns; now is {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = _new(_cls)
        event.time = time_ns
        event.seq = seq
        event.callback = callback
        event.label = label
        event.cancelled = False
        event._sim = self
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, event))
            else:
                self._next = (time_ns, seq, event)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, event)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, event))
        depth = len(queue) + self._soa_n + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return event

    # ------------------------------------------------------------------
    # Kind scheduling (precompiled handler table, no per-event objects)
    # ------------------------------------------------------------------
    def register_handler(
        self,
        fn: Callable[..., None],
        batch: Optional[Callable[..., None]] = None,
        batch_window_ns: Optional[int] = None,
    ) -> int:
        """Register ``fn`` in the handler table; returns its handler id.

        One handler id must stick to one scheduling entry point, which
        fixes its call convention:

        * :meth:`schedule_kind` / :meth:`schedule_kind_at` — ``fn()``;
        * :meth:`schedule_call` — ``fn(payload)``;
        * :meth:`schedule_soa` — ``fn(time_ns, seq)`` and, when ``batch``
          is given, ``batch(times, seqs)`` with two equal-length
          ``array('q')`` slices for a run of consecutive entries.

        A batch handler must be observationally identical to calling
        ``fn(t, s)`` for each entry in order.  In particular it must not
        call :meth:`stop` (the engine raises if it does — single-event
        execution would have stopped mid-run) and must not rely on
        :attr:`now`, which during the call reads the *last* entry's time.
        Scheduling from inside a batch handler is safe: anything it
        schedules earlier than an already-consumed batch entry raises the
        ordinary scheduling-in-the-past error, so a contract violation
        cannot silently reorder events.  ``batch_window_ns`` bounds a
        run to entries strictly within that distance of the first — set
        it to the population's minimum re-arm period so a re-arm
        scheduled by the batch handler can never land inside the window
        the batch already consumed.
        """
        hid = len(self._handler_fns)
        self._handler_fns.append(fn)
        self._handler_batch.append(batch)
        self._handler_window.append(batch_window_ns)
        return hid

    def schedule_kind(self, delay_ns: int, hid: int) -> int:
        """Schedule handler ``hid`` (no-argument form) after ``delay_ns``.

        Returns the entry's ``seq`` (usable with :meth:`cancel_kind`).
        No handle object or label is allocated — this is the zero-cost
        path for high-frequency re-arm events (dispatch, clock ticks).
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, hid))
            else:
                self._next = (time_ns, seq, hid)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, hid)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, hid))
        depth = len(queue) + self._soa_n + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return seq

    def schedule_kind_at(self, time_ns: int, hid: int) -> int:
        """Schedule handler ``hid`` (no-argument form) at absolute time."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns; now is {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, hid))
            else:
                self._next = (time_ns, seq, hid)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, hid)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, hid))
        depth = len(queue) + self._soa_n + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return seq

    def schedule_call(self, delay_ns: int, hid: int, payload: Any) -> int:
        """Schedule handler ``hid`` called with ``payload`` after ``delay_ns``.

        Replaces the ``lambda: handler(payload)`` closure + handle pair
        with one heap tuple (ISR returns use this).
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, hid, payload))
            else:
                self._next = (time_ns, seq, hid, payload)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, hid, payload)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, hid, payload))
        depth = len(queue) + self._soa_n + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return seq

    def cancel_kind(self, seq: int) -> None:
        """Cancel a pending kind/side-calendar entry by its ``seq``.

        Lazy like :meth:`ScheduledEvent.cancel`: the entry stays in place
        and is skipped when it reaches the head.  ``seq`` must identify a
        pending kind-scheduled entry; cancelling one that already fired
        leaves a stale marker behind and skews :meth:`pending_count`.
        Cancelling twice is harmless.
        """
        kc = self._kind_cancelled
        if seq in kc:
            return
        kc.add(seq)
        n = self._soa_n
        if n >= _COMPACT_MIN_QUEUE and len(kc) * 2 > n:
            self._soa_compact()

    # ------------------------------------------------------------------
    # Structure-of-arrays side calendar
    # ------------------------------------------------------------------
    def schedule_soa(self, delay_ns: int, hid: int) -> int:
        """Schedule handler ``hid`` on the side calendar after ``delay_ns``.

        Appends to the parallel ``array('q')`` columns — no per-entry
        object, ~3 machine words per pending timer.  The side calendar
        must stay sorted, so an entry earlier than the current tail (a
        non-monotone schedule, which homogeneous periodic populations
        never produce) transparently falls back to a heap entry with the
        same key and the same call convention.  Returns the entry's
        ``seq``; cancel with :meth:`cancel_kind`.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        times = self._soa_times
        if times and time_ns < times[-1]:
            entry = (time_ns, seq, _SOA_FALLBACK_HID, (hid, time_ns, seq))
            queue = self._queue
            nxt = self._next
            if nxt is None:
                if queue and time_ns >= queue[0][0]:
                    _heappush(queue, entry)
                else:
                    self._next = entry
            elif time_ns < nxt[0]:
                self._next = entry
                _heappush(queue, nxt)
            else:
                _heappush(queue, entry)
        else:
            times.append(time_ns)
            self._soa_seqs.append(seq)
            self._soa_hids.append(hid)
            self._soa_n += 1
        depth = len(self._queue) + self._soa_n + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return seq

    def _soa_fallback_exec(self, arg: Tuple[int, int, int]) -> None:
        """Run one out-of-order side-calendar entry from the heap."""
        hid, time_ns, seq = arg
        self._handler_fns[hid](time_ns, seq)

    def _soa_next(self) -> Optional[Tuple[int, int]]:
        """(time, seq) of the next live side-calendar entry, or None.

        Discards cancelled head entries (forgetting their seqs) and
        recycles the arrays' storage once fully drained.
        """
        if not self._soa_n:
            return None
        times = self._soa_times
        seqs = self._soa_seqs
        head = self._soa_head
        n = len(times)
        kc = self._kind_cancelled
        if kc:
            while head < n and seqs[head] in kc:
                kc.discard(seqs[head])
                head += 1
        if head >= n:
            del times[:]
            del seqs[:]
            del self._soa_hids[:]
            self._soa_head = 0
            self._soa_n = 0
            return None
        self._soa_head = head
        self._soa_n = n - head
        return times[head], seqs[head]

    def _soa_compact(self) -> None:
        """Drop cancelled side-calendar entries, in place.

        Mirrors :meth:`_compact` for the heap: triggered when cancelled
        timers dominate the pending window, preserves relative order (the
        columns are sorted by construction), counts toward
        :attr:`compactions`.
        """
        kc = self._kind_cancelled
        times = self._soa_times
        seqs = self._soa_seqs
        hids = self._soa_hids
        head = self._soa_head
        new_times = array("q")
        new_seqs = array("q")
        new_hids: List[int] = []
        for i in range(head, len(times)):
            seq = seqs[i]
            if seq in kc:
                kc.discard(seq)
                continue
            new_times.append(times[i])
            new_seqs.append(seq)
            new_hids.append(hids[i])
        times[:] = new_times
        seqs[:] = new_seqs
        hids[:] = new_hids
        self._soa_head = 0
        self._soa_n = len(new_times)
        self.compactions += 1

    def _exec_soa_run(
        self,
        until_ns: Optional[int],
        max_events: Optional[int],
        executed: int,
        batch_allowed: bool,
    ) -> int:
        """Execute the side calendar's head entry, batching when possible.

        The caller guarantees the head entry is live, earliest across all
        sources, and at or before the horizon.  Returns the number of
        events executed (>= 1).  A batch gathers the maximal run of
        consecutive same-kind live entries that must execute before any
        heap event, horizon, window bound or ``max_events`` budget could
        interleave — so batched and single-event execution perform the
        identical callback sequence.
        """
        head = self._soa_head
        times = self._soa_times
        seqs = self._soa_seqs
        hids = self._soa_hids
        hid = hids[head]
        t0 = times[head]
        batch_fn = self._handler_batch[hid]
        if batch_fn is None or not batch_allowed:
            self._soa_head = head + 1
            self._soa_n -= 1
            self._now = t0
            self.events_executed += 1
            self._handler_fns[hid](t0, seqs[head])
            return 1
        n = len(times)
        end = head + 1
        # The earliest heap-side entry bounds the batch; the slot (when
        # occupied) is by invariant earlier than the whole heap.
        nxt = self._next
        if nxt is not None:
            qtime = nxt[0]
            qseq = nxt[1]
        else:
            queue = self._queue
            if queue:
                qhead = queue[0]
                qtime = qhead[0]
                qseq = qhead[1]
            else:
                qtime = None
                qseq = 0
        window_end = None
        window = self._handler_window[hid]
        if window is not None:
            window_end = t0 + window
        cap = None
        if max_events is not None:
            cap = head + (max_events - executed)
        kc = self._kind_cancelled
        while end < n:
            if cap is not None and end >= cap:
                break
            if hids[end] != hid:
                break
            t = times[end]
            if until_ns is not None and t > until_ns:
                break
            if qtime is not None and (t > qtime or (t == qtime and seqs[end] > qseq)):
                break
            if window_end is not None and t >= window_end:
                break
            if kc and seqs[end] in kc:
                break
            end += 1
        count = end - head
        self._soa_head = end
        self._soa_n -= count
        if count == 1:
            self._now = t0
            self.events_executed += 1
            self._handler_fns[hid](t0, seqs[head])
            return 1
        self._now = times[end - 1]
        self.events_executed += count
        self.events_batched += count
        self.batch_runs += 1
        # Array slices (copies) rather than memoryviews: a live buffer
        # export would make the handler's own re-arm appends illegal.
        batch_fn(times[head:end], seqs[head:end])
        if self._stop_requested:
            raise SimulationError(
                "batch handler called stop(); batched and single-event "
                "execution would diverge mid-run"
            )
        return count

    def stop(self) -> None:
        """Request that the current :meth:`run` call return promptly."""
        self._stop_requested = True

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the calendar is empty."""
        self._discard_cancelled()
        nxt = self._next
        if nxt is not None:
            queue_time = nxt[0]
        else:
            queue_time = self._queue[0][0] if self._queue else None
        soa = self._soa_next() if self._soa_n else None
        if soa is None:
            return queue_time
        if queue_time is None or soa[0] < queue_time:
            return soa[0]
        return queue_time

    def _discard_cancelled(self) -> None:
        """Drop dead entries (cancelled handles, cancelled kind seqs) from
        the slot and the heap head."""
        kc = self._kind_cancelled
        nxt = self._next
        if nxt is not None:
            payload = nxt[2]
            if payload.__class__ is ScheduledEvent:
                if payload.cancelled:
                    self._next = None
                    self._cancelled -= 1
            elif kc and nxt[1] in kc:
                self._next = None
                kc.discard(nxt[1])
        queue = self._queue
        while queue:
            head = queue[0]
            payload = head[2]
            if payload.__class__ is ScheduledEvent:
                if not payload.cancelled:
                    break
                _heappop(queue)
                self._cancelled -= 1
            elif kc and head[1] in kc:
                _heappop(queue)
                kc.discard(head[1])
            else:
                break

    def _note_cancel(self) -> None:
        """Bookkeeping on event cancellation; compacts when dominated.

        Kept for compatibility — :meth:`ScheduledEvent.cancel` inlines
        this logic on the hot path.
        """
        self._cancelled += 1
        n = len(self._queue) + (self._next is not None)
        if n >= _COMPACT_MIN_QUEUE and self._cancelled * 2 > n:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap, in place.

        In place matters: :meth:`run` holds a local alias of the queue
        list, so the list object must survive.  Determinism is free —
        live events carry unique ``(time, seq)`` keys, so any valid heap
        over the same set pops in the same order.
        """
        kc = self._kind_cancelled
        nxt = self._next
        if nxt is not None:
            # The slot entry may itself be cancelled; _cancelled is reset
            # to zero below, so it must be swept here too.
            payload = nxt[2]
            if payload.__class__ is ScheduledEvent:
                if payload.cancelled:
                    self._next = None
            elif nxt[1] in kc:
                self._next = None
                kc.discard(nxt[1])
        queue = self._queue
        if kc:
            live = []
            for entry in queue:
                payload = entry[2]
                if payload.__class__ is ScheduledEvent:
                    if not payload.cancelled:
                        live.append(entry)
                elif entry[1] in kc:
                    kc.discard(entry[1])
                else:
                    live.append(entry)
            queue[:] = live
        else:
            try:
                # Fast path: every payload is a ScheduledEvent (int handler
                # ids have no .cancelled — the except replays carefully).
                queue[:] = [entry for entry in queue if not entry[2].cancelled]
            except AttributeError:
                queue[:] = [
                    entry
                    for entry in queue
                    if entry[2].__class__ is not ScheduledEvent
                    or not entry[2].cancelled
                ]
        heapq.heapify(queue)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Calendar statistics (observability gauges)
    # ------------------------------------------------------------------
    def calendar_depth(self) -> int:
        """Current calendar length, cancelled entries included
        (slot + heap + side calendar)."""
        return len(self._queue) + self._soa_n + (self._next is not None)

    @property
    def calendar_cancelled(self) -> int:
        """Cancelled entries still pending lazy discard (all sources)."""
        return self._cancelled + len(self._kind_cancelled)

    def cancelled_fraction(self) -> float:
        """Fraction of calendar entries that are cancelled (0.0 if empty)."""
        n = len(self._queue) + self._soa_n + (self._next is not None)
        if not n:
            return 0.0
        return (self._cancelled + len(self._kind_cancelled)) / n

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events on the calendar — O(1)."""
        return (
            len(self._queue)
            + self._soa_n
            + (self._next is not None)
            - self._cancelled
            - len(self._kind_cancelled)
        )

    # ------------------------------------------------------------------
    # Fast-forward support (see repro.winsys.kernel._try_fast_forward)
    # ------------------------------------------------------------------
    def fast_forward_budget(self, step_ns: int) -> int:
        """Largest ``k`` such that jumping ``k * step_ns`` is invisible.

        The jump must land strictly before the next live calendar event
        (a segment that would span it must execute normally so the event
        — typically a clock tick stealing time — elongates it exactly as
        on the slow path) and at or before the active run horizon (the
        slow path executes events at the horizon itself).  Returns 0
        when no bound exists (empty calendar and no horizon — nothing to
        fast-forward *to*), when a ``max_events`` run is active, or when
        a stop was requested mid-callback.
        """
        if step_ns <= 0 or not self._ff_allowed or self._stop_requested:
            return 0
        self._discard_cancelled()
        nxt = self._next
        if nxt is not None:
            next_time = nxt[0]
        else:
            next_time = self._queue[0][0] if self._queue else None
        soa = self._soa_next() if self._soa_n else None
        if soa is not None and (next_time is None or soa[0] < next_time):
            next_time = soa[0]
        budget = None
        if next_time is not None:
            # An event at or before now + step (e.g. an isr-return at the
            # current timestamp) leaves no room for even one segment.
            budget = (next_time - self._now - 1) // step_ns
            if budget <= 0:
                return 0
        horizon = self._horizon
        if horizon is not None:
            by_horizon = (horizon - self._now) // step_ns
            if budget is None or by_horizon < budget:
                budget = by_horizon
        return budget if budget is not None and budget > 0 else 0

    def fast_forward(self, delta_ns: int, events: int) -> None:
        """Jump the clock by ``delta_ns``, accounting ``events`` callbacks.

        The sequence counter advances by ``events`` too, so every event
        scheduled afterwards receives the exact ``(time, seq)`` key it
        would have had if the skipped callbacks had each performed one
        ``schedule`` + execution round — which is what keeps ordering
        (and therefore every downstream trace) bit-identical.
        """
        if delta_ns < 0 or events < 0:
            raise SimulationError(
                f"cannot fast-forward by {delta_ns} ns / {events} events"
            )
        target = self._now + delta_ns
        if self._horizon is not None and target > self._horizon:
            raise SimulationError(
                f"fast-forward to {target} ns crosses run horizon "
                f"{self._horizon} ns"
            )
        if self._next is not None and target >= self._next[0]:
            raise SimulationError(
                f"fast-forward to {target} ns crosses pending event at "
                f"{self._next[0]} ns"
            )
        if self._queue and target >= self._queue[0][0]:
            raise SimulationError(
                f"fast-forward to {target} ns crosses pending event at "
                f"{self._queue[0][0]} ns"
            )
        if self._soa_n and target >= self._soa_times[self._soa_head]:
            raise SimulationError(
                f"fast-forward to {target} ns crosses pending side-calendar "
                f"entry at {self._soa_times[self._soa_head]} ns"
            )
        self._now = target
        self._seq += events
        self.events_executed += events
        self.events_fast_forwarded += events

    def tick_span_window(self, hid: int) -> Optional[Tuple[int, int]]:
        """``(tick_ns, limit_ns)`` when a tick span may start, else None.

        A tick span (see :meth:`repro.winsys.kernel.Kernel._span_ticks`)
        completes whole quiet clock periods in one callback.  It may
        start only inside a :meth:`run` without ``until`` predicate,
        ``max_events`` or pending stop, with the side calendar empty,
        and when the earliest live entry is a no-argument kind entry of
        handler ``hid`` — the periodic tick — due at ``tick_ns``.
        ``limit_ns`` is the last instant a synthesized event may occupy:
        one before the earliest *other* entry (cancelled ones included,
        so a span never passes an entry the slow path would pop, and
        every synthesized event has a larger seq than any pending one),
        capped at the run horizon, where the slow path still executes.
        Returns None when neither bound exists.
        """
        if not self._span_allowed or self._stop_requested or self._soa_n:
            return None
        self._discard_cancelled()
        queue = self._queue
        head = self._next
        if head is not None:
            others = queue[:1]
        elif queue:
            # Heap order: the second-smallest entry is a child of the root.
            head = queue[0]
            others = queue[1:3]
        else:
            return None
        payload = head[2]
        if payload.__class__ is not int or payload != hid or len(head) != 3:
            return None
        limit = self._horizon
        for entry in others:
            if limit is None or entry[0] <= limit:
                limit = entry[0] - 1
        if limit is None:
            return None
        return head[0], limit

    def commit_tick_span(
        self,
        tick_ns: int,
        tick_seq: int,
        now_ns: int,
        seq: int,
        events: int,
        depth_peak: int,
    ) -> None:
        """Land a tick span computed against :meth:`tick_span_window`.

        Moves the pending tick entry (the calendar head) to the
        ``(tick_ns, tick_seq)`` key the per-tick path would have given
        it, sets the clock and sequence counter to ``now_ns`` / ``seq``,
        accounts ``events`` synthesized callbacks as executed *and*
        fast-forwarded, and raises the calendar high-water mark to the
        ``depth_peak`` the spanned ticks would have reached.  Nothing
        may touch the calendar between the window and the commit.
        """
        if now_ns < self._now or tick_ns <= now_ns or seq <= tick_seq:
            raise SimulationError(
                f"inconsistent tick span: now {self._now} -> {now_ns} ns, "
                f"tick at {tick_ns} ns (seq {tick_seq}, counter {seq})"
            )
        if self._horizon is not None and now_ns > self._horizon:
            raise SimulationError(
                f"tick span to {now_ns} ns crosses run horizon "
                f"{self._horizon} ns"
            )
        queue = self._queue
        head = self._next
        if head is not None:
            self._next = None
        else:
            head = _heappop(queue)
        entry = (tick_ns, tick_seq, head[2])
        if queue and tick_ns >= queue[0][0]:
            _heappush(queue, entry)
        else:
            self._next = entry
        self._now = now_ns
        self._seq = seq
        self.events_executed += events
        self.events_fast_forwarded += events
        if depth_peak > self.calendar_high_water:
            self.calendar_high_water = depth_peak

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        self._discard_cancelled()
        soa = self._soa_next() if self._soa_n else None
        nxt = self._next
        queue = self._queue
        if nxt is not None:
            heap_key = (nxt[0], nxt[1])
        elif queue:
            heap_key = (queue[0][0], queue[0][1])
        else:
            heap_key = None
        if soa is not None and (heap_key is None or soa < heap_key):
            self._exec_soa_run(None, None, 0, batch_allowed=False)
            return True
        if heap_key is None:
            return False
        if nxt is not None:
            self._next = None
            entry = nxt
        else:
            entry = _heappop(queue)
        payload = entry[2]
        self._now = entry[0]
        self.events_executed += 1
        if payload.__class__ is ScheduledEvent:
            payload.callback()
        elif len(entry) == 3:
            self._handler_fns[payload]()
        else:
            self._handler_fns[payload](entry[3])
        return True

    def run(
        self,
        until_ns: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the calendar.

        Stops when any of the following holds:

        * the calendar is exhausted,
        * the next event lies beyond ``until_ns`` (the clock is then
          advanced exactly to ``until_ns``),
        * the predicate ``until`` returns True after an event,
        * ``max_events`` callbacks have executed, or
        * :meth:`stop` was called from inside a callback.

        Returns the simulated time at which the run stopped.

        Side-calendar runs execute batched when :attr:`batch_enabled` and
        no ``until`` predicate is active (a predicate must be evaluated
        between every two events, which is exactly what a batch elides).
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stop_requested = False
        self._horizon = until_ns
        self._ff_allowed = max_events is None
        self._span_allowed = max_events is None and until is None
        executed = 0
        heap_done = 0  # deferred events_executed increments, flushed below
        batch_allowed = self.batch_enabled and until is None
        # The hot loop: local bindings, no step()/peek indirection.  The
        # queue list is aliased locally — compaction mutates it in place.
        # Heap entries compare on their leading (time, seq) ints at C
        # speed; the payload is reached only after the pop.  The slot
        # (self._next) is re-read every iteration: callbacks displace it.
        queue = self._queue
        fns = self._handler_fns
        event_cls = ScheduledEvent
        try:
            while True:
                if self._stop_requested:
                    break
                if until is not None and until():
                    break
                if max_events is not None and executed >= max_events:
                    break
                head = self._next
                if self._soa_n:
                    soa = self._soa_next()
                    if soa is not None:
                        # The earliest heap-side candidate is the slot if
                        # occupied (invariant: slot < heap), else the head.
                        if head is not None:
                            if head[0] < soa[0] or (
                                head[0] == soa[0] and head[1] < soa[1]
                            ):
                                soa = None
                        elif queue:
                            qhead = queue[0]
                            if qhead[0] < soa[0] or (
                                qhead[0] == soa[0] and qhead[1] < soa[1]
                            ):
                                soa = None
                        if soa is not None:
                            if until_ns is not None and soa[0] > until_ns:
                                self._now = until_ns
                                break
                            executed += self._exec_soa_run(
                                until_ns, max_events, executed, batch_allowed
                            )
                            continue
                if head is not None:
                    time = head[0]
                    if until_ns is not None and time > until_ns:
                        self._now = until_ns
                        break  # the slot entry stays pending
                    self._next = None
                elif queue:
                    head = queue[0]
                    time = head[0]
                    if until_ns is not None and time > until_ns:
                        self._now = until_ns
                        break
                    _heappop(queue)
                else:
                    break
                payload = head[2]
                if payload.__class__ is event_cls:
                    if payload.cancelled:
                        self._cancelled -= 1
                        continue
                    self._now = time
                    heap_done += 1
                    payload.callback()
                    executed += 1
                else:
                    kc = self._kind_cancelled
                    if kc and head[1] in kc:
                        kc.discard(head[1])
                        continue
                    self._now = time
                    heap_done += 1
                    if len(head) == 3:
                        fns[payload]()
                    else:
                        fns[payload](head[3])
                    executed += 1
            if (
                until_ns is not None
                and self._now < until_ns
                and self._next is None
                and not queue
                and not self._soa_n
            ):
                # Nothing left to do before the horizon; advance the clock.
                self._now = until_ns
        finally:
            # Heap-path executions are counted in a local and flushed once:
            # every reader of events_executed observes it between runs (or
            # via fast_forward / the side-calendar path, which add to the
            # attribute directly — integer adds commute with this flush).
            self.events_executed += heap_done
            self._running = False
            self._horizon = None
            self._ff_allowed = True
            self._span_allowed = False
        return self._now
