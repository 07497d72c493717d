"""Preemptive priority scheduler.

Highest priority wins; equal priorities round-robin on the clock tick.
The design detail that matters to the reproduction is the *idle slot*:
when no thread is ready, the CPU is genuinely idle and simulated time
simply passes — unless an instrument has installed itself as an
idle-priority thread, in which case it runs there, exactly like the
paper's replacement idle loop ("we replace the system's idle loop with
our own low-priority process", Section 2.3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .threads import SimThread, ThreadState

__all__ = ["Scheduler"]


class Scheduler:
    """Priority ready-queues with O(1) dispatch."""

    def __init__(self) -> None:
        self._ready: Dict[int, Deque[SimThread]] = {}
        self._priorities: List[int] = []  # sorted descending
        self._requeue_jitter: Optional[Callable[[SimThread], bool]] = None
        #: Highest priority with a ready thread, -1 when all queues are
        #: empty.  Maintained incrementally so the kernel's per-segment
        #: preemption checks read one attribute instead of scanning.
        self.top = -1

    def set_requeue_jitter(
        self, jitter: Optional[Callable[[SimThread], bool]]
    ) -> None:
        """Install (or clear) a preemption-requeue jitter source.

        When a preempted thread is re-queued with ``front=True`` the
        jitter source may demote it to the back of its priority queue —
        it loses its place to equal-priority peers, the way a loaded or
        misbehaving scheduler perturbs dispatch order.  The source must
        be deterministic (a seeded RNG stream) to keep runs
        reproducible; it is consulted only on front insertions, so a
        quiet system is never perturbed.
        """
        self._requeue_jitter = jitter

    @property
    def requeue_jitter(self) -> Optional[Callable[[SimThread], bool]]:
        """The installed preemption-requeue jitter source, or None."""
        return self._requeue_jitter

    def _queue_for(self, priority: int) -> Deque[SimThread]:
        queue = self._ready.get(priority)
        if queue is None:
            queue = deque()
            self._ready[priority] = queue
            self._priorities.append(priority)
            self._priorities.sort(reverse=True)
        return queue

    def make_ready(self, thread: SimThread, front: bool = False) -> None:
        """Add a thread to its ready queue.

        ``front=True`` is used when re-queueing a preempted thread so it
        resumes before equal-priority peers (it had not exhausted its
        quantum voluntarily).
        """
        if thread.state == ThreadState.DONE:
            raise ValueError(f"cannot ready finished thread {thread!r}")
        thread.state = ThreadState.READY
        thread.wait_reason = None
        queue = self._queue_for(thread.priority)
        if front and self._requeue_jitter is not None and self._requeue_jitter(thread):
            front = False
        if front:
            queue.appendleft(thread)
        else:
            queue.append(thread)
        if thread.priority > self.top:
            self.top = thread.priority

    def _scan_top(self) -> int:
        for priority in self._priorities:
            if self._ready[priority]:
                return priority
        return -1

    def pick(self) -> Optional[SimThread]:
        """Remove and return the highest-priority ready thread."""
        for priority in self._priorities:
            queue = self._ready[priority]
            if queue:
                thread = queue.popleft()
                thread.state = ThreadState.RUNNING
                self.top = priority if queue else self._scan_top()
                return thread
        return None

    def top_priority(self) -> Optional[int]:
        """Priority of the best ready thread, or None when all queues empty."""
        top = self.top
        return top if top >= 0 else None

    def has_ready_at(self, priority: int) -> bool:
        """True if another thread at exactly ``priority`` is waiting."""
        queue = self._ready.get(priority)
        return bool(queue)

    def remove(self, thread: SimThread) -> bool:
        """Remove a thread from the ready queues (e.g. on kill)."""
        queue = self._ready.get(thread.priority)
        if queue and thread in queue:
            queue.remove(thread)
            self.top = self._scan_top()
            return True
        return False

    def ready_count(self) -> int:
        return sum(len(queue) for queue in self._ready.values())

    def __repr__(self) -> str:
        parts = [
            f"{priority}:{len(queue)}"
            for priority, queue in sorted(self._ready.items(), reverse=True)
            if queue
        ]
        return f"<Scheduler ready=[{', '.join(parts)}]>"
