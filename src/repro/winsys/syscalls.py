"""Syscall request objects.

Application and system threads are Python generators; every interaction
with the kernel is expressed by *yielding* one of these request objects
and receiving the result when the kernel resumes the generator.  All
simulated time is explicit: a thread only consumes CPU through
:class:`Compute` (or through the costs the Win32 layer attaches to its
API calls), so cost models live in one auditable place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.work import Work
from .messages import Message, WM

__all__ = [
    "Syscall",
    "Compute",
    "IdleCompute",
    "BusyWait",
    "GetMessage",
    "PeekMessage",
    "PostMessage",
    "GdiOp",
    "GdiFlush",
    "UserCall",
    "SyncRead",
    "SyncWrite",
    "AsyncRead",
    "AsyncWrite",
    "Sleep",
    "SetTimer",
    "KillTimer",
    "YieldCpu",
    "ReadCycleCounter",
    "SpawnThread",
    "ExitThread",
]


class Syscall:
    """Base class for all yieldable kernel requests."""

    __slots__ = ()


@dataclass
class Compute(Syscall):
    """Execute ``work`` on the CPU (application-private computation)."""

    work: Work


@dataclass
class IdleCompute(Compute):
    """One idle-loop busy-wait segment, batchable by the fast-forward path.

    Identical to :class:`Compute` except that the issuer declares the
    segment *stateless and repeating*: if the kernel finds the machine
    otherwise idle it may complete up to ``max_batch`` consecutive
    segments analytically (jumping the clock instead of executing each
    busy-wait) and return their completion times — an ``array('q')``,
    one timestamp per segment — as the syscall result.  A ``None``
    result means the segment executed normally.  The issuer — the
    idle-loop instrument — then writes the trace records the executed
    segments would have produced.  ``max_batch`` is the instrument's
    remaining buffer space, so a batch can never run past the point
    where the real loop would have stopped ("while
    space_left_in_the_buffer").  ``span_ticks`` additionally lets a
    batch cross quiet clock ticks, elongated segments included; an
    issuer that reads counters at each record (which the ticks' ISRs
    change) leaves it False.  With ``max_batch=0`` (or the kernel's
    ``fast_forward`` flag off) the syscall degenerates to ``Compute``,
    which is the bit-identical slow path the A/B tests compare against.
    """

    max_batch: int = 0
    span_ticks: bool = False


@dataclass
class BusyWait(Syscall):
    """Spin on the CPU until a message is posted to this thread.

    The poll-mode wait of 16-bit-era code: instead of blocking in
    GetMessage, the thread burns cycles until input arrives, keeping
    the processor 100% busy — the application-level analogue of the
    Windows 95 mouse-click spin the paper uncovered (Figure 6).  The
    syscall returns None once a message is queued; the application then
    retrieves it with Peek/GetMessage.
    """

    reason: str = ""


@dataclass
class GetMessage(Syscall):
    """Block until a message is available, then retrieve it.

    The Win32 layer attaches the per-personality call overhead, flushes
    the thread's GDI batch, and fires API hooks — this is the
    interposition point of Section 2.4.
    """


@dataclass
class PeekMessage(Syscall):
    """Non-blocking queue examination.

    ``remove`` mirrors PM_REMOVE; the result is the message or None.
    """

    remove: bool = False


@dataclass
class PostMessage(Syscall):
    """Post ``message`` to another thread's queue (or our own)."""

    target: object  # SimThread
    message: Message


@dataclass
class GdiOp(Syscall):
    """Issue one batched graphics operation of ``base`` cost.

    The operation enters the thread's GDI batch; actual execution cost
    (with the OS personality's crossing/16-bit annotations) is charged
    when the batch flushes (Section 1.1's batching discussion).
    """

    base: Work
    pixels: int = 0


@dataclass
class GdiFlush(Syscall):
    """Force the thread's GDI batch to the server/driver now."""


@dataclass
class UserCall(Syscall):
    """A USER32-style call of ``base`` cost, subject to personality costs."""

    name: str
    base: Work


@dataclass
class SyncRead(Syscall):
    """Synchronous file read; blocks if any block misses the buffer cache."""

    file: object  # filesystem.SimFile
    offset: int
    length: int


@dataclass
class SyncWrite(Syscall):
    """Synchronous file write (write-through to disk)."""

    file: object
    offset: int
    length: int


@dataclass
class AsyncRead(Syscall):
    """Asynchronous read-ahead; returns immediately, populates the cache."""

    file: object
    offset: int
    length: int


@dataclass
class AsyncWrite(Syscall):
    """Asynchronous write-behind (autosave-style background I/O).

    Returns immediately; the disk traffic proceeds in the background.
    Per Figure 2's assumption, asynchronous I/O is background activity
    the user does not wait for.
    """

    file: object
    offset: int
    length: int


@dataclass
class Sleep(Syscall):
    """Block for at least ``duration_ns``, rounded up to the timer tick.

    Tick rounding reproduces the 10 ms alignment of paced animation
    steps (Figure 4a).
    """

    duration_ns: int


@dataclass
class SetTimer(Syscall):
    """Request periodic WM_TIMER messages every ``period_ns`` (tick-rounded)."""

    timer_id: int
    period_ns: int


@dataclass
class KillTimer(Syscall):
    """Cancel a periodic timer created with SetTimer."""

    timer_id: int


@dataclass
class YieldCpu(Syscall):
    """Relinquish the processor to any equal-priority ready thread."""


@dataclass
class ReadCycleCounter(Syscall):
    """RDTSC: returns the free-running cycle counter (user-mode readable).

    This is what the 'traditional' getchar-timestamp measurement of
    Figure 1 uses.
    """


@dataclass
class SpawnThread(Syscall):
    """Create a new thread in this process; result is the SimThread."""

    name: str
    coroutine: object
    priority: int


@dataclass
class ExitThread(Syscall):
    """Terminate the calling thread."""
