"""Bounded trace buffers for instrumentation records.

The paper's idle-loop instrument writes one record per millisecond of
idle time into a pre-allocated buffer ("while space_left_in_the_buffer",
Section 2.3).  :class:`TraceBuffer` models that: a capacity-bounded,
append-only log whose overflow behaviour is explicit, because buffer
sizing versus loop calibration (the N parameter) is one of the paper's
stated trade-offs.

:class:`IntTraceBuffer` is the specialization the idle trace actually
uses: records are integer nanosecond timestamps, stored in a compact
``array('q')`` instead of a list of boxed ints, with a bulk append
(:meth:`TraceBuffer.extend`, an ``array('q')`` run in one C-level copy)
for the fast-forward path that synthesizes runs of records.
"""

from __future__ import annotations

from array import array
from typing import Generic, Iterator, List, Optional, Sequence, TypeVar

__all__ = ["TraceBuffer", "IntTraceBuffer", "TraceOverflow"]

T = TypeVar("T")


class TraceOverflow(RuntimeError):
    """Raised when appending to a full buffer with ``on_full='raise'``."""


class TraceBuffer(Generic[T]):
    """Append-only record buffer with a fixed capacity.

    ``on_full`` selects the overflow policy:

    * ``'stop'``   — silently drop further records (the instrument's
      space_left_in_the_buffer check); ``dropped`` counts them,
    * ``'raise'``  — raise :class:`TraceOverflow`,
    * ``'wrap'``   — overwrite oldest records (ring buffer).
    """

    def __init__(self, capacity: int, on_full: str = "stop") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if on_full not in ("stop", "raise", "wrap"):
            raise ValueError(f"unknown overflow policy {on_full!r}")
        self.capacity = capacity
        self.on_full = on_full
        self.dropped = 0
        #: Records overwritten by the 'wrap' policy.  Like ``dropped``,
        #: a non-zero count means the buffer no longer holds the full
        #: history — downstream integrity checks that need every record
        #: (see :mod:`repro.verify.invariants`) must treat their result
        #: as *skipped*, not *passed*.
        self.overwritten = 0
        self._records: List[T] = []
        self._wrap_start = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def full(self) -> bool:
        return len(self._records) >= self.capacity

    @property
    def space_left(self) -> int:
        return max(0, self.capacity - len(self._records))

    @property
    def lossy(self) -> bool:
        """True when the buffer no longer holds the complete history.

        A 'stop' buffer that dropped records or a 'wrap' ring that
        overwrote them both yield a partial trace: analyses over it are
        still valid for the retained window, but integrity invariants
        that require the full record stream are not evaluable.
        """
        return self.dropped > 0 or self.overwritten > 0

    def append(self, record: T) -> bool:
        """Add a record.  Returns False when dropped by the 'stop' policy."""
        if not self.full:
            self._records.append(record)
            return True
        if self.on_full == "raise":
            raise TraceOverflow(f"trace buffer full at {self.capacity} records")
        if self.on_full == "stop":
            self.dropped += 1
            return False
        # wrap
        self._records[self._wrap_start] = record
        self._wrap_start = (self._wrap_start + 1) % self.capacity
        self.overwritten += 1
        return True

    def records(self) -> List[T]:
        """Records in chronological order, as a fresh list.

        Every call copies; callers that only need to *read* the records
        — especially in a loop or per-record pass — should prefer
        :meth:`view` or plain iteration, both of which are zero-copy for
        unwrapped buffers.
        """
        return list(self.view())

    def view(self) -> Sequence[T]:
        """Zero-copy chronological read view of the records.

        Returns the live internal storage (a list, or an ``array`` for
        :class:`IntTraceBuffer`): do not mutate it, and re-call after
        appending.  Only a wrapped ring has to materialize a copy, since
        chronological order then stitches two slices together.
        """
        if self.on_full == "wrap" and self.full and self._wrap_start:
            return (
                self._records[self._wrap_start :]
                + self._records[: self._wrap_start]
            )
        return self._records

    def __iter__(self) -> Iterator[T]:
        return iter(self.view())

    def last(self) -> Optional[T]:
        """Most recent record, or None when empty — O(1).

        In a wrapped ring the newest record sits just *before* the wrap
        cursor (the cursor points at the oldest, next-to-be-overwritten
        slot), so no unwrapped copy is needed.
        """
        if not self._records:
            return None
        if self.on_full == "wrap" and self.full and self._wrap_start:
            return self._records[self._wrap_start - 1]
        return self._records[-1]

    def extend(self, records: Sequence[T]) -> None:
        """Append a run of records at once (the fast-forward bulk path).

        The run must fit: the caller bounds it by :attr:`space_left`
        (the fast-forward batch protocol does exactly that), so no
        overflow policy applies.
        """
        if len(records) > self.space_left:
            raise TraceOverflow(
                f"run of {len(records)} records exceeds "
                f"space_left={self.space_left}"
            )
        self._records.extend(records)

    def clear(self) -> None:
        del self._records[:]
        self._wrap_start = 0
        self.dropped = 0
        self.overwritten = 0


class IntTraceBuffer(TraceBuffer[int]):
    """Integer-timestamp trace buffer backed by a compact ``array('q')``.

    The idle-loop instrument appends one int64 nanosecond timestamp per
    record; storing them unboxed roughly quarters the memory per record
    and makes the fast-forward bulk append (:meth:`extend` with an
    ``array('q')`` run) a single C-level copy.  All :class:`TraceBuffer`
    semantics (capacity, overflow policies, loss accounting) are
    inherited.
    """

    def __init__(self, capacity: int, on_full: str = "stop") -> None:
        super().__init__(capacity, on_full)
        self._records = array("q")  # type: ignore[assignment]
