"""Unit tests for the bounded trace buffer."""

from array import array

import pytest

from repro.sim.trace import IntTraceBuffer, TraceBuffer, TraceOverflow


class TestBasics:
    def test_append_and_read(self):
        buffer = TraceBuffer(10)
        buffer.append(1)
        buffer.append(2)
        assert buffer.records() == [1, 2]
        assert len(buffer) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TraceBuffer(1, on_full="bogus")

    def test_space_left(self):
        buffer = TraceBuffer(3)
        assert buffer.space_left == 3
        buffer.append(1)
        assert buffer.space_left == 2

    def test_last(self):
        buffer = TraceBuffer(3)
        assert buffer.last() is None
        buffer.append(5)
        buffer.append(6)
        assert buffer.last() == 6

    def test_clear(self):
        buffer = TraceBuffer(3)
        buffer.append(1)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.dropped == 0


class TestOverflowPolicies:
    def test_stop_drops_silently(self):
        buffer = TraceBuffer(2, on_full="stop")
        assert buffer.append(1)
        assert buffer.append(2)
        assert not buffer.append(3)
        assert buffer.records() == [1, 2]
        assert buffer.dropped == 1

    def test_raise_policy(self):
        buffer = TraceBuffer(1, on_full="raise")
        buffer.append(1)
        with pytest.raises(TraceOverflow):
            buffer.append(2)

    def test_wrap_policy_keeps_newest(self):
        buffer = TraceBuffer(3, on_full="wrap")
        for value in range(6):
            buffer.append(value)
        assert buffer.records() == [3, 4, 5]

    def test_wrap_chronological_order(self):
        buffer = TraceBuffer(3, on_full="wrap")
        for value in range(5):
            buffer.append(value)
        assert buffer.records() == [2, 3, 4]
        assert buffer.last() == 4

    def test_iteration(self):
        buffer = TraceBuffer(4)
        for value in (7, 8):
            buffer.append(value)
        assert list(buffer) == [7, 8]


class TestLastIsO1:
    """last() never materialises the unwrapped copy records() builds."""

    def test_wrap_last_at_every_cursor_position(self):
        for appended in range(1, 12):
            buffer = TraceBuffer(4, on_full="wrap")
            for value in range(appended):
                buffer.append(value)
            assert buffer.last() == appended - 1
            assert buffer.last() == buffer.records()[-1]

    def test_wrap_last_at_exact_boundary(self):
        # After exactly 2 full cycles the cursor is back at slot 0.
        buffer = TraceBuffer(3, on_full="wrap")
        for value in range(6):
            buffer.append(value)
        assert buffer._wrap_start == 0
        assert buffer.last() == 5

    def test_stop_full_buffer_last_is_newest_kept(self):
        buffer = TraceBuffer(2, on_full="stop")
        for value in range(5):
            buffer.append(value)
        assert buffer.last() == 1  # drops, never overwrites

    def test_last_does_not_copy(self, monkeypatch):
        buffer = TraceBuffer(3, on_full="wrap")
        for value in range(5):
            buffer.append(value)

        def boom():  # records() is the O(n) path last() must avoid
            raise AssertionError("last() called records()")

        monkeypatch.setattr(buffer, "records", boom)
        assert buffer.last() == 4


class TestView:
    """view() is the zero-copy read path; records() returns a copy."""

    def test_view_matches_records(self):
        buffer = TraceBuffer(4)
        for value in (1, 2, 3):
            buffer.append(value)
        assert list(buffer.view()) == buffer.records() == [1, 2, 3]

    def test_unwrapped_view_is_not_a_copy(self):
        buffer = TraceBuffer(4)
        buffer.append(1)
        assert buffer.view() is buffer.view()

    def test_records_is_a_defensive_copy(self):
        buffer = TraceBuffer(4)
        buffer.append(1)
        copy = buffer.records()
        copy.append(99)
        assert buffer.records() == [1]

    def test_wrapped_view_is_chronological(self):
        buffer = TraceBuffer(3, on_full="wrap")
        for value in range(5):
            buffer.append(value)
        assert list(buffer.view()) == [2, 3, 4]

    def test_iteration_uses_view(self):
        buffer = TraceBuffer(3, on_full="wrap")
        for value in range(5):
            buffer.append(value)
        assert list(buffer) == [2, 3, 4]


def _ramp(start, step, count):
    return [start + i * step for i in range(count)]


class TestExtendRamp:
    """Bulk append of a run of timestamps, as the fast-forward path does."""

    def test_ramp_matches_appends(self):
        ramp = TraceBuffer(10)
        ramp.extend(_ramp(100, 7, 4))
        loop = TraceBuffer(10)
        for i in range(4):
            loop.append(100 + 7 * i)
        assert ramp.records() == loop.records() == [100, 107, 114, 121]

    def test_ramp_zero_count_is_noop(self):
        buffer = TraceBuffer(2)
        buffer.extend([])
        assert len(buffer) == 0

    def test_ramp_never_overflows(self):
        buffer = TraceBuffer(3)
        buffer.append(1)
        with pytest.raises(TraceOverflow):
            buffer.extend(_ramp(100, 7, 3))
        assert buffer.records() == [1]  # nothing partially applied

    def test_ramp_exactly_fills(self):
        buffer = TraceBuffer(3)
        buffer.extend(_ramp(0, 1, 3))
        assert buffer.space_left == 0
        assert buffer.records() == [0, 1, 2]


class TestIntTraceBuffer:
    def test_array_backed_storage(self):
        buffer = IntTraceBuffer(8)
        buffer.append(5)
        assert isinstance(buffer._records, array)

    def test_behaves_like_trace_buffer(self):
        buffer = IntTraceBuffer(3, on_full="stop")
        assert buffer.append(1)
        assert buffer.append(2)
        assert buffer.append(3)
        assert not buffer.append(4)
        assert buffer.records() == [1, 2, 3]
        assert buffer.last() == 3
        assert buffer.dropped == 1

    def test_fast_ramp_matches_generic(self):
        fast = IntTraceBuffer(100)
        fast.extend(array("q", _ramp(10**9, 250_000, 50)))
        generic = TraceBuffer(100)
        generic.extend(_ramp(10**9, 250_000, 50))
        assert fast.records() == generic.records()

    def test_fast_ramp_zero_step(self):
        buffer = IntTraceBuffer(5)
        buffer.extend(array("q", _ramp(42, 0, 3)))
        assert buffer.records() == [42, 42, 42]

    def test_clear_keeps_array_type(self):
        buffer = IntTraceBuffer(4)
        buffer.append(1)
        buffer.clear()
        buffer.append(2)
        assert isinstance(buffer._records, array)
        assert buffer.records() == [2]

    def test_records_returns_plain_list(self):
        buffer = IntTraceBuffer(4)
        buffer.extend(array("q", _ramp(0, 1, 3)))
        records = buffer.records()
        assert type(records) is list
        assert records == [0, 1, 2]
