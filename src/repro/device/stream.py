"""Minimal stream model for overlap analysis.

The bulk of the reproduction runs synchronously on a single compute stream
(which is how eager PyTorch issues its kernels), so the device clock alone is
sufficient.  Streams carry the swap-execution engine
(:mod:`repro.swap`): a dedicated copy stream lets evictions and prefetches
overlap with compute, and the engine needs to know when the copy engine would
actually be free — the stream's completion horizon is what turns concurrent
swap traffic into serialized copies and, ultimately, measured stalls.

The device's *compute* stream is only a completion horizon: kernels (and the
swap engine's rematerializations) are issued synchronously, so
:meth:`Device.run_kernel <repro.device.device.Device.run_kernel>` moves
``busy_until_ns`` itself — ``max(busy_until, now) + duration``, what
:meth:`Stream.schedule` would compute — and puts nothing in ``ops``.  The
history and the busy-interval index below exist for streams that are
scheduled through these methods: the copy stream, and a compute stream a
caller schedules by hand.

A :class:`Stream` tracks the time at which its last scheduled operation
finishes; scheduling a new operation starts at ``max(now, busy_until)``.
:meth:`Stream.schedule_at` additionally lets a caller reserve a slot at (or
after) a *future* point in time — the mechanism behind deadline-driven
prefetches — while still never moving the stream's horizon backwards.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import List, Tuple

from .clock import DeviceClock


@dataclass
class StreamOp:
    """One operation scheduled on a stream."""

    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        """Duration of the operation in nanoseconds."""
        return self.end_ns - self.start_ns


class Stream:
    """An in-order queue of device operations with its own completion horizon.

    Zero-duration operations (empty transfers, degenerate reservations) are
    recorded in the op history but never move ``busy_until_ns``: an op that
    occupies no time must not make the engine look busy at a future instant,
    or a far-deadline zero-byte prefetch would serialize real copies behind
    an empty slot.
    """

    def __init__(self, name: str, clock: DeviceClock):
        self.name = name
        self.clock = clock
        self.busy_until_ns = clock.now_ns
        self.ops: List[StreamOp] = []
        # Busy intervals kept sorted by start for the reservation gap search;
        # intervals entirely in the past are pruned whenever an op is placed,
        # FIFO or reserved, so the index tracks the number of *in-flight*
        # ops, not the run's full history.
        self._busy_intervals: List[Tuple[int, int]] = []

    def schedule(self, duration_ns: int, name: str = "") -> Tuple[int, int]:
        """Schedule an operation of ``duration_ns``; returns its (start, end) times.

        The operation starts when both the stream is free and the current
        device time has been reached; it does **not** advance the device clock
        (the caller synchronizes explicitly if needed).
        """
        return self.schedule_at(self.clock.now_ns, duration_ns, name=name)

    def schedule_at(self, earliest_start_ns: int, duration_ns: int,
                    name: str = "") -> Tuple[int, int]:
        """Schedule an operation that may start no earlier than ``earliest_start_ns``.

        The operation starts at ``max(earliest_start_ns, busy_until)`` — an
        in-order stream can never run an op before the previous one finished,
        so an earliest-start in the past (or before the stream's completion
        horizon) is clamped forward rather than moving time backwards.  The
        returned ``(start, end)`` therefore always satisfies
        ``start >= previous op's end`` and ``end >= busy_until`` — the stream
        horizon is monotonic even for callers that compute stale deadlines.
        """
        if duration_ns < 0:
            raise ValueError("duration_ns must be non-negative")
        start = max(int(earliest_start_ns), self.busy_until_ns)
        end = start + int(duration_ns)
        if end > start:
            self.busy_until_ns = end
        self._append_op(start, end, name)
        return start, end

    def _append_op(self, start: int, end: int, name: str) -> None:
        """Record one scheduled operation (history + sorted busy index)."""
        self.ops.append(StreamOp(name or f"{self.name}-op{len(self.ops)}", start, end))
        if end > start:
            # Reservations are clamped to start no earlier than the device's
            # current time, so an interval that ended at or before it can
            # never constrain a placement again: drop those first.
            intervals, now = self._busy_intervals, self.clock.now_ns
            drop = 0
            while drop < len(intervals) and intervals[drop][1] <= now:
                drop += 1
            if drop:
                del intervals[:drop]
            insort(intervals, (start, end))

    def reserve(self, earliest_start_ns: int, duration_ns: int,
                name: str = "") -> Tuple[int, int]:
        """Reserve the earliest idle window of ``duration_ns`` at/after a time.

        Unlike the FIFO :meth:`schedule_at`, a reservation may *backfill* an
        idle gap between already-scheduled operations — the model of a copy
        engine whose transfers are issued on independent hardware queues, so
        a far-future reservation (a prefetch against a distant deadline) does
        not head-of-line-block an urgent transfer issued later.  Contention
        is still real: overlapping requests serialize through the gap search,
        and the stream's completion horizon only moves forward.
        """
        if duration_ns < 0:
            raise ValueError("duration_ns must be non-negative")
        duration = int(duration_ns)
        # A reservation made now can never start in the past.
        start = max(int(earliest_start_ns), self.clock.now_ns)
        for busy_start, busy_end in self._busy_intervals:
            if start + duration <= busy_start:
                break
            if busy_end > start:
                start = busy_end
        end = start + duration
        if end > start:
            self.busy_until_ns = max(self.busy_until_ns, end)
        self._append_op(start, end, name)
        return start, end

    def reserve_before(self, latest_end_ns: int, duration_ns: int,
                       earliest_start_ns: int = 0, name: str = "") -> Tuple[int, int]:
        """Latest-fitting reservation that completes by ``latest_end_ns``.

        The deadline-driven counterpart of :meth:`reserve`: the operation is
        placed in the idle window that lets it finish as late as possible
        while still meeting the deadline (so several prefetches against the
        same deadline stack backwards in time instead of serializing past
        it).  When no window can meet the deadline the op falls back to the
        earliest-fit placement — it will simply be late, and the caller's
        stall accounting shows by how much.
        """
        if duration_ns < 0:
            raise ValueError("duration_ns must be non-negative")
        duration = int(duration_ns)
        latest_end = int(latest_end_ns)
        # A reservation made now can never start in the past.
        earliest = max(int(earliest_start_ns), self.clock.now_ns)
        best_start = None
        cursor = earliest
        gaps = []
        for busy_start, busy_end in self._busy_intervals:
            if busy_start > cursor:
                gaps.append((cursor, busy_start))
            cursor = max(cursor, busy_end)
        gaps.append((cursor, None))  # the open-ended tail
        for gap_start, gap_end in gaps:
            window_end = latest_end if gap_end is None else min(gap_end, latest_end)
            start = window_end - duration
            if start >= max(gap_start, earliest):
                best_start = start if best_start is None else max(best_start, start)
        if best_start is None:
            return self.reserve(earliest, duration, name=name)
        end = best_start + duration
        if end > best_start:
            self.busy_until_ns = max(self.busy_until_ns, end)
        self._append_op(best_start, end, name)
        return best_start, end

    def synchronize(self) -> int:
        """Advance the device clock to this stream's completion horizon."""
        if self.busy_until_ns > self.clock.now_ns:
            self.clock.advance_to(self.busy_until_ns)
        return self.clock.now_ns

    def idle_time_ns(self) -> int:
        """Total idle gaps between consecutive operations on this stream."""
        idle = 0
        ordered = sorted(self.ops, key=lambda op: (op.start_ns, op.end_ns))
        for previous, current in zip(ordered, ordered[1:]):
            idle += max(0, current.start_ns - previous.end_ns)
        return idle

    def busy_time_ns(self) -> int:
        """Total busy time of the stream."""
        return sum(op.duration_ns for op in self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Stream({self.name!r}, busy_until={self.busy_until_ns}, ops={len(self.ops)})"
