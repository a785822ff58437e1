"""The copy stream of the swap overlay: reservations against a second clock.

The simulated device issues every kernel and every copy synchronously, so
its clock alone is its timeline.  Swap traffic is the one thing that runs
beside it: the overlay (:mod:`repro.swap.executor`) reserves its evictions
and prefetches on a :class:`Stream` of its own virtual clock — vDNN's
prefetch model, where the copy stream is a second clock and a copy that is
not done by the access that needs it is a stall.

A reservation may backfill an idle gap between transfers already placed,
never starts before the clock's current time, and overlapping requests
serialize through the gap search, so concurrent swap traffic contends.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Tuple

from .clock import DeviceClock


class Stream:
    """Busy intervals of one copy engine, placed by reservation.

    Zero-duration reservations occupy no time and are not indexed: an empty
    transfer must not make the engine look busy at a future instant, or a
    far-deadline zero-byte prefetch would serialize real copies behind an
    empty slot.
    """

    def __init__(self, clock: DeviceClock):
        self.clock = clock
        # Busy intervals kept sorted by start for the reservation gap search;
        # intervals entirely in the past are pruned whenever one is placed,
        # so the index tracks the number of *in-flight* copies, not the
        # run's full history.
        self._busy_intervals: List[Tuple[int, int]] = []

    def _place(self, start: int, end: int) -> Tuple[int, int]:
        """Index one placed interval (pruning the elapsed ones) and return it."""
        if end > start:
            # Reservations are clamped to start no earlier than the clock's
            # current time, so an interval that ended at or before it can
            # never constrain a placement again: drop those first.
            intervals, now = self._busy_intervals, self.clock.now_ns
            drop = 0
            while drop < len(intervals) and intervals[drop][1] <= now:
                drop += 1
            if drop:
                del intervals[:drop]
            insort(intervals, (start, end))
        return start, end

    def reserve(self, earliest_start_ns: int, duration_ns: int) -> Tuple[int, int]:
        """Reserve the earliest idle window of ``duration_ns`` at/after a time.

        A reservation may *backfill* an idle gap between already-placed
        transfers — the model of a copy engine whose transfers are issued on
        independent hardware queues, so a far-future reservation (a prefetch
        against a distant deadline) does not head-of-line-block an urgent
        transfer issued later.  Contention is still real: overlapping
        requests serialize through the gap search.  Returns ``(start, end)``.
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
        return self._place(start, start + duration)

    def reserve_before(self, latest_end_ns: int, duration_ns: int,
                       earliest_start_ns: int = 0) -> Tuple[int, int]:
        """Latest-fitting reservation that completes by ``latest_end_ns``.

        The deadline-driven counterpart of :meth:`reserve`: the transfer is
        placed in the idle window that lets it finish as late as possible
        while still meeting the deadline (so several prefetches against the
        same deadline stack backwards in time instead of serializing past
        it).  When no window can meet the deadline the transfer falls back
        to the earliest-fit placement — it will simply be late, and the
        caller's stall accounting shows by how much.
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
            return self.reserve(earliest, duration)
        return self._place(best_start, best_start + duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Stream(in_flight={len(self._busy_intervals)})"
