"""Tests for the copy stream: reservations against a clock."""

import random

import pytest

from repro.device.clock import DeviceClock
from repro.device.stream import Stream


def test_stream_rejects_negative_duration():
    stream = Stream(DeviceClock())
    with pytest.raises(ValueError):
        stream.reserve(0, -1)
    with pytest.raises(ValueError):
        stream.reserve_before(100, -1)


# -- reserve / reserve_before: gap-filling copy-engine reservations ---------------------


def test_reserve_backfills_idle_gaps():
    stream = Stream(DeviceClock())
    stream.reserve(100, 50)                     # busy [100, 150)
    start, end = stream.reserve(0, 30)          # fits before the reservation
    assert (start, end) == (0, 30)
    start2, end2 = stream.reserve(0, 80)        # does not fit in [30, 100)
    assert (start2, end2) == (150, 230)


def test_reserve_in_a_busy_window_starts_when_it_ends():
    stream = Stream(DeviceClock())
    stream.reserve(0, 100)                      # busy [0, 100)
    assert stream.reserve(40, 10) == (100, 110)  # clamps forward, never back


def test_reserve_honors_a_future_start():
    stream = Stream(DeviceClock())
    assert stream.reserve(500, 20) == (500, 520)
    # a copy asking to start inside the future reservation queues after it
    assert stream.reserve(510, 5) == (520, 525)
    # one asking for now backfills the idle window before it
    assert stream.reserve(0, 5) == (0, 5)


def test_contending_reservations_never_overlap():
    rng = random.Random(7)
    clock = DeviceClock()
    stream = Stream(clock)
    placed = []
    for _ in range(300):
        duration = rng.randrange(1, 80)
        if rng.random() < 0.5:
            earliest = clock.now_ns + rng.randrange(0, 400)
            start, end = stream.reserve(earliest, duration)
            assert start >= earliest
        else:
            start, end = stream.reserve_before(clock.now_ns + rng.randrange(0, 600),
                                               duration)
        assert start >= clock.now_ns and end - start == duration
        placed.append((start, end))
        clock.advance(rng.randrange(0, 40))
    placed.sort()
    assert all(end <= next_start
               for (_, end), (next_start, _) in zip(placed, placed[1:]))


def test_reserve_before_places_latest_fit_meeting_deadline():
    stream = Stream(DeviceClock())
    first = stream.reserve_before(1000, 100)
    assert first == (900, 1000)
    # same deadline: the second transfer stacks backwards in time
    second = stream.reserve_before(1000, 100)
    assert second == (800, 900)


def test_reserve_before_falls_back_when_deadline_unmeetable():
    stream = Stream(DeviceClock())
    stream.reserve(0, 100)                      # busy [0, 100)
    start, end = stream.reserve_before(50, 80, earliest_start_ns=0)
    assert start >= 100                         # late, via earliest-fit
    assert end - start == 80


def test_reserve_before_respects_earliest_start():
    stream = Stream(DeviceClock())
    start, end = stream.reserve_before(1000, 100, earliest_start_ns=950)
    # the window [950, 1000) cannot hold 100ns; earliest-fit from 950
    assert (start, end) == (950, 1050)


# -- zero-duration reservations never make the engine busy -----------------------------


def test_zero_duration_reserve_does_not_block_later_copies():
    stream = Stream(DeviceClock())
    stream.reserve(0, 100)
    start, end = stream.reserve(5_000, 0)
    assert (start, end) == (5_000, 5_000)
    # A real copy across the empty slot is not serialized behind it.
    assert stream.reserve(4_990, 20) == (4_990, 5_010)


def test_zero_duration_reserve_before_does_not_block_later_copies():
    stream = Stream(DeviceClock())
    stream.reserve(0, 100)
    start, end = stream.reserve_before(9_000, 0)
    assert start == end == 9_000
    assert stream.reserve(8_990, 20) == (8_990, 9_010)


def test_reserve_before_fills_the_latest_gap_that_meets_the_deadline():
    stream = Stream(DeviceClock())
    stream.reserve(0, 100)                      # busy [0, 100)
    stream.reserve(500, 100)                    # busy [500, 600)
    # the deadline falls inside [500, 600): finish as that copy starts
    assert stream.reserve_before(550, 50) == (450, 500)
    assert stream.reserve_before(400, 50) == (350, 400)


def test_zero_duration_reservations_are_not_indexed():
    stream = Stream(DeviceClock())
    assert stream.reserve(500, 0) == (500, 500)
    assert stream.reserve_before(900, 0) == (900, 900)
    assert stream._busy_intervals == []


# -- deadlines that predate the current clock time -------------------------------------


def test_reserve_before_deadline_in_the_past_falls_back_to_earliest_fit():
    clock = DeviceClock()
    clock.advance(1_000)
    stream = Stream(clock)
    start, end = stream.reserve_before(500, 100)
    # The deadline is unmeetable (it predates the clock): earliest fit, late.
    assert (start, end) == (1_000, 1_100)


def test_reserve_before_deadline_before_clock_start_with_existing_ops():
    clock = DeviceClock()
    clock.advance(1_000)
    stream = Stream(clock)
    stream.reserve(0, 200)  # busy [1000, 1200)
    start, end = stream.reserve_before(0, 50)
    assert (start, end) == (1_200, 1_250)


def test_reserve_in_the_past_is_clamped_to_now():
    clock = DeviceClock()
    clock.advance(2_000)
    stream = Stream(clock)
    start, end = stream.reserve(0, 100)
    assert (start, end) == (2_000, 2_100)


# -- the busy index holds only in-flight copies -----------------------------------------


def test_back_to_back_copies_keep_the_busy_index_bounded():
    # A copy that ended by the clock's time is pruned when the next one is
    # placed, or the index would grow by one interval per copy.
    clock = DeviceClock()
    stream = Stream(clock)
    for _ in range(500):
        _, end = stream.reserve(clock.now_ns, 100)
        clock.advance_to(end)
        assert len(stream._busy_intervals) <= 1


def test_pruning_leaves_reservations_where_they_were():
    def placements(prune_history):
        clock = DeviceClock()
        stream = Stream(clock)
        placed = []
        for step in range(40):
            placed.append(stream.reserve(clock.now_ns + 30 * (step % 3), 40))
            placed.append(stream.reserve(clock.now_ns + 500, 25))
            placed.append(stream.reserve_before(clock.now_ns + 900, 60))
            clock.advance(170)
            if not prune_history:        # what an unpruned index would hold
                stream._busy_intervals[:] = sorted(
                    (start, end) for start, end in placed if end > start)
        return placed

    assert placements(prune_history=True) == placements(prune_history=False)
