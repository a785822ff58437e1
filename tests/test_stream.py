"""Tests for the stream model."""

import pytest

from repro.device.clock import DeviceClock
from repro.device.stream import Stream


def test_stream_schedules_back_to_back_operations():
    clock = DeviceClock()
    stream = Stream("compute", clock)
    start1, end1 = stream.schedule(100, name="k1")
    start2, end2 = stream.schedule(50, name="k2")
    assert (start1, end1) == (0, 100)
    assert (start2, end2) == (100, 150)
    assert stream.busy_time_ns() == 150
    assert stream.idle_time_ns() == 0


def test_stream_start_waits_for_device_time():
    clock = DeviceClock()
    stream = Stream("copy", clock)
    stream.schedule(10)
    clock.advance(100)
    start, end = stream.schedule(10)
    assert start == 100
    assert stream.idle_time_ns() == 90


def test_stream_synchronize_advances_clock():
    clock = DeviceClock()
    stream = Stream("compute", clock)
    stream.schedule(500)
    assert clock.now_ns == 0
    stream.synchronize()
    assert clock.now_ns == 500
    # Synchronizing an already-drained stream is a no-op.
    stream.synchronize()
    assert clock.now_ns == 500


def test_stream_rejects_negative_duration():
    stream = Stream("compute", DeviceClock())
    with pytest.raises(ValueError):
        stream.schedule(-1)


def test_stream_ops_get_default_names():
    stream = Stream("s", DeviceClock())
    stream.schedule(1)
    stream.schedule(1, name="named")
    assert stream.ops[0].name == "s-op0"
    assert stream.ops[1].name == "named"
    assert stream.ops[1].duration_ns == 1


# -- schedule_at: the start-before-busy_until edge case ---------------------------------


def test_schedule_at_never_moves_time_backwards():
    """An earliest-start before the stream horizon clamps forward, never back."""
    clock = DeviceClock()
    stream = Stream("copy", clock)
    stream.schedule(100)                       # busy until 100
    start, end = stream.schedule_at(40, 10)    # asks to start in the busy past
    assert (start, end) == (100, 110)
    assert stream.busy_until_ns == 110
    assert stream.idle_time_ns() == 0


def test_schedule_at_honors_future_start():
    clock = DeviceClock()
    stream = Stream("copy", clock)
    start, end = stream.schedule_at(500, 20)
    assert (start, end) == (500, 520)
    # a follow-up plain schedule queues after the future reservation
    start2, _ = stream.schedule(5)
    assert start2 == 520


def test_schedule_at_rejects_negative_duration():
    stream = Stream("copy", DeviceClock())
    with pytest.raises(ValueError):
        stream.schedule_at(0, -1)


def test_schedule_at_keeps_op_order_monotonic():
    """Interleaving past and future earliest-starts keeps starts sorted."""
    stream = Stream("copy", DeviceClock())
    starts = [stream.schedule_at(t, 10)[0] for t in (50, 10, 200, 100)]
    assert starts == sorted(starts)
    assert starts == [50, 60, 200, 210]


# -- reserve / reserve_before: gap-filling copy-engine reservations ---------------------


def test_reserve_backfills_idle_gaps():
    stream = Stream("copy", DeviceClock())
    stream.schedule_at(100, 50)                 # busy [100, 150)
    start, end = stream.reserve(0, 30)          # fits before the reservation
    assert (start, end) == (0, 30)
    start2, end2 = stream.reserve(0, 80)        # does not fit in [30, 100)
    assert (start2, end2) == (150, 230)
    assert stream.busy_until_ns == 230


def test_reserve_before_places_latest_fit_meeting_deadline():
    stream = Stream("copy", DeviceClock())
    first = stream.reserve_before(1000, 100)
    assert first == (900, 1000)
    # same deadline: the second transfer stacks backwards in time
    second = stream.reserve_before(1000, 100)
    assert second == (800, 900)


def test_reserve_before_falls_back_when_deadline_unmeetable():
    stream = Stream("copy", DeviceClock())
    stream.reserve(0, 100)                      # busy [0, 100)
    start, end = stream.reserve_before(50, 80, earliest_start_ns=0)
    assert start >= 100                         # late, via earliest-fit
    assert end - start == 80


def test_reserve_before_respects_earliest_start():
    stream = Stream("copy", DeviceClock())
    start, end = stream.reserve_before(1000, 100, earliest_start_ns=950)
    # the window [950, 1000) cannot hold 100ns; earliest-fit from 950
    assert (start, end) == (950, 1050)


# -- zero-duration operations never move the completion horizon -----------------------


def test_zero_duration_schedule_at_does_not_extend_horizon():
    clock = DeviceClock()
    stream = Stream("copy", clock)
    stream.schedule(100)
    stream.schedule_at(10_000, 0, name="empty")
    assert stream.busy_until_ns == 100
    # A real op issued afterwards is not serialized behind the empty slot.
    start, _ = stream.schedule(50)
    assert start == 100


def test_zero_duration_reserve_does_not_extend_horizon():
    clock = DeviceClock()
    stream = Stream("copy", clock)
    stream.schedule(100)
    start, end = stream.reserve(5_000, 0, name="empty")
    assert (start, end) == (5_000, 5_000)
    assert stream.busy_until_ns == 100


def test_zero_duration_reserve_before_does_not_extend_horizon():
    clock = DeviceClock()
    stream = Stream("copy", clock)
    stream.schedule(100)
    start, end = stream.reserve_before(9_000, 0, name="empty")
    assert start == end == 9_000
    assert stream.busy_until_ns == 100


def test_zero_duration_op_is_still_recorded():
    clock = DeviceClock()
    stream = Stream("copy", clock)
    stream.reserve(500, 0, name="marker")
    assert [op.name for op in stream.ops] == ["marker"]
    assert stream.busy_time_ns() == 0


# -- deadlines that predate the current device time -----------------------------------


def test_reserve_before_deadline_in_the_past_falls_back_to_earliest_fit():
    clock = DeviceClock()
    clock.advance(1_000)
    stream = Stream("copy", clock)
    start, end = stream.reserve_before(500, 100, name="late")
    # The deadline is unmeetable (it predates the clock): earliest fit, late.
    assert (start, end) == (1_000, 1_100)
    assert stream.busy_until_ns == 1_100


def test_reserve_before_deadline_before_clock_start_with_existing_ops():
    clock = DeviceClock()
    clock.advance(1_000)
    stream = Stream("copy", clock)
    stream.schedule(200)  # busy [1000, 1200)
    start, end = stream.reserve_before(0, 50, name="late")
    assert start >= 1_000
    assert end - start == 50
    assert stream.busy_until_ns == max(1_200, end)


def test_reserve_in_the_past_is_clamped_to_now():
    clock = DeviceClock()
    clock.advance(2_000)
    stream = Stream("copy", clock)
    start, end = stream.reserve(0, 100)
    assert (start, end) == (2_000, 2_100)


def test_in_order_stream_keeps_its_busy_index_bounded():
    # The compute stream only ever calls schedule(): elapsed intervals must be
    # pruned on that path too, or the index grows by one tuple per kernel.
    clock = DeviceClock()
    stream = Stream("compute", clock)
    for _ in range(500):
        _, end = stream.schedule(100)
        clock.advance_to(end)
        assert len(stream._busy_intervals) <= 1
    assert len(stream.ops) == 500 and stream.busy_time_ns() == 50_000


def test_pruning_on_schedule_leaves_reservations_where_they_were():
    def placements(prune_history):
        clock = DeviceClock()
        stream = Stream("copy", clock)
        placed = []
        for step in range(40):
            placed.append(stream.schedule_at(clock.now_ns + 30 * (step % 3), 40))
            placed.append(stream.reserve(clock.now_ns + 500, 25))
            placed.append(stream.reserve_before(clock.now_ns + 900, 60))
            clock.advance(170)
            if not prune_history:        # what an unpruned index would hold
                stream._busy_intervals[:] = sorted(
                    (op.start_ns, op.end_ns) for op in stream.ops
                    if op.end_ns > op.start_ns)
        return placed

    assert placements(prune_history=True) == placements(prune_history=False)
