"""Tests for the simulated device clock."""

import pytest

from repro.device.clock import DeviceClock
from repro.errors import ClockError


def test_clock_starts_at_zero_by_default():
    clock = DeviceClock()
    assert clock.now_ns == 0


def test_clock_advance_accumulates():
    clock = DeviceClock()
    clock.advance(1_000)
    clock.advance(500)
    assert clock.now_ns == 1_500


def test_clock_advance_rejects_negative_delta():
    clock = DeviceClock()
    with pytest.raises(ClockError):
        clock.advance(-1)


def test_clock_advance_to_absolute_time():
    clock = DeviceClock(start_ns=100)
    clock.advance_to(250)
    assert clock.now_ns == 250
    with pytest.raises(ClockError):
        clock.advance_to(100)


def test_clock_rejects_negative_start():
    with pytest.raises(ClockError):
        DeviceClock(start_ns=-5)


def test_clock_observers_receive_old_and_new_time():
    clock = DeviceClock()
    seen = []
    clock.add_observer(lambda old, new: seen.append((old, new)))
    clock.advance(10)
    clock.advance(0)      # zero advances do not notify
    clock.advance(5)
    assert seen == [(0, 10), (10, 15)]


def test_clock_remove_observer():
    clock = DeviceClock()
    seen = []
    observer = lambda old, new: seen.append(new)  # noqa: E731
    clock.add_observer(observer)
    clock.advance(1)
    clock.remove_observer(observer)
    clock.advance(1)
    assert seen == [1]


def test_clock_reset_keeps_observers():
    clock = DeviceClock()
    seen = []
    clock.add_observer(lambda old, new: seen.append(new))
    clock.advance(5)
    clock.reset()
    assert clock.now_ns == 0
    clock.advance(3)
    assert seen == [5, 3]


def test_clock_advance_rounds_fractional_nanoseconds():
    clock = DeviceClock()
    clock.advance(10.6)
    assert clock.now_ns == 11
