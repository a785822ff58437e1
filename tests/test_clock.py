"""Tests for the simulated device clock."""

import pytest

from repro.device.clock import DeviceClock
from repro.device.tape import (TAPE_ALLOC_OVERHEAD, TAPE_ALLREDUCE, TAPE_CONST,
                               TAPE_KERNEL, TAPE_MEMCPY_H2D, TAPE_SEGMENT_OVERHEAD,
                               TimingTape)
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


def test_an_untaped_clock_logs_nothing():
    clock = DeviceClock()
    assert clock.tape is None
    clock.advance(10, TAPE_KERNEL, 0, 3.0, 4.0)
    clock.advance(0)
    assert clock.tape is None and clock.now_ns == 10


def test_a_taped_clock_logs_one_atom_per_advance_zero_length_included():
    clock = DeviceClock(start_ns=7)
    tape = TimingTape(clock)
    assert clock.tape is tape
    clock.advance(100, TAPE_KERNEL, 0, 2.5e6, 1.5e5)
    clock.advance(0, TAPE_ALLREDUCE, 4096)
    clock.advance(30, TAPE_MEMCPY_H2D, 512)
    clock.advance(0, TAPE_ALLOC_OVERHEAD)
    clock.advance(12.6)                       # a host-side constant by default
    clock.advance_to(200)
    assert len(tape) == 6
    assert list(tape.kind) == [TAPE_KERNEL, TAPE_ALLREDUCE, TAPE_MEMCPY_H2D,
                               TAPE_ALLOC_OVERHEAD, TAPE_CONST, TAPE_CONST]
    assert list(tape.duration_ns) == [100, 0, 30, 0, 13, 50]
    assert list(tape.nbytes) == [0, 4096, 512, 0, 0, 0]
    assert list(tape.flops) == [2.5e6, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert list(tape.bytes_moved) == [1.5e5, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert 7 + sum(tape.duration_ns) == clock.now_ns == 200


def test_detach_stops_logging():
    clock = DeviceClock()
    tape = TimingTape(clock)
    clock.advance(5, TAPE_SEGMENT_OVERHEAD)
    tape.detach()
    assert clock.tape is None
    clock.advance(3, TAPE_KERNEL)
    assert list(tape.kind) == [TAPE_SEGMENT_OVERHEAD]
    assert list(tape.duration_ns) == [5]
    assert clock.now_ns == 8


def test_a_rejected_advance_logs_nothing():
    clock = DeviceClock()
    tape = TimingTape(clock)
    with pytest.raises(ClockError):
        clock.advance(-1, TAPE_KERNEL)
    assert len(tape) == 0 and clock.now_ns == 0


def test_clock_advance_rounds_fractional_nanoseconds():
    clock = DeviceClock()
    clock.advance(10.6)
    assert clock.now_ns == 11
