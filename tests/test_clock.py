"""Tests for the simulated device clock and the atoms its recorder moves it by."""

import pytest

from repro.core.trace import columns_from_rows
from repro.device import Device, small_test_device
from repro.device.clock import DeviceClock
from repro.device.cluster import ClusterSpec, DeviceGroup
from repro.device.tape import TAPE_ALLREDUCE, TAPE_CONST, TAPE_KERNEL, TAPE_MEMCPY_H2D
from repro.device.timing import KernelCost
from repro.errors import ClockError, ConfigurationError
from repro.tensor import empty


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


def test_the_recorder_logs_one_atom_per_advance_zero_length_included():
    """A device's recorder moves its clock: a kernel, a copy, a host pause
    and an allreduce's wait are one atom each, with the rows recorded before
    it, zero-length ones included; a malloc or a free logs none (its row
    implies the allocator's), and the clock has moved by the atoms and the
    calls' overheads."""
    group = DeviceGroup(ClusterSpec(device=small_test_device(), n_devices=2))
    device, straggler = group
    recorder = device.recorder
    straggler.host_pause(10_000_000)
    a = empty(device, (256,), tag="a")                                   # row 0
    kernel = device.run_kernel("k", KernelCost(flops=2.5e6, bytes_read=1024, name="k"),
                               (a,), (a,))                               # rows 1, 2
    copy = device.copy_host_to_device(512)
    device.host_pause(0)
    device.host_pause(12.6)                   # rounded to the nanosecond
    record = group.collective.allreduce(4096)
    a.free()                                                             # row 3
    DeviceGroup.of(device).collective.allreduce(64)    # one replica: no wait
    atoms = recorder.atom_log()
    assert atoms["kind"].tolist() == [TAPE_KERNEL, TAPE_MEMCPY_H2D, TAPE_CONST, TAPE_CONST,
                                      TAPE_ALLREDUCE, TAPE_ALLREDUCE]
    assert atoms["rows"].tolist() == [2, 3, 3, 3, 3, 4]
    wait = record.end_ns - (recorder.call_ns + kernel + copy + 13)
    assert wait > 0 and record.start_ns == 10_000_000
    assert atoms["duration_ns"].tolist() == [kernel, copy, 0, 13, wait, 0]
    assert atoms["nbytes"].tolist() == [0, 512, 0, 0, 4096, 64]
    assert atoms["flops"].tolist() == [2.5e6, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert atoms["bytes_moved"].tolist() == [1024.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert int(atoms["duration_ns"].sum()) + 2 * recorder.call_ns == device.clock.now_ns
    assert [atom["kind"] for atom in straggler.recorder.atom_log()] == [
        TAPE_CONST, TAPE_ALLREDUCE]


def test_a_refused_atom_leaves_no_trace():
    """A negative host pause and a negative atom are refused before the
    clock moves or an atom is logged."""
    device = Device(small_test_device())
    device.run_kernel("k", KernelCost(flops=1e6, name="k"), (), ())
    recorder = device.recorder

    def state():
        return device.clock.now_ns, bytes(recorder.atoms), recorder.rows.tobytes()

    before = state()
    with pytest.raises(ConfigurationError):
        device.host_pause(-1)
    for duration in (-1, -0.6):
        with pytest.raises(ClockError):
            recorder.on_atom(TAPE_MEMCPY_H2D, duration, 8)
    assert state() == before


def test_a_malloc_or_a_free_pays_the_allocator_overhead_and_logs_no_atom():
    """Each call moves the clock by the allocator's overhead before its row
    is stamped; the row implies the atom, so none is logged."""
    device = Device(small_test_device())
    recorder = device.recorder
    assert recorder.call_ns == device.spec.allocator_overhead_ns > 0
    device.host_pause(50)
    first = device.allocate(1024, tag="x")
    second = device.allocate(2048, tag="y")
    device.free(first)
    device.free(second)
    columns = columns_from_rows(recorder.rows)
    call_ns = recorder.call_ns
    assert columns.timestamp_ns.tolist() == [50 + call_ns * k for k in (1, 2, 3, 4)]
    assert device.clock.now_ns == 50 + 4 * call_ns
    assert recorder.atom_log()["kind"].tolist() == [TAPE_CONST]


def test_mark_spans_count_the_atoms_and_rows_at_each_begin_and_end():
    """An iteration mark's span is the atoms logged and rows recorded when it
    begins and when it ends; a mark still open ends at ``-1, -1``."""
    device = Device(small_test_device())
    recorder = device.recorder
    a = empty(device, (64,), tag="a")                                    # row 0
    recorder.begin_iteration(0)
    device.run_kernel("k", KernelCost(flops=1e6, name="k"), (a,), (a,))  # rows 1, 2
    device.host_pause(7)
    recorder.end_iteration(0)
    recorder.begin_iteration(1)
    a.free()                                                             # row 3
    device.copy_host_to_device(128)
    assert recorder.mark_spans == [[0, 1, 2, 3], [2, 3, -1, -1]]
    recorder.end_iteration(1)
    assert recorder.mark_spans[1] == [2, 3, 3, 4]
    assert [(mark.index, mark.end_ns is not None) for mark in recorder.iteration_marks] == [
        (0, True), (1, True)]


def test_clock_advance_rounds_fractional_nanoseconds():
    clock = DeviceClock()
    clock.advance(10.6)
    assert clock.now_ns == 11
