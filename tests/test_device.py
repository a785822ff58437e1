"""Tests for the Device facade."""

import pytest

from repro.core.events import MemoryCategory
from repro.device import CountingListener, Device, small_test_device
from repro.device.timing import KernelCost
from repro.errors import ConfigurationError
from repro.units import MIB


def test_device_defaults_to_titan_x_and_caching_allocator():
    device = Device()
    assert "Titan X" in device.spec.name
    assert device.allocator.name == "caching"
    assert device.default_dtype.name == "float32"


def test_device_rejects_a_non_float_training_dtype():
    with pytest.raises(ConfigurationError, match="floating-point"):
        Device(small_test_device(), default_dtype="int64")


def test_a_device_has_one_execution_and_takes_no_mode():
    """Every device simulates shapes only: there is no mode to pick or read."""
    with pytest.raises(TypeError):
        Device(small_test_device(), execution_mode="symbolic")
    device = Device(small_test_device())
    for name in ("execution_mode", "is_eager", "is_symbolic"):
        assert not hasattr(device, name)


def test_allocate_and_free_update_stats(test_device):
    block = test_device.allocate(1 * MIB, category=MemoryCategory.ACTIVATION, tag="a")
    assert test_device.allocated_bytes >= 1 * MIB
    test_device.free(block)
    assert test_device.allocated_bytes == 0
    assert test_device.peak_allocated_bytes >= 1 * MIB


def test_listeners_observe_allocations_and_accesses(test_device):
    listener = CountingListener()
    test_device.add_listener(listener)
    block = test_device.allocate(1024)
    test_device.listeners.on_write(block, 1024, "init")
    test_device.listeners.on_read(block, 1024, "consume")
    test_device.free(block)
    assert (listener.mallocs, listener.writes, listener.reads, listener.frees) == (1, 1, 1, 1)
    test_device.remove_listener(listener)
    test_device.allocate(1024)
    assert listener.mallocs == 1


def test_run_kernel_advances_clock_and_counts(test_device):
    before = test_device.clock.now_ns
    duration = test_device.run_kernel(KernelCost(flops=1e6, name="k"))
    assert duration > 0
    assert test_device.clock.now_ns == before + duration
    assert test_device.kernel_count == 1


def test_host_pause_advances_clock(test_device):
    test_device.host_pause(1_000_000)
    assert test_device.clock.now_ns >= 1_000_000
    with pytest.raises(ConfigurationError):
        test_device.host_pause(-1)


def test_copies_advance_clock(test_device):
    h2d = test_device.copy_host_to_device(10 * MIB)
    d2h = test_device.copy_device_to_host(10 * MIB)
    assert h2d > 0
    assert d2h > 0


def test_memory_stats_and_snapshot(test_device):
    test_device.allocate(1024, tag="x")
    stats = test_device.memory_stats()
    assert stats["total_alloc_count"] == 1
    snapshot = test_device.memory_snapshot()
    assert snapshot and snapshot[0]["blocks"]


def test_work_runs_in_order_on_the_clock(test_device):
    """Kernels, copies and host pauses each block until done: the clock is
    the device's whole timeline, with nothing left in flight to drain."""
    before = test_device.clock.now_ns
    durations = [test_device.run_kernel(KernelCost(flops=1e6, name="k")),
                 test_device.copy_host_to_device(1 * MIB)]
    test_device.host_pause(500)
    durations.append(test_device.copy_device_to_host(2 * MIB))
    assert test_device.clock.now_ns == before + sum(durations) + 500

