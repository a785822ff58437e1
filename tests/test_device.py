"""Tests for the Device facade."""

import pytest

from repro.core.events import MemoryCategory
from repro.device import Device, small_test_device
from repro.tensor import empty
from repro.tensor import functional as F
from repro.device.tape import TAPE_KERNEL, TimingTape
from repro.device.timing import KernelCost
from repro.errors import ConfigurationError
from repro.units import MIB

from tests.helpers import kernel_rows


def test_device_defaults_to_titan_x_and_caching_allocator():
    device = Device()
    assert "Titan X" in device.spec.name
    assert device.allocator == "caching"
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
    request = test_device.allocate(1 * MIB, category=MemoryCategory.ACTIVATION, tag="a")
    assert test_device.place().stats.allocated_bytes >= 1 * MIB
    test_device.free(request)
    stats = test_device.place().stats
    assert stats.allocated_bytes == 0
    assert stats.peak_allocated_bytes >= 1 * MIB


class _CountingRecorder:
    """Counts the behaviors a device hands its recorder."""

    def __init__(self, clock):
        self.clock = clock
        self.mallocs = self.frees = self.reads = self.writes = 0

    def on_malloc(self, nbytes, category_code, tag):
        self.mallocs += 1
        return self.mallocs - 1

    def on_free(self, request):
        self.frees += 1

    def on_read(self, request, op):
        self.reads += 1

    def on_write(self, request, op):
        self.writes += 1

    on_kernel = kernel_rows


def test_the_recorder_observes_allocations_and_accesses(test_device):
    recorder = test_device.recorder = _CountingRecorder(test_device.clock)
    tensor = empty(test_device, (256,))
    tensor.storage.record_write("init")
    tensor.storage.record_read("consume")
    tensor.free()
    assert (recorder.mallocs, recorder.writes, recorder.reads, recorder.frees) == (1, 1, 1, 1)
    # The request id is the recorder's malloc ordinal.
    assert test_device.allocate(1024) == 1
    assert recorder.mallocs == 2
    # A launch reaches the recorder's kernel hook: two reads, one write.
    a = empty(test_device, (4,))
    F.add(a, a)
    assert (recorder.mallocs, recorder.writes, recorder.reads, recorder.frees) == (4, 2, 3, 1)


def test_run_kernel_advances_clock_and_counts(test_device):
    """A launch is one kernel atom on the tape, as long as the clock moved."""
    tape = TimingTape(test_device.clock)
    before = test_device.clock.now_ns
    duration = test_device.run_kernel("k", KernelCost(flops=1e6, name="k"), (), ())
    assert duration > 0
    assert test_device.clock.now_ns == before + duration
    assert (list(tape.kind), list(tape.duration_ns), list(tape.flops)) == (
        [TAPE_KERNEL], [duration], [1e6])


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


def test_memory_stats_and_placement(test_device):
    test_device.allocate(1024, tag="x")
    stats = test_device.place().stats.to_dict()
    assert stats["total_alloc_count"] == 1
    placement = test_device.place()
    # One small segment holding the request's block.
    assert placement.segment_tags == ["segment:small"]
    assert placement.segment_address[0] <= placement.address[0] < \
        placement.segment_address[0] + placement.segment_size[0]


def test_work_runs_in_order_on_the_clock(test_device):
    """Kernels, copies and host pauses each block until done: the clock is
    the device's whole timeline, with nothing left in flight to drain."""
    before = test_device.clock.now_ns
    durations = [test_device.run_kernel("k", KernelCost(flops=1e6, name="k"), (), ()),
                 test_device.copy_host_to_device(1 * MIB)]
    test_device.host_pause(500)
    durations.append(test_device.copy_device_to_host(2 * MIB))
    assert test_device.clock.now_ns == before + sum(durations) + 500

