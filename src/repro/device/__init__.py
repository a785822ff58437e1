"""Simulated DNN accelerator: clock, memory system, allocators and timing.

This package replaces the Nvidia Titan X (Pascal) + CUDA runtime used by the
paper with a deterministic software model whose memory system is instrumented
exactly the way the paper instruments PyTorch's allocators.  A device's
recorder (:class:`~repro.core.recorder.TraceRecorder`) is the one store of
its requests: each malloc row is a request — its id the malloc's ordinal,
its bytes and category in the row, its tag kept beside the rows — and each
free a row against that id.  An allocator is a placement pass over those
calls (:func:`~repro.device.allocator.place`, one loop per policy).  The
device is synchronous — kernels and host↔device copies run in order on one
timeline, its clock — and the one asynchronous copy engine,
:class:`~repro.device.stream.Stream`, belongs to the swap overlay
(:mod:`repro.swap.executor`), which reserves its transfers on it against a
clock of its own.
"""

from .allocator import (
    AllocatorStats,
    LARGE_SEGMENT_SIZE,
    MIN_BLOCK_SIZE,
    PLACEMENT_PASSES,
    Placement,
    SMALL_ALLOCATION_LIMIT,
    SMALL_SEGMENT_SIZE,
    place,
    round_block_size,
    segment_size_for,
)
from .bandwidth import BandwidthMeasurement, BandwidthReport, BandwidthTest
from .clock import DeviceClock
from .cluster import (
    ALLREDUCE_ALGORITHMS,
    ClusterSpec,
    DeviceGroup,
    INTERCONNECT_PRESETS,
    InterconnectSpec,
    get_interconnect,
    naive_allreduce_time_ns,
    ring_allreduce_time_ns,
)
from .collective import CollectiveEngine, CollectiveRecord
from .device import Device
from .spec import (
    DEVICE_PRESETS,
    DeviceSpec,
    ampere_a100_40gb,
    get_device_spec,
    small_test_device,
    titan_x_pascal,
)
from .stream import Stream
from .timing import (
    KernelCost,
    KernelTimingModel,
    conv2d_cost,
    elementwise_cost,
    matmul_cost,
    reduction_cost,
)

__all__ = [
    "ALLREDUCE_ALGORITHMS",
    "AllocatorStats",
    "BandwidthMeasurement",
    "BandwidthReport",
    "BandwidthTest",
    "ClusterSpec",
    "CollectiveEngine",
    "CollectiveRecord",
    "DEVICE_PRESETS",
    "Device",
    "DeviceClock",
    "DeviceGroup",
    "DeviceSpec",
    "INTERCONNECT_PRESETS",
    "InterconnectSpec",
    "KernelCost",
    "KernelTimingModel",
    "LARGE_SEGMENT_SIZE",
    "MIN_BLOCK_SIZE",
    "PLACEMENT_PASSES",
    "Placement",
    "SMALL_ALLOCATION_LIMIT",
    "SMALL_SEGMENT_SIZE",
    "Stream",
    "ampere_a100_40gb",
    "conv2d_cost",
    "elementwise_cost",
    "get_device_spec",
    "get_interconnect",
    "matmul_cost",
    "naive_allreduce_time_ns",
    "place",
    "reduction_cost",
    "ring_allreduce_time_ns",
    "round_block_size",
    "segment_size_for",
    "small_test_device",
    "titan_x_pascal",
]
