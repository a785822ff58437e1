"""The simulated accelerator facade.

:class:`Device` ties together the pieces a training run needs:

* a deterministic :class:`~repro.device.clock.DeviceClock`;
* an instrumentable allocator (caching by default);
* a roofline :class:`~repro.device.timing.KernelTimingModel`;
* a :class:`~repro.device.hooks.CompositeListener` that profilers attach to.

The device is synchronous, the way eager PyTorch issues work on one stream:
:meth:`Device.run_kernel`, the two host↔device copies and
:meth:`Device.host_pause` each record their timing atom and advance the
clock by their duration before they return, so the clock is the device's
whole timeline.  Swap traffic, the one thing that overlaps with compute, is
executed after the run by :mod:`repro.swap.executor` on its own clock and
copy stream.

The tensor library calls :meth:`Device.allocate` / :meth:`Device.free` for
storage management and :meth:`Device.run_kernel` to account for the simulated
execution time of each operator; storages report the reads and writes of
kernels straight to :attr:`Device.listeners`.
"""

from __future__ import annotations

from typing import Optional

from ..core.events import MemoryCategory
from ..errors import ConfigurationError
from .allocator import BaseAllocator, make_allocator
from .clock import DeviceClock
from .hooks import CompositeListener, MemoryEventListener
from .memory import Block
from .spec import DeviceSpec, titan_x_pascal
from .tape import TAPE_KERNEL, TAPE_MEMCPY_D2H, TAPE_MEMCPY_H2D
from .timing import (DEFAULT_BANDWIDTH_EFFICIENCY, DEFAULT_COMPUTE_EFFICIENCY,
                     DEFAULT_HOST_DISPATCH_OVERHEAD_NS, KernelCost, KernelTimingModel)

#: Execution modes supported by the tensor library on this device
#: (``"symbolic"`` runs shape/behavior-only kernels).
EXECUTION_MODES = ("eager", "symbolic")


class Device:
    """A simulated DNN accelerator with an instrumented memory system.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the paper's Titan X (Pascal).
    allocator:
        Registry name of the allocator policy (``"caching"``, ``"best_fit"``
        or ``"bump"``).
    execution_mode:
        ``"eager"`` runs every kernel numerically on NumPy buffers (correct
        values, practical only for small models); ``"symbolic"`` skips the
        arithmetic — tensors carry shape, dtype and category but no data
        buffer — while performing identical
        allocations, accesses and timing-model costs.  Memory behavior is
        shape-dependent, not value-dependent, so the recorded traces are
        event-identical (the equivalence suite pins this), and symbolic mode
        is the default for sweeps.
    default_dtype:
        Element type (name or :class:`~repro.tensor.dtype.DType`) used for
        floating-point tensors whose dtype is not given explicitly —
        parameters, activations and staged input batches all follow it, so
        ``default_dtype="float16"`` models half-precision training.  Must be
        a floating-point dtype.
    compute_efficiency / bandwidth_efficiency / host_dispatch_overhead_ns:
        Forwarded to :class:`~repro.device.timing.KernelTimingModel`.
    """

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        allocator: str = "caching",
        execution_mode: str = "eager",
        default_dtype: object = "float32",
        compute_efficiency: float = DEFAULT_COMPUTE_EFFICIENCY,
        bandwidth_efficiency: float = DEFAULT_BANDWIDTH_EFFICIENCY,
        host_dispatch_overhead_ns: int = DEFAULT_HOST_DISPATCH_OVERHEAD_NS,
    ):
        from ..tensor.dtype import DType, get_dtype

        if execution_mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"execution_mode must be one of {EXECUTION_MODES}, got {execution_mode!r}"
            )
        self.spec = spec if spec is not None else titan_x_pascal()
        self.execution_mode = execution_mode
        #: Whether kernels actually compute values on NumPy buffers.
        self.is_eager = execution_mode == "eager"
        #: Whether kernels are shape/behavior-only (``symbolic`` mode).
        self.is_symbolic = execution_mode == "symbolic"
        dtype = default_dtype if isinstance(default_dtype, DType) else get_dtype(
            str(default_dtype))
        if dtype.numpy_dtype.kind != "f":
            raise ConfigurationError(
                f"default_dtype must be a floating-point dtype, got '{dtype.name}'")
        self.default_dtype = dtype
        self.clock = DeviceClock()
        self.listeners = CompositeListener()
        self.allocator: BaseAllocator = make_allocator(
            allocator, self.spec, self.clock, self.listeners
        )
        self.timing = KernelTimingModel(
            self.spec,
            compute_efficiency=compute_efficiency,
            bandwidth_efficiency=bandwidth_efficiency,
            host_dispatch_overhead_ns=host_dispatch_overhead_ns,
        )
        self.kernel_count = 0

    # -- profiling hooks -----------------------------------------------------------

    def add_listener(self, listener: MemoryEventListener) -> None:
        """Attach a memory-behavior listener (e.g. a trace recorder)."""
        self.listeners.add(listener)

    def remove_listener(self, listener: MemoryEventListener) -> None:
        """Detach a previously attached listener."""
        self.listeners.remove(listener)

    # -- memory management -----------------------------------------------------------

    def allocate(self, size: int, category: MemoryCategory = MemoryCategory.UNKNOWN,
                 tag: str = "") -> Block:
        """Allocate ``size`` bytes of device memory."""
        return self.allocator.allocate(size, category, tag)

    def free(self, block: Block) -> None:
        """Free a device memory block."""
        self.allocator.free(block)

    # -- execution -----------------------------------------------------------

    def run_kernel(self, cost: KernelCost) -> int:
        """Account for the execution of one kernel; returns its duration in ns."""
        duration = self.timing.op_duration_ns(cost)
        self.clock.advance(duration, TAPE_KERNEL, 0, cost.flops, cost.bytes_moved)
        self.kernel_count += 1
        return duration

    def host_pause(self, duration_ns: int) -> None:
        """Model host-side time during which the device is idle.

        Used by the training loop for data loading / preprocessing and other
        framework overhead between device operations; these gaps are what
        produce the very large access-time intervals the paper highlights.
        """
        if duration_ns < 0:
            raise ConfigurationError("host_pause duration must be non-negative")
        self.clock.advance(duration_ns)

    def copy_host_to_device(self, nbytes: int) -> int:
        """Synchronous pinned host→device copy; returns its duration in ns."""
        return self._copy(TAPE_MEMCPY_H2D, nbytes, self.spec.h2d_bandwidth)

    def copy_device_to_host(self, nbytes: int) -> int:
        """Synchronous pinned device→host copy; returns its duration in ns."""
        return self._copy(TAPE_MEMCPY_D2H, nbytes, self.spec.d2h_bandwidth)

    def _copy(self, kind: int, nbytes: int, bandwidth: float) -> int:
        """A blocking copy: its memcpy duration on the clock, as atom ``kind``."""
        duration = self.timing.memcpy_duration_ns(nbytes, bandwidth)
        self.clock.advance(duration, kind, nbytes)
        return duration

    # -- introspection -----------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently allocated to live tensors."""
        return self.allocator.allocated_bytes

    @property
    def reserved_bytes(self) -> int:
        """Bytes currently reserved from the device by the allocator."""
        return self.allocator.reserved_bytes

    @property
    def peak_allocated_bytes(self) -> int:
        """High-water mark of allocated bytes."""
        return self.allocator.stats.peak_allocated_bytes

    @property
    def peak_reserved_bytes(self) -> int:
        """High-water mark of reserved bytes."""
        return self.allocator.stats.peak_reserved_bytes

    def memory_stats(self) -> dict:
        """``torch.cuda.memory_stats``-style dictionary of allocator counters."""
        return self.allocator.stats.to_dict()

    def memory_snapshot(self) -> list:
        """``torch.cuda.memory_snapshot``-style dump of segments and blocks."""
        return self.allocator.memory_snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Device({self.spec.name!r}, allocator={self.allocator.name!r}, "
            f"mode={self.execution_mode!r}, now={self.clock.now_ns}ns)"
        )
