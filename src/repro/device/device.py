"""The simulated accelerator facade.

:class:`Device` ties together the pieces a training run needs:

* a deterministic :class:`~repro.device.clock.DeviceClock`;
* the :class:`~repro.device.memory.RequestLog` of every malloc and free,
  placed after the run by the named allocator (caching by default,
  :meth:`Device.place`);
* a roofline :class:`~repro.device.timing.KernelTimingModel`;
* a :attr:`Device.recorder` slot a profiler's trace recorder occupies.

The device is synchronous, the way eager PyTorch issues work on one stream:
:meth:`Device.run_kernel`, the two host↔device copies and
:meth:`Device.host_pause` each record their timing atom and advance the
clock by their duration before they return, so the clock is the device's
whole timeline.  Swap traffic, the one thing that overlaps with compute, is
executed after the run by :mod:`repro.swap.executor` on its own clock and
copy stream.

The tensor library calls :meth:`Device.allocate` / :meth:`Device.free` for
storage management — each pays the allocator's bookkeeping overhead on the
clock, logs the call and hands the storage a request id, never a block —
and :meth:`Device.run_kernel` to account for the simulated execution time
of each operator; storages report the reads and writes of kernels straight
to :attr:`Device.recorder`.  Nothing is computed: tensors carry shape, dtype
and category but no values, and memory behavior is a function of shapes
alone.  Where a request lands, and the ``cudaMalloc`` overheads that
places it, is the allocator's pass over the log.
"""

from __future__ import annotations

from typing import Optional

from ..core.events import MemoryCategory
from ..errors import ConfigurationError
from .allocator import Placement, check_allocator, place
from .clock import DeviceClock
from .memory import RequestLog
from .spec import DeviceSpec, titan_x_pascal
from .tape import TAPE_ALLOC_OVERHEAD, TAPE_KERNEL, TAPE_MEMCPY_D2H, TAPE_MEMCPY_H2D
from .timing import (DEFAULT_BANDWIDTH_EFFICIENCY, DEFAULT_COMPUTE_EFFICIENCY,
                     DEFAULT_HOST_DISPATCH_OVERHEAD_NS, KernelCost, KernelTimingModel)


class Device:
    """A simulated DNN accelerator with an instrumented memory system.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the paper's Titan X (Pascal).
    allocator:
        Registry name of the allocator policy (``"caching"``, ``"best_fit"``
        or ``"bump"``) :meth:`place` places the requests with.
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
        default_dtype: object = "float32",
        compute_efficiency: float = DEFAULT_COMPUTE_EFFICIENCY,
        bandwidth_efficiency: float = DEFAULT_BANDWIDTH_EFFICIENCY,
        host_dispatch_overhead_ns: int = DEFAULT_HOST_DISPATCH_OVERHEAD_NS,
    ):
        from ..tensor.dtype import DType, get_dtype

        self.spec = spec if spec is not None else titan_x_pascal()
        dtype = default_dtype if isinstance(default_dtype, DType) else get_dtype(
            str(default_dtype))
        if dtype.numpy_dtype.kind != "f":
            raise ConfigurationError(
                f"default_dtype must be a floating-point dtype, got '{dtype.name}'")
        self.default_dtype = dtype
        self.clock = DeviceClock()
        self.allocator = check_allocator(allocator)
        self.requests = RequestLog()
        #: The trace recorder behaviors go to (``None``: nobody records).
        self.recorder = None
        # The spec is frozen, so the per-malloc/free cost is read once.
        self._alloc_overhead_ns = self.spec.allocator_overhead_ns
        self.timing = KernelTimingModel(
            self.spec,
            compute_efficiency=compute_efficiency,
            bandwidth_efficiency=bandwidth_efficiency,
            host_dispatch_overhead_ns=host_dispatch_overhead_ns,
        )
        self.kernel_count = 0

    # -- memory management -----------------------------------------------------------

    def allocate(self, size: int, category: MemoryCategory = MemoryCategory.UNKNOWN,
                 tag: str = "") -> int:
        """Request ``size`` bytes of device memory; returns the request id."""
        self.clock.advance(self._alloc_overhead_ns, TAPE_ALLOC_OVERHEAD)
        request = self.requests.malloc(size, category, tag, self.clock._now_ns)
        if self.recorder is not None:
            self.recorder.on_malloc(request)
        return request

    def free(self, request: int) -> None:
        """Free the memory of request ``request``."""
        self.clock.advance(self._alloc_overhead_ns, TAPE_ALLOC_OVERHEAD)
        self.requests.free(request, self.clock._now_ns)
        if self.recorder is not None:
            self.recorder.on_free(request)

    def place(self) -> Placement:
        """The requests so far, placed by this device's allocator in its memory."""
        return place(self.requests, self.allocator, self.spec.memory_capacity)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Device({self.spec.name!r}, allocator={self.allocator!r}, "
            f"now={self.clock.now_ns}ns)"
        )
