"""The simulated accelerator facade.

:class:`Device` ties together the pieces a training run needs:

* a deterministic :class:`~repro.device.clock.DeviceClock`;
* its :class:`~repro.core.recorder.TraceRecorder`, made with the device:
  every behavior from construction on is one of its rows.  Its malloc rows
  are the device's requests — bytes and category in the row, the tag kept
  by the recorder — and with its free rows the only record of the calls,
  placed after the run by the named allocator (caching by default,
  :meth:`Device.place`);
* a roofline :class:`~repro.device.timing.KernelTimingModel`.

The device is synchronous, the way eager PyTorch issues work on one stream:
a kernel launch, the two host↔device copies and :meth:`Device.host_pause`
each advance the clock by their duration before they return, so the clock
is the device's whole timeline.  The recorder moves it, logging the timing
atom behind each advance in the same call (:mod:`repro.device.tape`; a
malloc's or a free's is implied by its row), and besides it only a copied
steady iteration does (:mod:`repro.train.trainer`).  Swap traffic, the one
thing that overlaps with compute, is executed after the run by
:mod:`repro.swap.executor` on its own clock and copy stream.

A tensor calls :meth:`Device.allocate` when it is made and
:meth:`Device.free` when its last view lets go — each one call to
:attr:`Device.recorder`, which pays the allocator's bookkeeping overhead on
the clock and whose malloc ordinal is the request id the tensor's storage
keeps, never a block.  :meth:`Device.run_kernel` is the one kernel entry of
the tensor library: it prices the kernel and makes one recorder call,
:meth:`~repro.core.recorder.TraceRecorder.on_kernel`, which records the
operands' reads, the kernel's atom and its writes; a copy and a host pause
are one :meth:`~repro.core.recorder.TraceRecorder.on_atom` each.  Nothing is
computed: tensors carry shape, dtype and category but no values, and memory
behavior is a function of shapes alone.  Where a request lands, and the
``cudaMalloc`` overheads that places it, is the allocator's pass over the
recorded calls.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.events import MemoryCategory
from ..errors import ConfigurationError
from .allocator import Placement, check_allocator, place
from .clock import DeviceClock
from .spec import DeviceSpec, titan_x_pascal
from .tape import TAPE_CONST, TAPE_MEMCPY_D2H, TAPE_MEMCPY_H2D
from .timing import DEFAULT_HOST_DISPATCH_OVERHEAD_NS, KernelCost, KernelTimingModel


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
    host_dispatch_overhead_ns:
        Forwarded to :class:`~repro.device.timing.KernelTimingModel`, which
        keeps its own default efficiencies.
    """

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        allocator: str = "caching",
        default_dtype: object = "float32",
        host_dispatch_overhead_ns: int = DEFAULT_HOST_DISPATCH_OVERHEAD_NS,
    ):
        from ..core.recorder import TraceRecorder
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
        #: The trace recorder every behavior, and every advance of the
        #: clock, goes to.
        self.recorder = TraceRecorder(self)
        self.timing = KernelTimingModel(
            self.spec, host_dispatch_overhead_ns=host_dispatch_overhead_ns)

    # -- memory management -----------------------------------------------------------

    def allocate(self, size: int, category: MemoryCategory = MemoryCategory.UNKNOWN,
                 tag: str = "") -> int:
        """Request ``size`` bytes of device memory; returns the request id."""
        return self.recorder.on_malloc(size, category.code, tag)

    def free(self, request: int) -> None:
        """Free the memory of request ``request``."""
        self.recorder.on_free(request)

    def place(self) -> Placement:
        """The calls so far, placed by this device's allocator in its memory."""
        return place(self.recorder.to_trace(), self.allocator, self.spec.memory_capacity)

    # -- execution -----------------------------------------------------------

    def run_kernel(self, op: str, cost: KernelCost, reads: Sequence, writes: Sequence) -> int:
        """Launch kernel ``op``, which reads the tensors ``reads``, runs for
        its cost's duration and writes the tensors ``writes``: one call to
        the recorder's kernel hook.  Returns the duration in ns."""
        duration = self.timing.op_duration_ns(cost)
        self.recorder.on_kernel(op, reads, writes, duration, cost.flops, cost.bytes_moved)
        return duration

    def host_pause(self, duration_ns: int) -> None:
        """Model host-side time during which the device is idle.

        Used by the training loop for data loading / preprocessing and other
        framework overhead between device operations; these gaps are what
        produce the very large access-time intervals the paper highlights.
        """
        if duration_ns < 0:
            raise ConfigurationError("host_pause duration must be non-negative")
        self.recorder.on_atom(TAPE_CONST, duration_ns)

    def copy_host_to_device(self, nbytes: int) -> int:
        """Synchronous pinned host→device copy; returns its duration in ns."""
        return self._copy(TAPE_MEMCPY_H2D, nbytes, self.spec.h2d_bandwidth)

    def copy_device_to_host(self, nbytes: int) -> int:
        """Synchronous pinned device→host copy; returns its duration in ns."""
        return self._copy(TAPE_MEMCPY_D2H, nbytes, self.spec.d2h_bandwidth)

    def _copy(self, kind: int, nbytes: int, bandwidth: float) -> int:
        """A blocking copy: its memcpy duration on the clock, as atom ``kind``."""
        duration = self.timing.memcpy_duration_ns(nbytes, bandwidth)
        self.recorder.on_atom(kind, duration, nbytes)
        return duration

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Device({self.spec.name!r}, allocator={self.allocator!r}, "
            f"now={self.clock.now_ns}ns)"
        )
