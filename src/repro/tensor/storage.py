"""Device tensor storage: one allocation request of the device.

A :class:`DeviceStorage` owns exactly one device memory request.  Creating a
storage performs a ``malloc`` on the device, releasing it performs a
``free``, and every kernel that touches the storage reports a ``read`` or
``write`` — the four memory behaviors the paper records.  The storage holds
the request id the device handed out; which block serves it is the
allocator's pass over the device's request log after the run.

A storage holds no values: memory behavior is a function of shapes, so only
the allocation, the accesses and their timing are simulated.
"""

from __future__ import annotations

from typing import Optional

from ..core.events import MemoryCategory
from ..device.device import Device
from ..errors import TensorError
from .dtype import DType, float32


class DeviceStorage:
    """A reference-counted slab of device memory holding tensor elements."""

    __slots__ = ("device", "numel", "dtype", "nbytes", "category", "tag", "request",
                 "_refcount")

    def __init__(
        self,
        device: Device,
        numel: int,
        dtype: DType = float32,
        category: MemoryCategory = MemoryCategory.UNKNOWN,
        tag: str = "",
    ):
        if numel < 0:
            raise TensorError(f"storage cannot have negative numel {numel}")
        self.device = device
        self.numel = int(numel)
        self.dtype = dtype
        self.nbytes = self.numel * dtype.itemsize
        self.category = category
        self.tag = tag
        #: The device request id (``None`` once freed).
        self.request: Optional[int] = device.allocate(self.nbytes or 1, category, tag)
        self._refcount = 1

    # -- lifecycle ---------------------------------------------------------------

    @property
    def is_freed(self) -> bool:
        """Whether the underlying device memory has been released."""
        return self.request is None

    def retain(self) -> "DeviceStorage":
        """Increase the reference count (a new tensor view shares this storage)."""
        self._ensure_live()
        self._refcount += 1
        return self

    def release(self) -> None:
        """Decrease the reference count; frees the device memory at zero."""
        if self.request is None:
            return
        self._refcount -= 1
        if self._refcount <= 0:
            self.free()

    def free(self) -> None:
        """Immediately release the device memory (idempotent)."""
        if self.request is not None:
            self.device.free(self.request)
            self.request = None

    def _ensure_live(self) -> None:
        if self.request is None:
            raise TensorError(f"storage {self.tag!r} has already been freed")

    # -- instrumented access -------------------------------------------------------

    # The two hot calls of a profiled run: the liveness check is inlined and
    # the device's recorder is looked up per call, so one attached mid-run
    # records from the next behavior on.

    def record_read(self, op: str) -> None:
        """Report a read of this storage by operator ``op``."""
        request = self.request
        if request is None:
            self._ensure_live()
        recorder = self.device.recorder
        if recorder is not None:
            recorder.on_read(request, op)

    def record_write(self, op: str) -> None:
        """Report a write of this storage by operator ``op``."""
        request = self.request
        if request is None:
            self._ensure_live()
        recorder = self.device.recorder
        if recorder is not None:
            recorder.on_write(request, op)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = ", freed" if self.is_freed else ""
        return (
            f"DeviceStorage(numel={self.numel}, dtype={self.dtype.name}, "
            f"category={self.category.value}, tag={self.tag!r}{state})"
        )
