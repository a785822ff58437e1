"""Device tensor storage backed by the instrumented allocator.

A :class:`DeviceStorage` owns exactly one device memory block.  Creating a
storage performs a ``malloc`` on the device allocator, releasing it performs
a ``free``, and every kernel that touches the storage reports a ``read`` or
``write`` — the four memory behaviors the paper records.

In *eager* execution the storage also owns a NumPy buffer holding the actual
values; in *symbolic* execution the buffer is
omitted and only the memory behavior (allocation, accesses, timing) is
simulated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.events import MemoryCategory
from ..device.device import Device
from ..device.memory import Block
from ..errors import MaterializationError, TensorError
from .dtype import DType, float32


class DeviceStorage:
    """A reference-counted slab of device memory holding tensor elements."""

    __slots__ = ("device", "numel", "dtype", "nbytes", "category", "tag", "block",
                 "_buffer", "_refcount")

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
        self.block: Optional[Block] = device.allocate(self.nbytes or 1, category, tag)
        self._buffer: Optional[np.ndarray] = None
        if device.is_eager:
            self._buffer = np.zeros(self.numel, dtype=dtype.numpy_dtype)
        self._refcount = 1

    # -- lifecycle ---------------------------------------------------------------

    @property
    def is_freed(self) -> bool:
        """Whether the underlying device block has been released."""
        return self.block is None

    def retain(self) -> "DeviceStorage":
        """Increase the reference count (a new tensor view shares this storage)."""
        self._ensure_live()
        self._refcount += 1
        return self

    def release(self) -> None:
        """Decrease the reference count; frees the device block at zero."""
        if self.block is None:
            return
        self._refcount -= 1
        if self._refcount <= 0:
            self.free()

    def free(self) -> None:
        """Immediately release the device block (idempotent)."""
        if self.block is not None:
            self.device.free(self.block)
            self.block = None
            self._buffer = None

    def _ensure_live(self) -> None:
        if self.block is None:
            raise TensorError(f"storage {self.tag!r} has already been freed")

    # -- instrumented access -------------------------------------------------------

    # The two hot calls of a profiled run: the liveness check is inlined and
    # the composite's hook is looked up per call (see ``CompositeListener``).

    def record_read(self, op: str, nbytes: Optional[int] = None) -> None:
        """Report a read of this storage by operator ``op``."""
        block = self.block
        if block is None:
            self._ensure_live()
        self.device.listeners.on_read(block, self.nbytes if nbytes is None else nbytes, op)

    def record_write(self, op: str, nbytes: Optional[int] = None) -> None:
        """Report a write of this storage by operator ``op``."""
        block = self.block
        if block is None:
            self._ensure_live()
        self.device.listeners.on_write(block, self.nbytes if nbytes is None else nbytes, op)

    # -- data access (eager mode only) ----------------------------------------------

    @property
    def is_materialized(self) -> bool:
        """Whether a NumPy buffer with actual values exists."""
        return self._buffer is not None

    def buffer(self) -> np.ndarray:
        """The flat NumPy buffer; raises if the storage is symbolic or freed."""
        self._ensure_live()
        if self._buffer is None:
            raise MaterializationError(
                f"storage {self.tag!r} is symbolic (execution_mode="
                f"{self.device.execution_mode!r}); numeric values are not "
                "available — rerun with execution_mode='eager'"
            )
        return self._buffer

    def set_buffer(self, values: np.ndarray) -> None:
        """Replace the buffer contents (eager mode only)."""
        self._ensure_live()
        if self._buffer is None:
            return  # symbolic storages silently drop values
        flat = np.asarray(values, dtype=self.dtype.numpy_dtype).reshape(-1)
        if flat.size != self.numel:
            raise TensorError(
                f"buffer of {flat.size} elements does not match storage numel {self.numel}"
            )
        self._buffer = flat.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "freed" if self.is_freed else ("eager" if self.is_materialized else "symbolic")
        return (
            f"DeviceStorage(numel={self.numel}, dtype={self.dtype.name}, "
            f"category={self.category.value}, tag={self.tag!r}, {state})"
        )
