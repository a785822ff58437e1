"""Device tensor storage backed by the instrumented allocator.

A :class:`DeviceStorage` owns exactly one device memory block.  Creating a
storage performs a ``malloc`` on the device allocator, releasing it performs
a ``free``, and every kernel that touches the storage reports a ``read`` or
``write`` — the four memory behaviors the paper records.

A storage holds no values: memory behavior is a function of shapes, so only
the allocation, the accesses and their timing are simulated.
"""

from __future__ import annotations

from typing import Optional

from ..core.events import MemoryCategory
from ..device.device import Device
from ..device.memory import Block
from ..errors import TensorError
from .dtype import DType, float32


class DeviceStorage:
    """A reference-counted slab of device memory holding tensor elements."""

    __slots__ = ("device", "numel", "dtype", "nbytes", "category", "tag", "block",
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
        self.block: Optional[Block] = device.allocate(self.nbytes or 1, category, tag)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = ", freed" if self.is_freed else ""
        return (
            f"DeviceStorage(numel={self.numel}, dtype={self.dtype.name}, "
            f"category={self.category.value}, tag={self.tag!r}{state})"
        )
