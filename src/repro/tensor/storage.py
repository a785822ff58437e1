"""Device tensor storage: one allocation request of the device.

A :class:`DeviceStorage` is the record of exactly one device memory request,
shared by a tensor and its views.  The tensor that owns it makes the request
(:meth:`~repro.device.device.Device.allocate`, the ``malloc``) and, when the
last view lets go, frees it (:meth:`~repro.device.device.Device.free`, the
``free``), each in one call; the storage keeps the request id the device
handed out (its malloc's ordinal in the device's recorder) and the reference
count.  Kernels name their operand tensors to
:meth:`~repro.device.device.Device.run_kernel`, whose one recorder call
records their ``read`` and ``write`` rows; :meth:`DeviceStorage.record_read`
and :meth:`DeviceStorage.record_write` report the accesses made outside a
kernel (fills, host copies, the gradient allreduce).  Which block serves a
request is the allocator's pass over the recorder's malloc and free rows
after the run.

A storage holds no values: memory behavior is a function of shapes, so only
the allocation, the accesses and their timing are simulated.
"""

from __future__ import annotations

from typing import Optional

from ..device.device import Device
from ..errors import TensorError


class DeviceStorage:
    """The reference-counted device memory request behind a tensor's views."""

    __slots__ = ("device", "numel", "nbytes", "tag", "request", "refcount")

    def __init__(self, device: Device, numel: int, nbytes: int, tag: str, request: int):
        self.device = device
        self.numel = numel
        self.nbytes = nbytes
        self.tag = tag
        #: The device request id (``None`` once freed).
        self.request: Optional[int] = request
        #: The tensors viewing this storage that have not released it.
        self.refcount = 1

    @property
    def is_freed(self) -> bool:
        """Whether the underlying device memory has been released."""
        return self.request is None

    def ensure_live(self) -> None:
        """Raise :class:`~repro.errors.TensorError` if the memory was released."""
        if self.request is None:
            raise TensorError(f"storage {self.tag!r} has already been freed")

    # -- accesses outside a kernel -------------------------------------------------------

    # The liveness check is inlined and the hook is looked up on the device's
    # recorder per call, so a hook patched on the class fires.

    def record_read(self, op: str) -> None:
        """Report a read of this storage by operator ``op``."""
        request = self.request
        if request is None:
            self.ensure_live()
        self.device.recorder.on_read(request, op)

    def record_write(self, op: str) -> None:
        """Report a write of this storage by operator ``op``."""
        request = self.request
        if request is None:
            self.ensure_live()
        self.device.recorder.on_write(request, op)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = ", freed" if self.is_freed else ""
        return f"DeviceStorage(numel={self.numel}, nbytes={self.nbytes}, tag={self.tag!r}{state})"
