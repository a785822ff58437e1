"""The device tensor type.

A :class:`Tensor` is a shaped, typed view over one :class:`DeviceStorage`.
All tensors are contiguous; reshaping returns a new tensor sharing (and
retaining) the same storage, so no data movement and no new memory behavior
is generated — exactly like a PyTorch ``view``.

Tensors are the unit at which the training framework allocates and frees
device memory; every tensor creation produces a ``malloc`` behavior and every
release produces a ``free`` behavior in the trace.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.events import MemoryCategory
from ..device.device import Device
from ..errors import ShapeError
from .dtype import DType, float32, from_numpy_dtype, int64
from .storage import DeviceStorage

ShapeLike = Union[int, Sequence[int]]


def _normalize_shape(shape: ShapeLike) -> Tuple[int, ...]:
    # What every kernel passes: a tuple of plain non-negative ints, returned as is.
    if type(shape) is tuple:
        for dim in shape:
            if type(dim) is not int or dim < 0:
                break
        else:
            return shape
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(map(int, shape))
    if shape and min(shape) < 0:
        raise ShapeError(f"negative dimension in shape {shape}")
    return shape


class Tensor:
    """A contiguous device tensor.

    Most users construct tensors through the factory helpers
    (:func:`empty`, :func:`zeros`, :func:`randn`, :func:`from_numpy`) or
    through the operators in :mod:`repro.tensor.functional`.
    """

    __slots__ = ("device", "shape", "dtype", "category", "tag", "numel", "storage")

    def __init__(
        self,
        device: Device,
        shape: ShapeLike,
        dtype: Optional[DType] = None,
        category: MemoryCategory = MemoryCategory.UNKNOWN,
        tag: str = "",
        storage: Optional[DeviceStorage] = None,
    ):
        if dtype is None:
            dtype = device.default_dtype
        self.device = device
        self.shape = _normalize_shape(shape)
        self.dtype = dtype
        self.category = category
        self.tag = tag
        #: Number of elements (1 for a 0-d shape), computed once per tensor.
        self.numel = math.prod(self.shape)
        if storage is None:
            nbytes = self.numel * dtype.itemsize
            storage = DeviceStorage(device, self.numel, nbytes, tag,
                                    device.allocate(nbytes or 1, category, tag))
        elif storage.numel != self.numel:
            raise ShapeError(
                f"storage of {storage.numel} elements cannot view shape {self.shape}"
            )
        self.storage = storage

    # -- basic properties -----------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        """Size in bytes of the underlying storage."""
        return self.storage.nbytes

    @property
    def is_freed(self) -> bool:
        """Whether the underlying device memory has been released."""
        return self.storage.is_freed

    # -- lifecycle --------------------------------------------------------------------

    # The tensor owns its storage's lifecycle: it makes the request when it is
    # built and frees it here, one call to the device each.

    def retain(self) -> "Tensor":
        """Add a reference to the underlying storage and return ``self``."""
        storage = self.storage
        storage.ensure_live()
        storage.refcount += 1
        return self

    def release(self) -> None:
        """Drop one reference to the underlying storage (frees it at zero;
        a no-op once it is freed)."""
        storage = self.storage
        request = storage.request
        if request is not None:
            storage.refcount -= 1
            if storage.refcount <= 0:
                self.device.free(request)
                storage.request = None

    def free(self) -> None:
        """Force-release the underlying device memory immediately (idempotent)."""
        storage = self.storage
        if storage.request is not None:
            self.device.free(storage.request)
            storage.request = None

    # -- views ------------------------------------------------------------------------

    def reshape(self, shape: ShapeLike) -> "Tensor":
        """Return a tensor sharing this storage with a new shape (no data movement)."""
        new_shape = _normalize_shape(shape)
        if math.prod(new_shape) != self.numel:
            raise ShapeError(f"cannot reshape {self.shape} ({self.numel} elems) to {new_shape}")
        return Tensor(self.device, new_shape, dtype=self.dtype, category=self.category,
                      tag=self.tag, storage=self.retain().storage)

    def flatten_batch(self) -> "Tensor":
        """View a ``(N, ...)`` tensor as ``(N, prod(...))`` (classifier input)."""
        if self.ndim < 2:
            raise ShapeError(f"flatten_batch needs at least 2 dims, got shape {self.shape}")
        return self.reshape((self.shape[0], self.numel // self.shape[0]))

    # -- host transfers -------------------------------------------------------------------

    def copy_from_host(self) -> "Tensor":
        """Stage host data onto the device: models a pinned H2D copy plus a write."""
        self.storage.ensure_live()
        self.device.copy_host_to_device(self.nbytes)
        self.storage.record_write("memcpy_h2d")
        return self

    def copy_to_host(self) -> None:
        """Read the tensor back to the host: models a read plus a D2H copy."""
        self.storage.record_read("memcpy_d2h")
        self.device.copy_device_to_host(self.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype.name}, "
            f"category={self.category.value}, tag={self.tag!r})"
        )


# -- factory helpers ---------------------------------------------------------------------


#: Allocate an uninitialized tensor (``device.default_dtype`` when untyped):
#: ``empty(device, shape, dtype=None, category=UNKNOWN, tag="")`` is the
#: constructor itself — one frame per kernel output less than a wrapper.
empty = Tensor


def zeros(device: Device, shape: ShapeLike, dtype: Optional[DType] = None,
          category: MemoryCategory = MemoryCategory.UNKNOWN, tag: str = "") -> Tensor:
    """Allocate a zero-filled tensor (records an on-device fill write)."""
    tensor = empty(device, shape, dtype=dtype, category=category, tag=tag)
    tensor.storage.record_write("fill_zero")
    return tensor


def full(device: Device, shape: ShapeLike, value: float, dtype: Optional[DType] = None,
         category: MemoryCategory = MemoryCategory.UNKNOWN, tag: str = "") -> Tensor:
    """Allocate a tensor filled with ``value`` (records an on-device fill write)."""
    tensor = empty(device, shape, dtype=dtype, category=category, tag=tag)
    tensor.storage.record_write("fill_value")
    return tensor


def randn(device: Device, shape: ShapeLike, dtype: Optional[DType] = None,
          category: MemoryCategory = MemoryCategory.UNKNOWN, tag: str = "") -> Tensor:
    """Allocate a randomly initialized tensor (records an on-device init write)."""
    tensor = empty(device, shape, dtype=dtype, category=category, tag=tag)
    tensor.storage.record_write("fill_randn")
    return tensor


def from_numpy(device: Device, array: np.ndarray,
               category: MemoryCategory = MemoryCategory.UNKNOWN, tag: str = "",
               stage_h2d: bool = False) -> Tensor:
    """Create a device tensor shaped and typed like a host array.

    With ``stage_h2d=True`` the creation also models the pinned host→device
    copy (used for input batches); otherwise the data is assumed to already
    be resident (used for test fixtures).
    """
    array = np.asarray(array)
    if array.dtype.kind == "f":
        # Floating host data is staged in the device's training precision so
        # that a float16 run really moves (and keeps) half-size batches.
        dtype = device.default_dtype
    else:
        dtype = from_numpy_dtype(array.dtype)
    tensor = empty(device, array.shape, dtype=dtype, category=category, tag=tag)
    if stage_h2d:
        tensor.copy_from_host()
    else:
        tensor.storage.record_write("init_from_host")
    return tensor


def arange_labels(device: Device, batch: int, tag: str = "labels") -> Tensor:
    """Create an integer label tensor (one label per sample), for test workloads."""
    tensor = empty(device, (batch,), dtype=int64, category=MemoryCategory.LABEL, tag=tag)
    tensor.storage.record_write("init_labels")
    return tensor
