"""Trainable parameters.

A :class:`Parameter` owns a persistent device tensor (category ``parameter``)
and, once the first backward pass has run, a persistent gradient tensor
(category ``parameter_gradient``).  Both stay allocated for the whole
training run — in the paper's traces they are the long-lived blocks whose
access-time intervals span entire iterations.
"""

from __future__ import annotations

from typing import Optional

from ..core.events import MemoryCategory
from ..device.device import Device
from ..tensor.dtype import DType
from ..tensor.functional import zero_
from ..tensor.tensor import Tensor, empty


class Parameter:
    """A named, trainable tensor with a lazily allocated gradient buffer."""

    def __init__(self, device: Device, shape, name: str = "param",
                 dtype: Optional[DType] = None):
        self.device = device
        self.name = name
        self.data = empty(device, shape, dtype=dtype,
                          category=MemoryCategory.PARAMETER, tag=name)
        self.grad: Optional[Tensor] = None

    @property
    def shape(self):
        """Shape of the parameter tensor."""
        return self.data.shape

    @property
    def numel(self) -> int:
        """Number of elements of the parameter tensor."""
        return self.data.numel

    @property
    def nbytes(self) -> int:
        """Size of the parameter tensor in bytes."""
        return self.data.nbytes

    def ensure_grad(self) -> Tensor:
        """Return the gradient buffer, allocating (and zeroing) it on first use.

        Mirrors PyTorch, where ``param.grad`` is allocated lazily during the
        first backward pass and then persists and accumulates.
        """
        if self.grad is None:
            self.grad = empty(self.device, self.data.shape, dtype=self.data.dtype,
                              category=MemoryCategory.PARAMETER_GRADIENT,
                              tag=f"{self.name}.grad")
            zero_(self.grad)
        return self.grad

    def zero_grad(self) -> None:
        """Zero the gradient buffer if it exists (records a device write)."""
        if self.grad is not None:
            zero_(self.grad)

    def free(self) -> None:
        """Release the parameter (and gradient) device memory."""
        self.data.free()
        if self.grad is not None:
            self.grad.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
