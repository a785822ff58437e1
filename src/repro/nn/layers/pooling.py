"""Pooling layers (max, average and global average pooling)."""

from __future__ import annotations

from ...tensor import conv_ops as C
from ...tensor.tensor import Tensor
from ..module import Module


class MaxPool2d(Module):
    """Max pooling over square windows; saves argmax indices for backward."""

    def __init__(self, device, kernel_size: int, stride: int = None, padding: int = 0,
                 name: str = "maxpool"):
        super().__init__(device, name=name)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size
        self.padding = int(padding)
        self._input_shape = None

    def forward(self, x: Tensor) -> Tensor:
        output, indices = C.maxpool2d_forward(x, kernel=self.kernel_size, stride=self.stride,
                                              padding=self.padding, tag=self.out_tag)
        self._input_shape = x.shape
        self.save_for_backward(indices=indices)
        # The indices tensor was created inside the op with refcount 1 and is
        # retained by save_for_backward; drop the creation reference so it is
        # freed right after backward consumes it.
        indices.release()
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        indices = self.saved("indices")
        grad_input = C.maxpool2d_backward(grad_output, indices, self._input_shape,
                                          tag=self.grad_in_tag)
        self.release_saved()
        return grad_input


class AvgPool2d(Module):
    """Average pooling over square windows."""

    def __init__(self, device, kernel_size: int, stride: int = None, padding: int = 0,
                 name: str = "avgpool"):
        super().__init__(device, name=name)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size
        self.padding = int(padding)
        self._input_shape = None

    def forward(self, x: Tensor) -> Tensor:
        self._input_shape = x.shape
        return C.avgpool2d_forward(x, kernel=self.kernel_size, stride=self.stride,
                                   padding=self.padding, tag=self.out_tag)

    def backward(self, grad_output: Tensor) -> Tensor:
        return C.avgpool2d_backward(grad_output, self._input_shape, tag=self.grad_in_tag)


class GlobalAvgPool2d(Module):
    """Adaptive average pooling to a single spatial location (ResNet head)."""

    def __init__(self, device, name: str = "global_avgpool"):
        super().__init__(device, name=name)
        self._input_shape = None

    def forward(self, x: Tensor) -> Tensor:
        self._input_shape = x.shape
        return C.global_avg_pool_forward(x, tag=self.out_tag)

    def backward(self, grad_output: Tensor) -> Tensor:
        return C.global_avg_pool_backward(grad_output, self._input_shape,
                                          tag=self.grad_in_tag)
