"""2-D convolution layer."""

from __future__ import annotations

from typing import Optional

from ...device.device import Device
from ...tensor import conv_ops as C
from ...tensor.tensor import Tensor
from .. import init
from ..module import Module
from ..parameter import Parameter


class Conv2d(Module):
    """2-D convolution with square kernels, stride and zero padding."""

    def __init__(self, device: Device, in_channels: int, out_channels: int,
                 kernel_size: int, stride: int = 1, padding: int = 0,
                 bias: bool = True, name: str = "conv"):
        super().__init__(device, name=name)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.weight = Parameter(
            device,
            (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size),
            name=f"{name}.weight",
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(device, (self.out_channels,), name=f"{name}.bias")
        init.param_init(self.weight)
        if self.bias is not None:
            init.param_init(self.bias)

    def forward(self, x: Tensor) -> Tensor:
        self.save_for_backward(input=x)
        bias_tensor = self.bias.data if self.bias is not None else None
        return C.conv2d_forward(x, self.weight.data, bias_tensor, stride=self.stride,
                                padding=self.padding, tag=self.out_tag)

    def backward(self, grad_output: Tensor) -> Tensor:
        x = self.saved("input")
        grad_weight = self.weight.ensure_grad()
        grad_bias = self.bias.ensure_grad() if self.bias is not None else None
        C.conv2d_backward_params(x, grad_output, grad_weight, grad_bias,
                                 stride=self.stride, padding=self.padding)
        grad_input = C.conv2d_backward_input(grad_output, self.weight.data, x.shape,
                                             stride=self.stride, padding=self.padding,
                                             tag=self.grad_in_tag)
        self.release_saved()
        return grad_input
