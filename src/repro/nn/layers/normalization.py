"""Batch normalization."""

from __future__ import annotations

from ...core.events import MemoryCategory
from ...device.device import Device
from ...tensor import conv_ops as C
from ...tensor.tensor import Tensor, empty, full, zeros
from .. import init
from ..module import Module
from ..parameter import Parameter


class BatchNorm2d(Module):
    """Per-channel batch normalization over ``(N, H, W)``.

    Gamma/beta are trainable parameters; the running mean/variance are
    persistent buffers (model state, counted with "parameters" in the paper's
    breakdown).  The forward pass saves the input plus the batch statistics
    for backward, adding to the intermediate-results footprint.
    """

    def __init__(self, device: Device, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1, name: str = "bn"):
        super().__init__(device, name=name)
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(device, (self.num_features,), name=f"{name}.weight")
        self.bias = Parameter(device, (self.num_features,), name=f"{name}.bias")
        init.ones_(self.weight)
        init.zeros_(self.bias)
        self.register_buffer(
            "running_mean",
            zeros(device, (self.num_features,), category=MemoryCategory.PARAMETER,
                  tag=f"{name}.running_mean"),
        )
        self.register_buffer(
            "running_var",
            full(device, (self.num_features,), 1.0, category=MemoryCategory.PARAMETER,
                 tag=f"{name}.running_var"),
        )

    def forward(self, x: Tensor) -> Tensor:
        output, save_mean, save_invstd = C.batchnorm2d_forward(
            x, self.weight.data, self.bias.data, self.running_mean, self.running_var,
            momentum=self.momentum, eps=self.eps, training=self.training,
            tag=self.out_tag,
        )
        self.save_for_backward(input=x, save_mean=save_mean, save_invstd=save_invstd)
        # The statistics tensors were created inside the op with refcount 1;
        # drop that creation reference so backward's release frees them.
        save_mean.release()
        save_invstd.release()
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        x = self.saved("input")
        save_mean = self.saved("save_mean")
        save_invstd = self.saved("save_invstd")
        grad_gamma = self.weight.ensure_grad()
        grad_beta = self.bias.ensure_grad()
        grad_input = C.batchnorm2d_backward(grad_output, x, self.weight.data, save_mean,
                                            save_invstd, grad_gamma, grad_beta,
                                            tag=self.grad_in_tag)
        self.release_saved()
        return grad_input
