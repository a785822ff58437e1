"""Fully connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...device.device import Device
from ...tensor import functional as F
from ...tensor.tensor import Tensor
from .. import init
from ..module import Module
from ..parameter import Parameter


class Linear(Module):
    """``y = x @ W + b`` with ``W`` of shape ``(in_features, out_features)``.

    The forward pass saves the input activation, which stays resident on the
    device until this layer's backward pass consumes it — the dominant source
    of "intermediate results" in the paper's occupation breakdown.
    """

    def __init__(self, device: Device, in_features: int, out_features: int,
                 bias: bool = True, name: str = "linear",
                 rng: Optional[np.random.Generator] = None):
        super().__init__(device, name=name)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(device, (self.in_features, self.out_features),
                                name=f"{name}.weight")
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(device, (self.out_features,), name=f"{name}.bias")
        generator = rng if rng is not None else np.random.default_rng(0)
        init.kaiming_uniform_(self.weight, generator)
        if self.bias is not None:
            init.zeros_(self.bias)

    def forward(self, x: Tensor) -> Tensor:
        self.save_for_backward(input=x)
        bias_tensor = self.bias.data if self.bias is not None else None
        return F.linear_forward(x, self.weight.data, bias_tensor, tag=self.out_tag)

    def backward(self, grad_output: Tensor) -> Tensor:
        x = self.saved("input")
        grad_weight = self.weight.ensure_grad()
        grad_bias = self.bias.ensure_grad() if self.bias is not None else None
        F.linear_backward_params(x, grad_output, grad_weight, grad_bias)
        grad_input = F.linear_backward_input(grad_output, self.weight.data,
                                             tag=self.grad_in_tag)
        self.release_saved()
        return grad_input
