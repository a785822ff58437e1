"""Activation layers (ReLU, Sigmoid, Tanh)."""

from __future__ import annotations

from ...tensor import functional as F
from ...tensor.tensor import Tensor
from ..module import Module


class ReLU(Module):
    """Rectified linear unit; saves its output as the backward mask."""

    def forward(self, x: Tensor) -> Tensor:
        output = F.relu_forward(x, tag=self.out_tag)
        self.save_for_backward(output=output)
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        output = self.saved("output")
        grad_input = F.relu_backward(grad_output, output, tag=self.grad_in_tag)
        self.release_saved()
        return grad_input


class Sigmoid(Module):
    """Logistic sigmoid; saves its output for the backward pass."""

    def forward(self, x: Tensor) -> Tensor:
        output = F.sigmoid_forward(x, tag=self.out_tag)
        self.save_for_backward(output=output)
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        output = self.saved("output")
        grad_input = F.sigmoid_backward(grad_output, output, tag=self.grad_in_tag)
        self.release_saved()
        return grad_input


class Tanh(Module):
    """Hyperbolic tangent; saves its output for the backward pass."""

    def forward(self, x: Tensor) -> Tensor:
        output = F.tanh_forward(x, tag=self.out_tag)
        self.save_for_backward(output=output)
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        output = self.saved("output")
        grad_input = F.tanh_backward(grad_output, output, tag=self.grad_in_tag)
        self.release_saved()
        return grad_input
