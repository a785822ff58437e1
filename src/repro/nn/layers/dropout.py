"""Dropout layer."""

from __future__ import annotations

from typing import Optional

from ...device.device import Device
from ...rng import LazyGenerator
from ...tensor import functional as F
from ...tensor.tensor import Tensor
from ..module import Module


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode.

    The dropout mask is an extra intermediate tensor that lives from forward
    to backward, which is why dropout-heavy classifiers (e.g. AlexNet's head)
    contribute noticeably to the intermediate-results footprint.
    """

    def __init__(self, device: Device, p: float = 0.5, name: str = "dropout",
                 seed: Optional[int] = None):
        super().__init__(device, name=name)
        self.p = float(p)
        self._rng = LazyGenerator(seed if seed is not None else 0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x.retain()
        output, mask = F.dropout_forward(x, self.p, self._rng, tag=self.out_tag)
        self.save_for_backward(mask=mask)
        mask.release()
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        if not self.has_saved("mask"):
            return grad_output.retain()
        mask = self.saved("mask")
        grad_input = F.dropout_backward(grad_output, mask, tag=self.grad_in_tag)
        self.release_saved()
        return grad_input
