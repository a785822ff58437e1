"""A small Inception-style network (parallel branches + channel concatenation).

The paper's introduction motivates the memory problem with Inception-V4's
45 GB training footprint; for the Figure-5 "typical DNNs" breakdown we include
a compact Inception-style model whose blocks have the same four-branch
structure (1x1, 3x3, 5x5 and pooled 1x1 convolutions concatenated along the
channel axis), which exercises the concat/split kernels and produces the
characteristic wide intermediate tensors.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..device.device import Device
from ..nn import Conv2d, Flatten, GlobalAvgPool2d, Linear, MaxPool2d, ReLU, Sequential
from ..nn.module import Module
from ..tensor import shape_ops
from ..tensor.tensor import Tensor


class InceptionBlock(Module):
    """Four parallel convolution branches concatenated along channels."""

    def __init__(self, device: Device, in_channels: int, branch_channels: int,
                 name: str = "inception_block",
                 rng: Optional[np.random.Generator] = None):
        super().__init__(device, name=name)
        generator = rng if rng is not None else np.random.default_rng(0)
        self.branch1 = Sequential(device, [
            Conv2d(device, in_channels, branch_channels, kernel_size=1,
                   name=f"{name}.b1.conv", rng=generator),
            ReLU(device, name=f"{name}.b1.relu"),
        ], name=f"{name}.branch1")
        self.branch3 = Sequential(device, [
            Conv2d(device, in_channels, branch_channels, kernel_size=3, padding=1,
                   name=f"{name}.b3.conv", rng=generator),
            ReLU(device, name=f"{name}.b3.relu"),
        ], name=f"{name}.branch3")
        self.branch5 = Sequential(device, [
            Conv2d(device, in_channels, branch_channels, kernel_size=5, padding=2,
                   name=f"{name}.b5.conv", rng=generator),
            ReLU(device, name=f"{name}.b5.relu"),
        ], name=f"{name}.branch5")
        self.branch_pool = Sequential(device, [
            AvgLikePool(device, name=f"{name}.bp.pool"),
            Conv2d(device, in_channels, branch_channels, kernel_size=1,
                   name=f"{name}.bp.conv", rng=generator),
            ReLU(device, name=f"{name}.bp.relu"),
        ], name=f"{name}.branch_pool")
        self.branches = [self.branch1, self.branch3, self.branch5, self.branch_pool]
        self.branch_channels = branch_channels
        self.out_channels = 4 * branch_channels

    def forward(self, x: Tensor) -> Tensor:
        outputs = [branch(x) for branch in self.branches]
        merged = shape_ops.concat_channels(outputs, tag=f"{self.name}.concat")
        for output in outputs:
            output.release()
        return merged

    def backward(self, grad_output: Tensor) -> Tensor:
        sizes = [self.branch_channels] * 4
        pieces = shape_ops.split_channels(grad_output, sizes, tag=f"{self.name}.split")
        grad_input: Optional[Tensor] = None
        from ..tensor import functional as F  # local import avoids a cycle at module load

        for branch, piece in zip(self.branches, pieces):
            grad_branch = branch.backward(piece)
            piece.release()
            if grad_input is None:
                grad_input = grad_branch
            else:
                merged = F.add(grad_input, grad_branch, tag=self.grad_in_tag)
                grad_input.release()
                grad_branch.release()
                grad_input = merged
        return grad_input


class AvgLikePool(Module):
    """A stride-1 3x3 max pool used inside the pooled branch (keeps spatial size)."""

    def __init__(self, device: Device, name: str = "pool3x3"):
        super().__init__(device, name=name)
        self._inner = None

    def forward(self, x: Tensor) -> Tensor:
        from ..tensor import conv_ops as C

        self._input_shape = x.shape
        output, indices = C.maxpool2d_forward(x, kernel=3, stride=1, padding=1,
                                              tag=self.out_tag)
        self.save_for_backward(indices=indices)
        indices.release()
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        from ..tensor import conv_ops as C

        indices = self.saved("indices")
        grad_input = C.maxpool2d_backward(grad_output, indices, self._input_shape, kernel=3,
                                          stride=1, padding=1, tag=self.grad_in_tag)
        self.release_saved()
        return grad_input


class SimpleInception(Sequential):
    """A compact GoogLeNet-flavoured network with three Inception blocks."""

    def __init__(self, device: Device, num_classes: int = 100, input_size: int = 32,
                 in_channels: int = 3, rng: Optional[np.random.Generator] = None,
                 name: str = "inception_small"):
        generator = rng if rng is not None else np.random.default_rng(0)
        layers: List[Module] = [
            Conv2d(device, in_channels, 64, kernel_size=3, padding=1,
                   name=f"{name}.stem.conv", rng=generator),
            ReLU(device, name=f"{name}.stem.relu"),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.stem.pool"),
            InceptionBlock(device, 64, 32, name=f"{name}.block1", rng=generator),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.pool1"),
            InceptionBlock(device, 128, 48, name=f"{name}.block2", rng=generator),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.pool2"),
            InceptionBlock(device, 192, 64, name=f"{name}.block3", rng=generator),
            GlobalAvgPool2d(device, name=f"{name}.gap"),
            Flatten(device, name=f"{name}.flatten"),
            Linear(device, 256, num_classes, name=f"{name}.fc", rng=generator),
        ]
        super().__init__(device, layers, name=name)
        self.input_shape = (in_channels, input_size, input_size)
        self.num_classes = num_classes
