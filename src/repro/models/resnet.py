"""ResNet-18/34/50/101/152 — the paper's "non-linear DNNs" for Figure 7.

Residual blocks are modules with explicit forward/backward: the gradient of
the elementwise residual addition flows into both the main branch and the
shortcut, and the two input gradients are summed — exactly the dataflow that
makes non-linear DNNs hold more intermediate tensors alive than linear ones.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.events import MemoryCategory
from ..device.device import Device
from ..nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from ..nn.module import Module
from ..tensor import functional as F
from ..tensor.tensor import Tensor

#: (block type, per-stage block counts) for each supported depth.
RESNET_CONFIGS = {
    "resnet18": ("basic", [2, 2, 2, 2]),
    "resnet34": ("basic", [3, 4, 6, 3]),
    "resnet50": ("bottleneck", [3, 4, 6, 3]),
    "resnet101": ("bottleneck", [3, 4, 23, 3]),
    "resnet152": ("bottleneck", [3, 8, 36, 3]),
}

#: Stage base widths shared by every ResNet depth.
STAGE_PLANES = (64, 128, 256, 512)


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual connection (ResNet-18/34)."""

    expansion = 1

    def __init__(self, device: Device, in_planes: int, planes: int, stride: int = 1,
                 name: str = "basic_block",
                 rng: Optional[np.random.Generator] = None):
        super().__init__(device, name=name)
        generator = rng if rng is not None else np.random.default_rng(0)
        self.conv1 = Conv2d(device, in_planes, planes, kernel_size=3, stride=stride,
                            padding=1, bias=False, name=f"{name}.conv1", rng=generator)
        self.bn1 = BatchNorm2d(device, planes, name=f"{name}.bn1")
        self.relu1 = ReLU(device, name=f"{name}.relu1")
        self.conv2 = Conv2d(device, planes, planes, kernel_size=3, stride=1, padding=1,
                            bias=False, name=f"{name}.conv2", rng=generator)
        self.bn2 = BatchNorm2d(device, planes, name=f"{name}.bn2")
        self.relu_out = ReLU(device, name=f"{name}.relu_out")
        self.has_downsample = stride != 1 or in_planes != planes * self.expansion
        if self.has_downsample:
            self.downsample_conv = Conv2d(device, in_planes, planes * self.expansion,
                                          kernel_size=1, stride=stride, bias=False,
                                          name=f"{name}.downsample_conv", rng=generator)
            self.downsample_bn = BatchNorm2d(device, planes * self.expansion,
                                             name=f"{name}.downsample_bn")

    def forward(self, x: Tensor) -> Tensor:
        main = self.conv1(x)
        normed = self.bn1(main)
        main.release()
        activated = self.relu1(normed)
        normed.release()
        main2 = self.conv2(activated)
        activated.release()
        normed2 = self.bn2(main2)
        main2.release()

        if self.has_downsample:
            shortcut = self.downsample_conv(x)
            shortcut_normed = self.downsample_bn(shortcut)
            shortcut.release()
        else:
            shortcut_normed = x.retain()

        summed = F.add(normed2, shortcut_normed, tag=f"{self.name}.residual_sum")
        normed2.release()
        shortcut_normed.release()
        output = self.relu_out(summed)
        summed.release()
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        grad_sum = self.relu_out.backward(grad_output)

        grad = self.bn2.backward(grad_sum)
        grad_conv2 = self.conv2.backward(grad)
        grad.release()
        grad_relu = self.relu1.backward(grad_conv2)
        grad_conv2.release()
        grad_bn1 = self.bn1.backward(grad_relu)
        grad_relu.release()
        grad_main = self.conv1.backward(grad_bn1)
        grad_bn1.release()

        if self.has_downsample:
            grad_ds = self.downsample_bn.backward(grad_sum)
            grad_shortcut = self.downsample_conv.backward(grad_ds)
            grad_ds.release()
        else:
            grad_shortcut = grad_sum.retain()
        grad_sum.release()

        grad_input = F.add(grad_main, grad_shortcut, tag=self.grad_in_tag,
                           category=MemoryCategory.ACTIVATION_GRADIENT)
        grad_main.release()
        grad_shortcut.release()
        return grad_input


class Bottleneck(Module):
    """1x1 / 3x3 / 1x1 bottleneck block with expansion 4 (ResNet-50/101/152)."""

    expansion = 4

    def __init__(self, device: Device, in_planes: int, planes: int, stride: int = 1,
                 name: str = "bottleneck",
                 rng: Optional[np.random.Generator] = None):
        super().__init__(device, name=name)
        generator = rng if rng is not None else np.random.default_rng(0)
        out_planes = planes * self.expansion
        self.conv1 = Conv2d(device, in_planes, planes, kernel_size=1, bias=False,
                            name=f"{name}.conv1", rng=generator)
        self.bn1 = BatchNorm2d(device, planes, name=f"{name}.bn1")
        self.relu1 = ReLU(device, name=f"{name}.relu1")
        self.conv2 = Conv2d(device, planes, planes, kernel_size=3, stride=stride, padding=1,
                            bias=False, name=f"{name}.conv2", rng=generator)
        self.bn2 = BatchNorm2d(device, planes, name=f"{name}.bn2")
        self.relu2 = ReLU(device, name=f"{name}.relu2")
        self.conv3 = Conv2d(device, planes, out_planes, kernel_size=1, bias=False,
                            name=f"{name}.conv3", rng=generator)
        self.bn3 = BatchNorm2d(device, out_planes, name=f"{name}.bn3")
        self.relu_out = ReLU(device, name=f"{name}.relu_out")
        self.has_downsample = stride != 1 or in_planes != out_planes
        if self.has_downsample:
            self.downsample_conv = Conv2d(device, in_planes, out_planes, kernel_size=1,
                                          stride=stride, bias=False,
                                          name=f"{name}.downsample_conv", rng=generator)
            self.downsample_bn = BatchNorm2d(device, out_planes,
                                             name=f"{name}.downsample_bn")

    def forward(self, x: Tensor) -> Tensor:
        stage1 = self.conv1(x)
        stage1_bn = self.bn1(stage1)
        stage1.release()
        stage1_act = self.relu1(stage1_bn)
        stage1_bn.release()

        stage2 = self.conv2(stage1_act)
        stage1_act.release()
        stage2_bn = self.bn2(stage2)
        stage2.release()
        stage2_act = self.relu2(stage2_bn)
        stage2_bn.release()

        stage3 = self.conv3(stage2_act)
        stage2_act.release()
        stage3_bn = self.bn3(stage3)
        stage3.release()

        if self.has_downsample:
            shortcut = self.downsample_conv(x)
            shortcut_normed = self.downsample_bn(shortcut)
            shortcut.release()
        else:
            shortcut_normed = x.retain()

        summed = F.add(stage3_bn, shortcut_normed, tag=f"{self.name}.residual_sum")
        stage3_bn.release()
        shortcut_normed.release()
        output = self.relu_out(summed)
        summed.release()
        return output

    def backward(self, grad_output: Tensor) -> Tensor:
        grad_sum = self.relu_out.backward(grad_output)

        grad = self.bn3.backward(grad_sum)
        grad_c3 = self.conv3.backward(grad)
        grad.release()
        grad = self.relu2.backward(grad_c3)
        grad_c3.release()
        grad_b2 = self.bn2.backward(grad)
        grad.release()
        grad_c2 = self.conv2.backward(grad_b2)
        grad_b2.release()
        grad = self.relu1.backward(grad_c2)
        grad_c2.release()
        grad_b1 = self.bn1.backward(grad)
        grad.release()
        grad_main = self.conv1.backward(grad_b1)
        grad_b1.release()

        if self.has_downsample:
            grad_ds = self.downsample_bn.backward(grad_sum)
            grad_shortcut = self.downsample_conv.backward(grad_ds)
            grad_ds.release()
        else:
            grad_shortcut = grad_sum.retain()
        grad_sum.release()

        grad_input = F.add(grad_main, grad_shortcut, tag=self.grad_in_tag,
                           category=MemoryCategory.ACTIVATION_GRADIENT)
        grad_main.release()
        grad_shortcut.release()
        return grad_input


class ResNet(Sequential):
    """A ResNet assembled as a Sequential of stem, residual stages and head."""

    def __init__(self, device: Device, depth_name: str = "resnet18", num_classes: int = 1000,
                 input_size: int = 224, in_channels: int = 3,
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        if depth_name not in RESNET_CONFIGS:
            known = ", ".join(sorted(RESNET_CONFIGS))
            raise ValueError(f"unknown ResNet depth '{depth_name}'; known: {known}")
        name = name or depth_name
        generator = rng if rng is not None else np.random.default_rng(0)
        block_kind, stage_sizes = RESNET_CONFIGS[depth_name]
        block_cls = BasicBlock if block_kind == "basic" else Bottleneck

        layers: List[Module] = []
        if input_size >= 64:
            layers += [
                Conv2d(device, in_channels, 64, kernel_size=7, stride=2, padding=3,
                       bias=False, name=f"{name}.conv1", rng=generator),
                BatchNorm2d(device, 64, name=f"{name}.bn1"),
                ReLU(device, name=f"{name}.relu1"),
                MaxPool2d(device, kernel_size=3, stride=2, padding=1, name=f"{name}.maxpool"),
            ]
        else:
            # CIFAR stem: keep the 32x32 resolution in the first stage.
            layers += [
                Conv2d(device, in_channels, 64, kernel_size=3, stride=1, padding=1,
                       bias=False, name=f"{name}.conv1", rng=generator),
                BatchNorm2d(device, 64, name=f"{name}.bn1"),
                ReLU(device, name=f"{name}.relu1"),
            ]

        in_planes = 64
        for stage_index, (planes, blocks) in enumerate(zip(STAGE_PLANES, stage_sizes)):
            stride = 1 if stage_index == 0 else 2
            for block_index in range(blocks):
                block_stride = stride if block_index == 0 else 1
                block = block_cls(device, in_planes, planes, stride=block_stride,
                                  name=f"{name}.layer{stage_index + 1}.{block_index}",
                                  rng=generator)
                layers.append(block)
                in_planes = planes * block_cls.expansion

        layers += [
            GlobalAvgPool2d(device, name=f"{name}.avgpool"),
            Flatten(device, name=f"{name}.flatten"),
            Linear(device, in_planes, num_classes, name=f"{name}.fc", rng=generator),
        ]
        super().__init__(device, layers, name=name)
        self.depth_name = depth_name
        self.input_shape = (in_channels, input_size, input_size)
        self.num_classes = num_classes


def resnet18(device: Device, **kwargs) -> ResNet:
    """ResNet-18 (BasicBlock, [2, 2, 2, 2])."""
    return ResNet(device, "resnet18", **kwargs)


def resnet34(device: Device, **kwargs) -> ResNet:
    """ResNet-34 (BasicBlock, [3, 4, 6, 3])."""
    return ResNet(device, "resnet34", **kwargs)


def resnet50(device: Device, **kwargs) -> ResNet:
    """ResNet-50 (Bottleneck, [3, 4, 6, 3])."""
    return ResNet(device, "resnet50", **kwargs)


def resnet101(device: Device, **kwargs) -> ResNet:
    """ResNet-101 (Bottleneck, [3, 4, 23, 3])."""
    return ResNet(device, "resnet101", **kwargs)


def resnet152(device: Device, **kwargs) -> ResNet:
    """ResNet-152 (Bottleneck, [3, 8, 36, 3])."""
    return ResNet(device, "resnet152", **kwargs)
