"""AlexNet — the paper's "linear DNN" for the Figure 6 batch-size sweep.

Two configurations are provided:

* the ImageNet configuration (224x224 inputs) follows the torchvision
  topology (5 convolutions, 3 max-poolings, 3 fully connected layers with
  dropout);
* the CIFAR configuration (32x32 inputs) is the widely used adaptation that
  keeps the channel progression but shrinks kernel sizes and strides so the
  spatial dimensions survive.

The paper's Figure 6 runs AlexNet on CIFAR-100 at several batch sizes and
shows the intermediate results progressively dominating the footprint.
"""

from __future__ import annotations

from ..device.device import Device
from ..nn import Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU, Sequential


class AlexNet(Sequential):
    """AlexNet for ImageNet-sized (224x224) or CIFAR-sized (32x32) inputs."""

    def __init__(self, device: Device, num_classes: int = 1000, input_size: int = 224,
                 in_channels: int = 3, dropout: float = 0.5, name: str = "alexnet"):
        if input_size >= 64:
            layers, feature_dim = self._imagenet_layers(device, in_channels, input_size, name)
        else:
            layers, feature_dim = self._cifar_layers(device, in_channels, input_size, name)
        layers += [
            Flatten(device, name=f"{name}.flatten"),
            Dropout(device, p=dropout, name=f"{name}.drop1"),
            Linear(device, feature_dim, 4096, name=f"{name}.fc1"),
            ReLU(device, name=f"{name}.relu_fc1"),
            Dropout(device, p=dropout, name=f"{name}.drop2"),
            Linear(device, 4096, 4096, name=f"{name}.fc2"),
            ReLU(device, name=f"{name}.relu_fc2"),
            Linear(device, 4096, num_classes, name=f"{name}.fc3"),
        ]
        super().__init__(device, layers, name=name)
        self.input_shape = (in_channels, input_size, input_size)
        self.num_classes = num_classes

    @staticmethod
    def _imagenet_layers(device, in_channels, input_size, name):
        """Feature extractor for 224x224 inputs (torchvision layout)."""
        layers = [
            Conv2d(device, in_channels, 64, kernel_size=11, stride=4, padding=2,
                   name=f"{name}.conv1"),
            ReLU(device, name=f"{name}.relu1"),
            MaxPool2d(device, kernel_size=3, stride=2, name=f"{name}.pool1"),
            Conv2d(device, 64, 192, kernel_size=5, padding=2, name=f"{name}.conv2"),
            ReLU(device, name=f"{name}.relu2"),
            MaxPool2d(device, kernel_size=3, stride=2, name=f"{name}.pool2"),
            Conv2d(device, 192, 384, kernel_size=3, padding=1, name=f"{name}.conv3"),
            ReLU(device, name=f"{name}.relu3"),
            Conv2d(device, 384, 256, kernel_size=3, padding=1, name=f"{name}.conv4"),
            ReLU(device, name=f"{name}.relu4"),
            Conv2d(device, 256, 256, kernel_size=3, padding=1, name=f"{name}.conv5"),
            ReLU(device, name=f"{name}.relu5"),
            MaxPool2d(device, kernel_size=3, stride=2, name=f"{name}.pool3"),
        ]
        # 224 -> conv1(s4,p2) 55 -> pool 27 -> 27 -> pool 13 -> 13 -> 13 -> 13 -> pool 6
        spatial = 6 if input_size == 224 else AlexNet._imagenet_spatial(input_size)
        return layers, 256 * spatial * spatial

    @staticmethod
    def _imagenet_spatial(input_size: int) -> int:
        size = (input_size + 2 * 2 - 11) // 4 + 1
        size = (size - 3) // 2 + 1
        size = size  # conv2 padding 2 keeps size
        size = (size - 3) // 2 + 1
        size = (size - 3) // 2 + 1
        return max(1, size)

    @staticmethod
    def _cifar_layers(device, in_channels, input_size, name):
        """Feature extractor for 32x32 inputs (CIFAR adaptation)."""
        layers = [
            Conv2d(device, in_channels, 64, kernel_size=3, stride=2, padding=1,
                   name=f"{name}.conv1"),
            ReLU(device, name=f"{name}.relu1"),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.pool1"),
            Conv2d(device, 64, 192, kernel_size=3, padding=1, name=f"{name}.conv2"),
            ReLU(device, name=f"{name}.relu2"),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.pool2"),
            Conv2d(device, 192, 384, kernel_size=3, padding=1, name=f"{name}.conv3"),
            ReLU(device, name=f"{name}.relu3"),
            Conv2d(device, 384, 256, kernel_size=3, padding=1, name=f"{name}.conv4"),
            ReLU(device, name=f"{name}.relu4"),
            Conv2d(device, 256, 256, kernel_size=3, padding=1, name=f"{name}.conv5"),
            ReLU(device, name=f"{name}.relu5"),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.pool3"),
        ]
        # 32 -> conv1(s2) 16 -> pool 8 -> pool 4 -> ... -> pool 2
        spatial = input_size // 16
        return layers, 256 * max(1, spatial) * max(1, spatial)
