"""LeNet-5, the classic small convolutional network (LeCun et al.).

Used by the tests and the Figure-5 breakdown as a small "typical DNN" whose
sessions are cheap enough to run in unit tests.
"""

from __future__ import annotations

from ..device.device import Device
from ..nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential


class LeNet5(Sequential):
    """LeNet-5 adapted to configurable input channels / spatial size."""

    def __init__(self, device: Device, num_classes: int = 10, in_channels: int = 1,
                 input_size: int = 28,
                 name: str = "lenet5"):
        after_convs = ((input_size - 4) // 2 - 4) // 2
        if after_convs <= 0:
            raise ValueError(f"input_size {input_size} is too small for LeNet-5")
        layers = [
            Conv2d(device, in_channels, 6, kernel_size=5, name=f"{name}.conv1"),
            ReLU(device, name=f"{name}.relu1"),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.pool1"),
            Conv2d(device, 6, 16, kernel_size=5, name=f"{name}.conv2"),
            ReLU(device, name=f"{name}.relu2"),
            MaxPool2d(device, kernel_size=2, stride=2, name=f"{name}.pool2"),
            Flatten(device, name=f"{name}.flatten"),
            Linear(device, 16 * after_convs * after_convs, 120, name=f"{name}.fc1"),
            ReLU(device, name=f"{name}.relu3"),
            Linear(device, 120, 84, name=f"{name}.fc2"),
            ReLU(device, name=f"{name}.relu4"),
            Linear(device, 84, num_classes, name=f"{name}.fc3"),
        ]
        super().__init__(device, layers, name=name)
        self.input_shape = (in_channels, input_size, input_size)
        self.num_classes = num_classes
