"""VGG-11 and VGG-16 (Simonyan & Zisserman), used as "typical DNNs" in Figure 5."""

from __future__ import annotations

from typing import List, Sequence, Union

from ..device.device import Device
from ..nn import Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU, Sequential

#: Layer configurations: integers are output channel counts, "M" is max-pooling.
VGG_CONFIGS = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
}


class VGG(Sequential):
    """A VGG network built from a channel configuration string."""

    def __init__(self, device: Device, config: Union[str, Sequence] = "vgg16",
                 num_classes: int = 1000, input_size: int = 224, in_channels: int = 3, name: str = "vgg"):
        if isinstance(config, str):
            config_key = config
            config = VGG_CONFIGS[config]
        else:
            config_key = name
        layers: List = []
        channels = in_channels
        spatial = input_size
        conv_index = 0
        for entry in config:
            if entry == "M":
                layers.append(MaxPool2d(device, kernel_size=2, stride=2,
                                        name=f"{name}.pool{conv_index}"))
                spatial //= 2
                continue
            conv_index += 1
            layers.append(Conv2d(device, channels, int(entry), kernel_size=3, padding=1,
                                 name=f"{name}.conv{conv_index}"))
            layers.append(ReLU(device, name=f"{name}.relu{conv_index}"))
            channels = int(entry)
        spatial = max(1, spatial)
        hidden = 4096 if input_size >= 64 else 512
        layers += [
            Flatten(device, name=f"{name}.flatten"),
            Linear(device, channels * spatial * spatial, hidden, name=f"{name}.fc1"),
            ReLU(device, name=f"{name}.relu_fc1"),
            Dropout(device, p=0.5, name=f"{name}.drop1"),
            Linear(device, hidden, hidden, name=f"{name}.fc2"),
            ReLU(device, name=f"{name}.relu_fc2"),
            Dropout(device, p=0.5, name=f"{name}.drop2"),
            Linear(device, hidden, num_classes, name=f"{name}.fc3"),
        ]
        super().__init__(device, layers, name=name or config_key)
        self.input_shape = (in_channels, input_size, input_size)
        self.num_classes = num_classes


def vgg11(device: Device, **kwargs) -> VGG:
    """VGG with configuration A (11 weight layers)."""
    kwargs.setdefault("name", "vgg11")
    return VGG(device, config="vgg11", **kwargs)


def vgg16(device: Device, **kwargs) -> VGG:
    """VGG with configuration D (16 weight layers)."""
    kwargs.setdefault("name", "vgg16")
    return VGG(device, config="vgg16", **kwargs)
