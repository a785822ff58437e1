"""The paper's case-study MLP (Figure 1).

Layer topology: ``y = (ReLU(x @ W0 + b0)) @ W1 + b1`` with
``W0: (2, 12288)``, ``b0: (12288)``, ``W1: (12288, 2)``, ``b1: (2)``.

The two matrix multiplications, the bias adds and the ReLU are exactly the
operators whose per-block behaviors Figures 2-4 of the paper trace during the
first five training iterations.
"""

from __future__ import annotations

from ..device.device import Device
from ..nn import Linear, ReLU, Sequential
from ..tensor.tensor import Tensor

#: Shapes used by the paper's Figure 1.
PAPER_MLP_INPUT_DIM = 2
PAPER_MLP_HIDDEN_DIM = 12288
PAPER_MLP_OUTPUT_DIM = 2


class MLP(Sequential):
    """A configurable multi-layer perceptron (defaults to the paper's Fig. 1 shape)."""

    def __init__(self, device: Device, input_dim: int = PAPER_MLP_INPUT_DIM,
                 hidden_dim: int = PAPER_MLP_HIDDEN_DIM,
                 output_dim: int = PAPER_MLP_OUTPUT_DIM,
                 num_hidden_layers: int = 1,
                 name: str = "mlp"):
        layers = []
        previous = input_dim
        for index in range(num_hidden_layers):
            layers.append(Linear(device, previous, hidden_dim, name=f"{name}.fc{index}"))
            layers.append(ReLU(device, name=f"{name}.relu{index}"))
            previous = hidden_dim
        layers.append(Linear(device, previous, output_dim, name=f"{name}.fc_out"))
        super().__init__(device, layers, name=name)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.input_shape = (input_dim,)
        self.num_classes = output_dim


def paper_mlp(device: Device) -> MLP:
    """Construct the exact MLP of the paper's Figure 1."""
    return MLP(device)
