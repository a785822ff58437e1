"""Shape-manipulation kernels: channel concatenation and splitting.

Needed by Inception-style modules whose parallel branches are concatenated
along the channel dimension.  Unlike reshapes, concatenation moves data, so it
is modelled as a real kernel with reads of every input and a write of the
packed output.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.events import MemoryCategory
from ..device.timing import elementwise_cost
from ..errors import ShapeError
from .tensor import Tensor, empty


def concat_channels(tensors: Sequence[Tensor], tag: str = "concat_out") -> Tensor:
    """Concatenate ``(N, C_i, H, W)`` tensors along the channel dimension."""
    if not tensors:
        raise ShapeError("concat_channels needs at least one tensor")
    device = tensors[0].device
    batch, _, height, width = tensors[0].shape
    for tensor in tensors:
        if tensor.ndim != 4 or tensor.shape[0] != batch or tensor.shape[2:] != (height, width):
            raise ShapeError(
                f"concat_channels shape mismatch: {[t.shape for t in tensors]}"
            )
    total_channels = sum(tensor.shape[1] for tensor in tensors)
    out = empty(device, (batch, total_channels, height, width), dtype=tensors[0].dtype,
                category=MemoryCategory.ACTIVATION, tag=tag)
    numel = sum(tensor.numel for tensor in tensors)
    cost = elementwise_cost(numel, n_inputs=1, itemsize=tensors[0].dtype.itemsize,
                            name="concat_channels")
    device.run_kernel("concat_channels", cost, tensors, (out,))
    return out


def split_channels(grad: Tensor, channel_sizes: Sequence[int],
                   tag: str = "split_grad") -> List[Tensor]:
    """Split a ``(N, C, H, W)`` gradient back into per-branch channel chunks."""
    if sum(channel_sizes) != grad.shape[1]:
        raise ShapeError(
            f"split_channels sizes {list(channel_sizes)} do not sum to {grad.shape[1]} channels"
        )
    device = grad.device
    batch, _, height, width = grad.shape
    outputs: List[Tensor] = []
    for index, channels in enumerate(channel_sizes):
        piece = empty(device, (batch, channels, height, width), dtype=grad.dtype,
                      category=MemoryCategory.ACTIVATION_GRADIENT, tag=f"{tag}_{index}")
        cost = elementwise_cost(piece.numel, n_inputs=1, itemsize=grad.dtype.itemsize,
                                name="split_channels")
        device.run_kernel("split_channels", cost, (grad,), (piece,))
        outputs.append(piece)
    return outputs
