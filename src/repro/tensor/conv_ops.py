"""Convolution, pooling and batch-normalization kernels.

Besides its operands, a convolution touches a cuDNN-style *workspace*: a
transient device buffer allocated right before the kernel and freed right
after it, sized like the im2col buffer and capped at
:data:`WORKSPACE_LIMIT_BYTES` (the same 64 MiB default limit PyTorch passes
to cuDNN).  Those short-lived
workspace blocks are part of the "intermediate results" the paper's breakdown
attributes most of the footprint to.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.events import MemoryCategory
from ..device.timing import conv2d_cost, elementwise_cost
from ..errors import ShapeError
from ..units import MIB
from .dtype import float32
from .tensor import Tensor, empty

#: cuDNN-style workspace cap; the modeled workspace never exceeds this.
WORKSPACE_LIMIT_BYTES = 64 * MIB


def conv_output_hw(height: int, width: int, kernel_h: int, kernel_w: int,
                   stride: int, padding: int) -> Tuple[int, int]:
    """Output spatial size of a convolution with square stride/padding."""
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"convolution of {height}x{width} input with kernel {kernel_h}x{kernel_w}, "
            f"stride {stride}, padding {padding} produces empty output"
        )
    return out_h, out_w


def pool_output_hw(height: int, width: int, kernel: int, stride: int,
                   padding: int = 0) -> Tuple[int, int]:
    """Output spatial size of a pooling window (same formula as convolution)."""
    return conv_output_hw(height, width, kernel, kernel, stride, padding)


def _workspace_bytes(batch: int, channels: int, kernel_h: int, kernel_w: int,
                     out_h: int, out_w: int, itemsize: int) -> int:
    """Size of the modeled convolution workspace (im2col buffer, capped)."""
    full = batch * channels * kernel_h * kernel_w * out_h * out_w * itemsize
    return int(min(full, WORKSPACE_LIMIT_BYTES))


def _with_workspace(device, nbytes: int, op_name: str):
    """Allocate, touch and return a transient workspace tensor (or None)."""
    if nbytes <= 0:
        return None
    workspace = empty(device, (max(1, nbytes // 4),), dtype=float32,
                      category=MemoryCategory.WORKSPACE, tag=f"{op_name}_workspace")
    workspace.storage.record_write(op_name)
    return workspace


def conv2d_forward(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                   stride: int, padding: int, tag: str = "conv_out") -> Tensor:
    """2-D convolution forward: ``(N, C, H, W) * (O, C, kh, kw) -> (N, O, oh, ow)``."""
    device = x.device
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape} and {weight.shape}")
    batch, in_channels, height, width = x.shape
    out_channels, weight_in_channels, kernel_h, kernel_w = weight.shape
    if in_channels != weight_in_channels:
        raise ShapeError(
            f"conv2d channel mismatch: input has {in_channels}, weight expects {weight_in_channels}"
        )
    out_h, out_w = conv_output_hw(height, width, kernel_h, kernel_w, stride, padding)
    out = empty(device, (batch, out_channels, out_h, out_w), dtype=x.dtype,
                category=MemoryCategory.ACTIVATION, tag=tag)
    workspace = _with_workspace(
        device,
        _workspace_bytes(batch, in_channels, kernel_h, kernel_w, out_h, out_w,
                         x.dtype.itemsize),
        "conv2d_forward",
    )
    cost = conv2d_cost(batch, in_channels, out_channels, out_h, out_w, kernel_h, kernel_w,
                       itemsize=x.dtype.itemsize, name="conv2d_forward")
    inputs = [x, weight] + ([bias] if bias is not None else [])
    if workspace is not None:
        inputs.append(workspace)

    device.run_kernel("conv2d_forward", cost, inputs, (out,))
    if workspace is not None:
        workspace.free()
    return out


def conv2d_backward_input(grad_output: Tensor, weight: Tensor,
                          x_shape: Tuple[int, int, int, int], stride: int,
                          padding: int, tag: str = "conv_grad_in") -> Tensor:
    """Gradient of a convolution w.r.t. its input."""
    device = grad_output.device
    batch, in_channels, height, width = x_shape
    out_channels, _, kernel_h, kernel_w = weight.shape
    out_h, out_w = conv_output_hw(height, width, kernel_h, kernel_w, stride, padding)
    grad_input = empty(device, x_shape, dtype=grad_output.dtype,
                       category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    workspace = _with_workspace(
        device,
        _workspace_bytes(batch, in_channels, kernel_h, kernel_w, out_h, out_w,
                         grad_output.dtype.itemsize),
        "conv2d_backward_input",
    )
    cost = conv2d_cost(batch, in_channels, out_channels, out_h, out_w, kernel_h, kernel_w,
                       itemsize=grad_output.dtype.itemsize, name="conv2d_backward_input")
    inputs = [grad_output, weight] + ([workspace] if workspace is not None else [])
    device.run_kernel("conv2d_backward_input", cost, inputs, (grad_input,))
    if workspace is not None:
        workspace.free()
    return grad_input


def conv2d_backward_params(x: Tensor, grad_output: Tensor, grad_weight: Tensor,
                           grad_bias: Optional[Tensor], stride: int, padding: int) -> None:
    """Accumulate convolution parameter gradients into persistent buffers."""
    device = x.device
    batch, in_channels, height, width = x.shape
    out_channels = grad_output.shape[1]
    _, _, kernel_h, kernel_w = grad_weight.shape
    out_h, out_w = conv_output_hw(height, width, kernel_h, kernel_w, stride, padding)
    workspace = _with_workspace(
        device,
        _workspace_bytes(batch, in_channels, kernel_h, kernel_w, out_h, out_w,
                         x.dtype.itemsize),
        "conv2d_backward_weight",
    )
    cost = conv2d_cost(batch, in_channels, out_channels, out_h, out_w, kernel_h, kernel_w,
                       itemsize=x.dtype.itemsize, name="conv2d_backward_weight")
    inputs = [x, grad_output, grad_weight] + ([workspace] if workspace is not None else [])
    device.run_kernel("conv2d_backward_weight", cost, inputs, (grad_weight,))
    if workspace is not None:
        workspace.free()

    if grad_bias is not None:
        bias_cost = elementwise_cost(grad_output.numel, n_inputs=2,
                                     itemsize=grad_output.dtype.itemsize,
                                     name="conv2d_backward_bias")
        device.run_kernel("conv2d_backward_bias", bias_cost, (grad_output, grad_bias),
                          (grad_bias,))


# -- pooling ---------------------------------------------------------------------------


def maxpool2d_forward(x: Tensor, kernel: int, stride: int, padding: int = 0,
                      tag: str = "maxpool_out") -> Tuple[Tensor, Tensor]:
    """Max pooling; returns (output, argmax indices saved for backward)."""
    device = x.device
    batch, channels, height, width = x.shape
    out_h, out_w = pool_output_hw(height, width, kernel, stride, padding)
    out = empty(device, (batch, channels, out_h, out_w), dtype=x.dtype,
                category=MemoryCategory.ACTIVATION, tag=tag)
    indices = empty(device, (batch, channels, out_h, out_w), dtype=x.dtype,
                    category=MemoryCategory.ACTIVATION, tag=f"{tag}_indices")
    cost = elementwise_cost(x.numel, n_inputs=1, itemsize=x.dtype.itemsize, name="maxpool2d")
    device.run_kernel("maxpool2d_forward", cost, (x,), (out, indices))
    return out, indices


def maxpool2d_backward(grad_output: Tensor, indices: Tensor,
                       x_shape: Tuple[int, int, int, int],
                       tag: str = "maxpool_grad_in") -> Tensor:
    """Gradient of max pooling: scatter gradients to the saved argmax positions."""
    device = grad_output.device
    grad_input = empty(device, x_shape, dtype=grad_output.dtype,
                       category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2,
                            itemsize=grad_output.dtype.itemsize, name="maxpool2d_backward")
    device.run_kernel("maxpool2d_backward", cost, (grad_output, indices), (grad_input,))
    return grad_input


def avgpool2d_forward(x: Tensor, kernel: int, stride: int, padding: int = 0,
                      tag: str = "avgpool_out") -> Tensor:
    """Average pooling forward."""
    device = x.device
    batch, channels, height, width = x.shape
    out_h, out_w = pool_output_hw(height, width, kernel, stride, padding)
    out = empty(device, (batch, channels, out_h, out_w), dtype=x.dtype,
                category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, itemsize=x.dtype.itemsize, name="avgpool2d")
    device.run_kernel("avgpool2d_forward", cost, (x,), (out,))
    return out


def avgpool2d_backward(grad_output: Tensor, x_shape: Tuple[int, int, int, int],
                       tag: str = "avgpool_grad_in") -> Tensor:
    """Gradient of average pooling: spread each gradient uniformly over its window."""
    device = grad_output.device
    grad_input = empty(device, x_shape, dtype=grad_output.dtype,
                       category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=1,
                            itemsize=grad_output.dtype.itemsize, name="avgpool2d_backward")
    device.run_kernel("avgpool2d_backward", cost, (grad_output,), (grad_input,))
    return grad_input


def global_avg_pool_forward(x: Tensor, tag: str = "gap_out") -> Tensor:
    """Global average pooling to a ``(N, C, 1, 1)`` map (ResNet's final pooling)."""
    device = x.device
    batch, channels = x.shape[0], x.shape[1]
    out = empty(device, (batch, channels, 1, 1), dtype=x.dtype,
                category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, itemsize=x.dtype.itemsize,
                            name="global_avg_pool")
    device.run_kernel("global_avg_pool_forward", cost, (x,), (out,))
    return out


def global_avg_pool_backward(grad_output: Tensor, x_shape: Tuple[int, int, int, int],
                             tag: str = "gap_grad_in") -> Tensor:
    """Gradient of global average pooling."""
    device = grad_output.device
    grad_input = empty(device, x_shape, dtype=grad_output.dtype,
                       category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_input.numel, n_inputs=1,
                            itemsize=grad_output.dtype.itemsize, name="global_avg_pool_backward")
    device.run_kernel("global_avg_pool_backward", cost, (grad_output,), (grad_input,))
    return grad_input


# -- batch normalization ----------------------------------------------------------------


def batchnorm2d_forward(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
                        running_var: Tensor, training: bool,
                        tag: str = "bn_out") -> Tuple[Tensor, Tensor, Tensor]:
    """Batch normalization over ``(N, H, W)`` per channel.

    Returns ``(output, save_mean, save_invstd)``; the saved statistics are
    needed by the backward pass and are part of the intermediate footprint.
    In training mode the running statistics are updated in place (read+write).
    """
    device = x.device
    channels = x.shape[1]
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    save_mean = empty(device, (channels,), dtype=x.dtype,
                      category=MemoryCategory.ACTIVATION, tag=f"{tag}_mean")
    save_invstd = empty(device, (channels,), dtype=x.dtype,
                        category=MemoryCategory.ACTIVATION, tag=f"{tag}_invstd")
    cost = elementwise_cost(x.numel, n_inputs=2, flops_per_element=5.0,
                            itemsize=x.dtype.itemsize, name="batchnorm2d")
    device.run_kernel("batchnorm2d_forward", cost, (x, gamma, beta),
                      (out, save_mean, save_invstd))

    if training:
        running_mean.storage.record_read("batchnorm2d_forward")
        running_var.storage.record_read("batchnorm2d_forward")
        running_mean.storage.record_write("batchnorm2d_forward")
        running_var.storage.record_write("batchnorm2d_forward")
    return out, save_mean, save_invstd


def batchnorm2d_backward(grad_output: Tensor, x: Tensor, gamma: Tensor, save_mean: Tensor,
                         save_invstd: Tensor, grad_gamma: Tensor, grad_beta: Tensor,
                         tag: str = "bn_grad_in") -> Tensor:
    """Gradient of batch normalization (training mode) w.r.t. input, gamma and beta."""
    device = grad_output.device
    grad_input = empty(device, x.shape, dtype=x.dtype,
                       category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=3, flops_per_element=8.0,
                            itemsize=x.dtype.itemsize, name="batchnorm2d_backward")
    device.run_kernel("batchnorm2d_backward", cost,
                      (grad_output, x, gamma, save_mean, save_invstd), (grad_input,))

    grad_gamma.storage.record_read("batchnorm2d_backward")
    grad_beta.storage.record_read("batchnorm2d_backward")
    grad_gamma.storage.record_write("batchnorm2d_backward")
    grad_beta.storage.record_write("batchnorm2d_backward")
    return grad_input
