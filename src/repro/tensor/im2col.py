"""NumPy im2col/col2im helpers used by the eager convolution kernels.

These are host-side numerical helpers only; they do not touch the simulated
device.  Shape arithmetic (:func:`conv_output_hw`, :func:`pool_output_hw`) is
shared with the symbolic execution path so that symbolic and eager runs allocate
identical tensors.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError


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


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int,
           padding: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into ``(N * out_h * out_w, C * kernel_h * kernel_w)``.

    Column ordering matches a ``(C, kh, kw)`` flattening of the filter, so a
    convolution becomes ``cols @ weight.reshape(out_c, -1).T``.
    """
    batch, channels, height, width = x.shape
    out_h, out_w = conv_output_hw(height, width, kernel_h, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                   mode="constant")
    cols = np.empty((batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return cols


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel_h: int,
           kernel_w: int, stride: int, padding: int) -> np.ndarray:
    """Fold columns produced by :func:`im2col` back into an ``(N, C, H, W)`` array.

    Overlapping positions are summed, which is exactly the adjoint operation
    needed by the convolution input-gradient.
    """
    batch, channels, height, width = x_shape
    out_h, out_w = conv_output_hw(height, width, kernel_h, kernel_w, stride, padding)
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    x = np.zeros((batch, channels, padded_h, padded_w), dtype=cols.dtype)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            x[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        x = x[:, :, padding:padding + height, padding:padding + width]
    return x


def pool_im2col(x: np.ndarray, kernel: int, stride: int,
                padding: int = 0) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into pooling windows ``(N * C * out_h * out_w, kernel^2)``."""
    batch, channels, height, width = x.shape
    merged = x.reshape(batch * channels, 1, height, width)
    cols = im2col(merged, kernel, kernel, stride, padding)
    return cols


def pool_col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int,
                stride: int, padding: int = 0) -> np.ndarray:
    """Fold pooling windows back to the input shape, summing overlaps."""
    batch, channels, height, width = x_shape
    folded = col2im(cols, (batch * channels, 1, height, width), kernel, kernel,
                    stride, padding)
    return folded.reshape(batch, channels, height, width)
