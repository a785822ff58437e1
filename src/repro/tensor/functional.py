"""Dense, elementwise, loss and optimizer kernels.

Every function in this module behaves like one (or a small fixed number of)
device kernel launch(es), each one :meth:`~repro.device.device.Device.run_kernel`
call naming the kernel's operands:

1. the input storages are *read* (recorded as ``read`` behaviors),
2. the kernel executes for a duration given by the roofline timing model
   (advancing the simulated clock),
3. the output storages are *written* (recorded as ``write`` behaviors).

No values are computed: the behaviors and their timing depend on shapes only.

Convolution, pooling and batch-normalization kernels live in
:mod:`repro.tensor.conv_ops`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.events import MemoryCategory
from ..device.device import Device
from ..device.timing import elementwise_cost, matmul_cost, reduction_cost
from ..errors import ShapeError
from .dtype import float32
from .tensor import Tensor, empty


def _check_same_device(*tensors: Tensor) -> Device:
    device = tensors[0].device
    for tensor in tensors[1:]:
        if tensor.device is not device:
            raise ShapeError("all operands must live on the same device")
    return device


# -- dense linear algebra -----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, category: MemoryCategory = MemoryCategory.ACTIVATION,
           tag: str = "", op_name: str = "matmul") -> Tensor:
    """Dense ``(m, k) @ (k, n)`` matrix product."""
    device = _check_same_device(a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} are incompatible")
    m, k = a.shape
    n = b.shape[1]
    out = empty(device, (m, n), dtype=a.dtype, category=category, tag=tag or "matmul_out")
    cost = matmul_cost(m, k, n, itemsize=a.dtype.itemsize, name=op_name)
    device.run_kernel(op_name, cost, (a, b), (out,))
    return out


def linear_forward(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                   tag: str = "linear_out") -> Tensor:
    """Fully connected layer: ``y = x @ W + b`` with ``W`` of shape ``(in, out)``."""
    device = _check_same_device(x, weight)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear shapes {x.shape} and {weight.shape} are incompatible")
    m, k = x.shape
    n = weight.shape[1]
    out = empty(device, (m, n), dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = matmul_cost(m, k, n, itemsize=x.dtype.itemsize, name="linear_forward")
    device.run_kernel("linear_forward", cost,
                      (x, weight) if bias is None else (x, weight, bias), (out,))
    return out


def linear_backward_input(grad_output: Tensor, weight: Tensor,
                          tag: str = "linear_grad_in") -> Tensor:
    """Gradient w.r.t. the input of a linear layer: ``dX = dY @ W^T``."""
    device = _check_same_device(grad_output, weight)
    m, n = grad_output.shape
    k = weight.shape[0]
    out = empty(device, (m, k), dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = matmul_cost(m, n, k, itemsize=grad_output.dtype.itemsize,
                       name="linear_backward_input")
    device.run_kernel("linear_backward_input", cost, (grad_output, weight), (out,))
    return out


def linear_backward_params(x: Tensor, grad_output: Tensor, grad_weight: Tensor,
                           grad_bias: Optional[Tensor] = None) -> None:
    """Accumulate parameter gradients of a linear layer into persistent buffers.

    ``dW += X^T @ dY`` and ``db += sum(dY, axis=0)``; the gradient tensors are
    read (they accumulate) and written, mirroring PyTorch's grad accumulation.
    """
    device = _check_same_device(x, grad_output, grad_weight)
    m, k = x.shape
    n = grad_output.shape[1]
    cost = matmul_cost(k, m, n, itemsize=x.dtype.itemsize, name="linear_backward_weight")
    device.run_kernel("linear_backward_weight", cost, (x, grad_output, grad_weight),
                      (grad_weight,))

    if grad_bias is not None:
        bias_cost = reduction_cost(m * n, itemsize=grad_output.dtype.itemsize,
                                   name="linear_backward_bias")
        device.run_kernel("linear_backward_bias", bias_cost, (grad_output, grad_bias),
                          (grad_bias,))


# -- elementwise operators ----------------------------------------------------------------


def add(a: Tensor, b: Tensor, tag: str = "add_out",
        category: MemoryCategory = MemoryCategory.ACTIVATION) -> Tensor:
    """Elementwise sum of two same-shape tensors (used by residual connections)."""
    device = _check_same_device(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes {a.shape} and {b.shape} differ")
    out = empty(device, a.shape, dtype=a.dtype, category=category, tag=tag)
    cost = elementwise_cost(a.numel, n_inputs=2, itemsize=a.dtype.itemsize, name="add")
    device.run_kernel("add", cost, (a, b), (out,))
    return out


def accumulate_(dst: Tensor, src: Tensor, op_name: str = "accumulate") -> Tensor:
    """In-place ``dst += src`` (gradient accumulation)."""
    device = _check_same_device(dst, src)
    if dst.shape != src.shape:
        raise ShapeError(f"accumulate shapes {dst.shape} and {src.shape} differ")
    cost = elementwise_cost(dst.numel, n_inputs=2, itemsize=dst.dtype.itemsize, name=op_name)
    device.run_kernel(op_name, cost, (dst, src), (dst,))
    return dst


def scale(x: Tensor, alpha: float, tag: str = "scale_out",
          category: MemoryCategory = MemoryCategory.ACTIVATION) -> Tensor:
    """Elementwise multiplication by a scalar."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=category, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, itemsize=x.dtype.itemsize, name="scale")
    device.run_kernel("scale", cost, (x,), (out,))
    return out


def zero_(x: Tensor) -> Tensor:
    """In-place fill with zeros (``optimizer.zero_grad``)."""
    cost = elementwise_cost(x.numel, n_inputs=0, itemsize=x.dtype.itemsize, name="zero_")
    x.device.run_kernel("zero_", cost, (), (x,))
    return x


def relu_forward(x: Tensor, tag: str = "relu_out") -> Tensor:
    """Rectified linear unit."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, itemsize=x.dtype.itemsize, name="relu")
    device.run_kernel("relu_forward", cost, (x,), (out,))
    return out


def relu_backward(grad_output: Tensor, output: Tensor, tag: str = "relu_grad_in") -> Tensor:
    """Gradient of ReLU, using the saved forward output as the mask."""
    device = _check_same_device(grad_output, output)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2,
                            itemsize=grad_output.dtype.itemsize, name="relu_backward")
    device.run_kernel("relu_backward", cost, (grad_output, output), (out,))
    return out


def sigmoid_forward(x: Tensor, tag: str = "sigmoid_out") -> Tensor:
    """Logistic sigmoid."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, flops_per_element=4.0,
                            itemsize=x.dtype.itemsize, name="sigmoid")
    device.run_kernel("sigmoid_forward", cost, (x,), (out,))
    return out


def sigmoid_backward(grad_output: Tensor, output: Tensor, tag: str = "sigmoid_grad_in") -> Tensor:
    """Gradient of sigmoid using the saved output: ``dy * y * (1 - y)``."""
    device = _check_same_device(grad_output, output)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2, flops_per_element=3.0,
                            itemsize=grad_output.dtype.itemsize, name="sigmoid_backward")
    device.run_kernel("sigmoid_backward", cost, (grad_output, output), (out,))
    return out


def tanh_forward(x: Tensor, tag: str = "tanh_out") -> Tensor:
    """Hyperbolic tangent."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, flops_per_element=4.0,
                            itemsize=x.dtype.itemsize, name="tanh")
    device.run_kernel("tanh_forward", cost, (x,), (out,))
    return out


def tanh_backward(grad_output: Tensor, output: Tensor, tag: str = "tanh_grad_in") -> Tensor:
    """Gradient of tanh using the saved output: ``dy * (1 - y^2)``."""
    device = _check_same_device(grad_output, output)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2, flops_per_element=3.0,
                            itemsize=grad_output.dtype.itemsize, name="tanh_backward")
    device.run_kernel("tanh_backward", cost, (grad_output, output), (out,))
    return out


def dropout_forward(x: Tensor, p: float,
                    tag: str = "dropout_out") -> Tuple[Tensor, Tensor]:
    """Dropout with keep-probability ``1 - p``; returns (output, mask)."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    device = x.device
    mask = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION,
                 tag=f"{tag}_mask")
    mask.storage.record_write("dropout_mask")
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=2, itemsize=x.dtype.itemsize, name="dropout")
    device.run_kernel("dropout_forward", cost, (x, mask), (out,))
    return out, mask


def dropout_backward(grad_output: Tensor, mask: Tensor, tag: str = "dropout_grad_in") -> Tensor:
    """Gradient of dropout: elementwise product with the saved mask."""
    device = _check_same_device(grad_output, mask)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2,
                            itemsize=grad_output.dtype.itemsize, name="dropout_backward")
    device.run_kernel("dropout_backward", cost, (grad_output, mask), (out,))
    return out


# -- softmax and losses -------------------------------------------------------------------


def softmax(x: Tensor, tag: str = "softmax_out") -> Tensor:
    """Row-wise softmax of a 2-D tensor."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, flops_per_element=5.0,
                            itemsize=x.dtype.itemsize, name="softmax")
    device.run_kernel("softmax", cost, (x,), (out,))
    return out


def cross_entropy_forward(logits: Tensor, labels: Tensor) -> Tuple[Tensor, Tensor]:
    """Softmax cross-entropy loss; returns (scalar loss, saved probabilities)."""
    device = _check_same_device(logits, labels)
    probs = softmax(logits, tag="ce_probs")
    loss = empty(device, (1,), dtype=float32, category=MemoryCategory.ACTIVATION, tag="ce_loss")
    cost = reduction_cost(logits.numel, itemsize=logits.dtype.itemsize, name="cross_entropy")
    device.run_kernel("cross_entropy_forward", cost, (probs, labels), (loss,))
    return loss, probs


def cross_entropy_backward(probs: Tensor, labels: Tensor,
                           tag: str = "ce_grad_logits") -> Tensor:
    """Gradient of softmax cross-entropy w.r.t. the logits: ``(p - onehot) / N``."""
    device = _check_same_device(probs, labels)
    out = empty(device, probs.shape, dtype=probs.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(probs.numel, n_inputs=2, itemsize=probs.dtype.itemsize,
                            name="cross_entropy_backward")
    device.run_kernel("cross_entropy_backward", cost, (probs, labels), (out,))
    return out


def mse_forward(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean-squared-error loss between two same-shape tensors."""
    device = _check_same_device(prediction, target)
    if prediction.shape != target.shape:
        raise ShapeError(f"mse shapes {prediction.shape} and {target.shape} differ")
    loss = empty(device, (1,), dtype=float32, category=MemoryCategory.ACTIVATION, tag="mse_loss")
    cost = reduction_cost(prediction.numel, itemsize=prediction.dtype.itemsize, name="mse")
    device.run_kernel("mse_forward", cost, (prediction, target), (loss,))
    return loss


def mse_backward(prediction: Tensor, target: Tensor, tag: str = "mse_grad") -> Tensor:
    """Gradient of MSE w.r.t. the prediction: ``2 (pred - target) / N``."""
    device = _check_same_device(prediction, target)
    out = empty(device, prediction.shape, dtype=prediction.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(prediction.numel, n_inputs=2,
                            itemsize=prediction.dtype.itemsize, name="mse_backward")
    device.run_kernel("mse_backward", cost, (prediction, target), (out,))
    return out


# -- optimizer update kernels ------------------------------------------------------------


def sgd_step(param: Tensor, grad: Tensor, momentum_buffer: Optional[Tensor]) -> None:
    """One SGD (optionally momentum) update, in-place on the parameter.

    Reads the parameter, its gradient and the momentum buffer (if any), and
    writes the parameter (and the momentum buffer), matching the memory
    behaviors of ``torch.optim.SGD``'s fused kernels.
    """
    device = _check_same_device(param, grad)
    inputs = (param, grad) if momentum_buffer is None else (param, grad, momentum_buffer)
    cost = elementwise_cost(param.numel, n_inputs=len(inputs), flops_per_element=4.0,
                            itemsize=param.dtype.itemsize, name="sgd_step")
    device.run_kernel("sgd_step", cost, inputs,
                      (param,) if momentum_buffer is None else (param, momentum_buffer))


def adam_step(param: Tensor, grad: Tensor, exp_avg: Tensor, exp_avg_sq: Tensor) -> None:
    """One Adam update, in-place on the parameter and its moment buffers."""
    device = _check_same_device(param, grad, exp_avg, exp_avg_sq)
    cost = elementwise_cost(param.numel, n_inputs=4, flops_per_element=10.0,
                            itemsize=param.dtype.itemsize, name="adam_step")
    device.run_kernel("adam_step", cost, (param, grad, exp_avg, exp_avg_sq),
                      (param, exp_avg, exp_avg_sq))
