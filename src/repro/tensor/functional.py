"""Dense, elementwise, loss and optimizer kernels.

Every function in this module behaves like one (or a small fixed number of)
device kernel launch(es):

1. the input storages are *read* (recorded as ``read`` behaviors),
2. the kernel executes for a duration given by the roofline timing model
   (advancing the simulated clock),
3. the output storage is *written* (recorded as a ``write`` behavior),
4. in eager mode the actual values are computed with NumPy.

Convolution, pooling and batch-normalization kernels live in
:mod:`repro.tensor.conv_ops`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.events import MemoryCategory
from ..device.device import Device
from ..device.timing import KernelCost, elementwise_cost, matmul_cost, reduction_cost
from ..errors import ShapeError
from .dtype import float32
from .tensor import Tensor, empty


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with fp32 accumulation for half-precision operands.

    NumPy has no BLAS path for ``float16`` matmul (it falls back to a scalar
    loop, orders of magnitude slower), and real mixed-precision GEMMs
    accumulate in fp32 anyway — so half inputs are upcast for the product.
    The caller's :func:`launch` casts the result back to the output dtype.
    """
    if a.dtype == np.float16 or b.dtype == np.float16:
        return np.matmul(a.astype(np.float32, copy=False),
                         b.astype(np.float32, copy=False))
    return np.matmul(a, b)


def launch(
    device: Device,
    op_name: str,
    cost: KernelCost,
    inputs: Sequence[Tensor],
    output: Tensor,
    compute: Optional[Callable[[], np.ndarray]] = None,
) -> Tensor:
    """Run one simulated kernel: record reads, advance time, record the write.

    ``compute`` is only invoked in eager mode; it must return the output
    values with any shape reshapeable to ``output.shape``.
    """
    for tensor in inputs:
        tensor.storage.record_read(op_name)
    device.run_kernel(cost)
    if device.is_eager and compute is not None:
        output.storage.set_buffer(np.asarray(compute(), dtype=output.dtype.numpy_dtype))
    output.storage.record_write(op_name)
    return output


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
    return launch(device, op_name, cost, [a, b], out,
                  compute=lambda: gemm(a.numpy(), b.numpy()))


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
    inputs = [x, weight] + ([bias] if bias is not None else [])

    def compute() -> np.ndarray:
        result = gemm(x.numpy(), weight.numpy())
        if bias is not None:
            result = result + bias.numpy()[None, :]
        return result

    return launch(device, "linear_forward", cost, inputs, out, compute=compute)


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
    return launch(device, "linear_backward_input", cost, [grad_output, weight], out,
                  compute=lambda: gemm(grad_output.numpy(), weight.numpy().T))


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

    def compute_weight() -> np.ndarray:
        return grad_weight.numpy() + gemm(x.numpy().T, grad_output.numpy())

    launch(device, "linear_backward_weight", cost, [x, grad_output, grad_weight],
           grad_weight, compute=compute_weight)

    if grad_bias is not None:
        bias_cost = reduction_cost(m * n, itemsize=grad_output.dtype.itemsize,
                                   name="linear_backward_bias")

        def compute_bias() -> np.ndarray:
            return grad_bias.numpy() + grad_output.numpy().sum(axis=0)

        launch(device, "linear_backward_bias", bias_cost, [grad_output, grad_bias],
               grad_bias, compute=compute_bias)


# -- elementwise operators ----------------------------------------------------------------


def add(a: Tensor, b: Tensor, tag: str = "add_out",
        category: MemoryCategory = MemoryCategory.ACTIVATION) -> Tensor:
    """Elementwise sum of two same-shape tensors (used by residual connections)."""
    device = _check_same_device(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes {a.shape} and {b.shape} differ")
    out = empty(device, a.shape, dtype=a.dtype, category=category, tag=tag)
    cost = elementwise_cost(a.numel, n_inputs=2, itemsize=a.dtype.itemsize, name="add")
    return launch(device, "add", cost, [a, b], out,
                  compute=lambda: a.numpy() + b.numpy())


def accumulate_(dst: Tensor, src: Tensor, op_name: str = "accumulate") -> Tensor:
    """In-place ``dst += src`` (gradient accumulation)."""
    device = _check_same_device(dst, src)
    if dst.shape != src.shape:
        raise ShapeError(f"accumulate shapes {dst.shape} and {src.shape} differ")
    cost = elementwise_cost(dst.numel, n_inputs=2, itemsize=dst.dtype.itemsize, name=op_name)
    return launch(device, op_name, cost, [dst, src], dst,
                  compute=lambda: dst.numpy() + src.numpy())


def scale(x: Tensor, alpha: float, tag: str = "scale_out",
          category: MemoryCategory = MemoryCategory.ACTIVATION) -> Tensor:
    """Elementwise multiplication by a scalar."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=category, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, itemsize=x.dtype.itemsize, name="scale")
    return launch(device, "scale", cost, [x], out, compute=lambda: x.numpy() * alpha)


def zero_(x: Tensor) -> Tensor:
    """In-place fill with zeros (``optimizer.zero_grad``)."""
    cost = elementwise_cost(x.numel, n_inputs=0, itemsize=x.dtype.itemsize, name="zero_")
    return launch(x.device, "zero_", cost, [], x,
                  compute=lambda: np.zeros(x.numel, dtype=x.dtype.numpy_dtype))


def relu_forward(x: Tensor, tag: str = "relu_out") -> Tensor:
    """Rectified linear unit."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, itemsize=x.dtype.itemsize, name="relu")
    return launch(device, "relu_forward", cost, [x], out,
                  compute=lambda: np.maximum(x.numpy(), 0.0))


def relu_backward(grad_output: Tensor, output: Tensor, tag: str = "relu_grad_in") -> Tensor:
    """Gradient of ReLU, using the saved forward output as the mask."""
    device = _check_same_device(grad_output, output)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2,
                            itemsize=grad_output.dtype.itemsize, name="relu_backward")
    return launch(device, "relu_backward", cost, [grad_output, output], out,
                  compute=lambda: grad_output.numpy() * (output.numpy() > 0))


def sigmoid_forward(x: Tensor, tag: str = "sigmoid_out") -> Tensor:
    """Logistic sigmoid."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, flops_per_element=4.0,
                            itemsize=x.dtype.itemsize, name="sigmoid")
    return launch(device, "sigmoid_forward", cost, [x], out,
                  compute=lambda: 1.0 / (1.0 + np.exp(-x.numpy())))


def sigmoid_backward(grad_output: Tensor, output: Tensor, tag: str = "sigmoid_grad_in") -> Tensor:
    """Gradient of sigmoid using the saved output: ``dy * y * (1 - y)``."""
    device = _check_same_device(grad_output, output)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2, flops_per_element=3.0,
                            itemsize=grad_output.dtype.itemsize, name="sigmoid_backward")

    def compute() -> np.ndarray:
        y = output.numpy()
        return grad_output.numpy() * y * (1.0 - y)

    return launch(device, "sigmoid_backward", cost, [grad_output, output], out, compute=compute)


def tanh_forward(x: Tensor, tag: str = "tanh_out") -> Tensor:
    """Hyperbolic tangent."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, flops_per_element=4.0,
                            itemsize=x.dtype.itemsize, name="tanh")
    return launch(device, "tanh_forward", cost, [x], out, compute=lambda: np.tanh(x.numpy()))


def tanh_backward(grad_output: Tensor, output: Tensor, tag: str = "tanh_grad_in") -> Tensor:
    """Gradient of tanh using the saved output: ``dy * (1 - y^2)``."""
    device = _check_same_device(grad_output, output)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2, flops_per_element=3.0,
                            itemsize=grad_output.dtype.itemsize, name="tanh_backward")

    def compute() -> np.ndarray:
        y = output.numpy()
        return grad_output.numpy() * (1.0 - y * y)

    return launch(device, "tanh_backward", cost, [grad_output, output], out, compute=compute)


def dropout_forward(x: Tensor, p: float, rng: np.random.Generator,
                    tag: str = "dropout_out") -> Tuple[Tensor, Tensor]:
    """Dropout with keep-probability ``1 - p``; returns (output, mask)."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    device = x.device
    mask = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION,
                 tag=f"{tag}_mask")
    mask_values = None
    if device.is_eager:
        mask_values = (rng.random(x.numel) >= p).astype(np.float32) / max(1e-8, (1.0 - p))
        mask.storage.set_buffer(mask_values)
    mask.storage.record_write("dropout_mask")
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=2, itemsize=x.dtype.itemsize, name="dropout")
    launch(device, "dropout_forward", cost, [x, mask], out,
           compute=lambda: x.numpy() * mask_values.reshape(x.shape))
    return out, mask


def dropout_backward(grad_output: Tensor, mask: Tensor, tag: str = "dropout_grad_in") -> Tensor:
    """Gradient of dropout: elementwise product with the saved mask."""
    device = _check_same_device(grad_output, mask)
    out = empty(device, grad_output.shape, dtype=grad_output.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(grad_output.numel, n_inputs=2,
                            itemsize=grad_output.dtype.itemsize, name="dropout_backward")
    return launch(device, "dropout_backward", cost, [grad_output, mask], out,
                  compute=lambda: grad_output.numpy() * mask.numpy())


# -- softmax and losses -------------------------------------------------------------------


def softmax(x: Tensor, tag: str = "softmax_out") -> Tensor:
    """Row-wise softmax of a 2-D tensor."""
    device = x.device
    out = empty(device, x.shape, dtype=x.dtype, category=MemoryCategory.ACTIVATION, tag=tag)
    cost = elementwise_cost(x.numel, n_inputs=1, flops_per_element=5.0,
                            itemsize=x.dtype.itemsize, name="softmax")

    def compute() -> np.ndarray:
        logits = x.numpy()
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    return launch(device, "softmax", cost, [x], out, compute=compute)


def cross_entropy_forward(logits: Tensor, labels: Tensor) -> Tuple[Tensor, Tensor]:
    """Softmax cross-entropy loss; returns (scalar loss, saved probabilities)."""
    device = _check_same_device(logits, labels)
    probs = softmax(logits, tag="ce_probs")
    loss = empty(device, (1,), dtype=float32, category=MemoryCategory.ACTIVATION, tag="ce_loss")
    cost = reduction_cost(logits.numel, itemsize=logits.dtype.itemsize, name="cross_entropy")

    def compute() -> np.ndarray:
        probabilities = probs.numpy()
        targets = labels.numpy().astype(np.int64).reshape(-1)
        batch = probabilities.shape[0]
        # Upcast before clipping: in float16 the 1e-12 floor underflows to 0
        # and log(0) would leak -inf into the loss.
        picked = probabilities[np.arange(batch), targets].astype(np.float64)
        return np.array([-np.log(np.clip(picked, 1e-12, None)).mean()], dtype=np.float32)

    launch(device, "cross_entropy_forward", cost, [probs, labels], loss, compute=compute)
    return loss, probs


def cross_entropy_backward(probs: Tensor, labels: Tensor,
                           tag: str = "ce_grad_logits") -> Tensor:
    """Gradient of softmax cross-entropy w.r.t. the logits: ``(p - onehot) / N``."""
    device = _check_same_device(probs, labels)
    out = empty(device, probs.shape, dtype=probs.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(probs.numel, n_inputs=2, itemsize=probs.dtype.itemsize,
                            name="cross_entropy_backward")

    def compute() -> np.ndarray:
        probabilities = probs.numpy()
        targets = labels.numpy().astype(np.int64).reshape(-1)
        batch = probabilities.shape[0]
        grad = probabilities.copy()
        grad[np.arange(batch), targets] -= 1.0
        return grad / batch

    return launch(device, "cross_entropy_backward", cost, [probs, labels], out, compute=compute)


def mse_forward(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean-squared-error loss between two same-shape tensors."""
    device = _check_same_device(prediction, target)
    if prediction.shape != target.shape:
        raise ShapeError(f"mse shapes {prediction.shape} and {target.shape} differ")
    loss = empty(device, (1,), dtype=float32, category=MemoryCategory.ACTIVATION, tag="mse_loss")
    cost = reduction_cost(prediction.numel, itemsize=prediction.dtype.itemsize, name="mse")

    def compute() -> np.ndarray:
        diff = prediction.numpy() - target.numpy()
        return np.array([float(np.mean(diff * diff))], dtype=np.float32)

    return launch(device, "mse_forward", cost, [prediction, target], loss, compute=compute)


def mse_backward(prediction: Tensor, target: Tensor, tag: str = "mse_grad") -> Tensor:
    """Gradient of MSE w.r.t. the prediction: ``2 (pred - target) / N``."""
    device = _check_same_device(prediction, target)
    out = empty(device, prediction.shape, dtype=prediction.dtype,
                category=MemoryCategory.ACTIVATION_GRADIENT, tag=tag)
    cost = elementwise_cost(prediction.numel, n_inputs=2,
                            itemsize=prediction.dtype.itemsize, name="mse_backward")

    def compute() -> np.ndarray:
        return 2.0 * (prediction.numpy() - target.numpy()) / prediction.numel

    return launch(device, "mse_backward", cost, [prediction, target], out, compute=compute)


# -- optimizer update kernels ------------------------------------------------------------


def sgd_step(param: Tensor, grad: Tensor, momentum_buffer: Optional[Tensor],
             lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """One SGD (optionally momentum) update, in-place on the parameter.

    Reads the parameter, its gradient and the momentum buffer (if any), and
    writes the parameter (and the momentum buffer), matching the memory
    behaviors of ``torch.optim.SGD``'s fused kernels.
    """
    device = _check_same_device(param, grad)
    inputs = (param, grad) if momentum_buffer is None else (param, grad, momentum_buffer)
    cost = elementwise_cost(param.numel, n_inputs=len(inputs), flops_per_element=4.0,
                            itemsize=param.dtype.itemsize, name="sgd_step")

    def compute_param() -> np.ndarray:
        values = param.numpy().reshape(-1)
        gradient = grad.numpy().reshape(-1)
        if weight_decay:
            gradient = gradient + weight_decay * values
        if momentum_buffer is not None and momentum:
            buf = momentum_buffer.numpy().reshape(-1)
            buf = momentum * buf + gradient
            momentum_buffer.storage.set_buffer(buf)
            update = buf
        else:
            update = gradient
        return values - lr * update

    launch(device, "sgd_step", cost, inputs, param, compute=compute_param)
    if momentum_buffer is not None:
        momentum_buffer.storage.record_write("sgd_step")


def adam_step(param: Tensor, grad: Tensor, exp_avg: Tensor, exp_avg_sq: Tensor,
              lr: float, beta1: float, beta2: float, eps: float, step: int,
              weight_decay: float = 0.0) -> None:
    """One Adam update, in-place on the parameter and its moment buffers."""
    device = _check_same_device(param, grad, exp_avg, exp_avg_sq)
    inputs = [param, grad, exp_avg, exp_avg_sq]
    cost = elementwise_cost(param.numel, n_inputs=len(inputs), flops_per_element=10.0,
                            itemsize=param.dtype.itemsize, name="adam_step")

    def compute_param() -> np.ndarray:
        values = param.numpy().reshape(-1)
        gradient = grad.numpy().reshape(-1)
        if weight_decay:
            gradient = gradient + weight_decay * values
        m = exp_avg.numpy().reshape(-1)
        v = exp_avg_sq.numpy().reshape(-1)
        m = beta1 * m + (1.0 - beta1) * gradient
        v = beta2 * v + (1.0 - beta2) * gradient * gradient
        exp_avg.storage.set_buffer(m)
        exp_avg_sq.storage.set_buffer(v)
        m_hat = m / (1.0 - beta1 ** step)
        v_hat = v / (1.0 - beta2 ** step)
        return values - lr * m_hat / (np.sqrt(v_hat) + eps)

    launch(device, "adam_step", cost, inputs, param, compute=compute_param)
    exp_avg.storage.record_write("adam_step")
    exp_avg_sq.storage.record_write("adam_step")
