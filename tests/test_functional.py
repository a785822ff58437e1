"""Memory contracts of the dense, elementwise, loss and optimizer kernels.

A kernel's contract is what it does to device memory: the storages it reads
and writes, in order (:class:`tests.helpers.BehaviorLog` rows), the shape,
dtype and category of what it allocates, and the clock advance its roofline
cost prices.
"""

import pytest

from repro.core.events import MemoryCategory
from repro.device.timing import elementwise_cost, matmul_cost, reduction_cost
from repro.errors import ShapeError
from repro.tensor import empty, float16, float32, int64, zeros
from repro.tensor import functional as F
from repro.tensor.shape_ops import concat_channels, split_channels

from tests.helpers import BehaviorLog

ACTIVATION = MemoryCategory.ACTIVATION
GRADIENT = MemoryCategory.ACTIVATION_GRADIENT


def operand(device, shape, tag, dtype=None):
    """An input tensor (its allocation happens before any log attaches)."""
    return empty(device, shape, dtype=dtype, tag=tag)


def priced(device, cost):
    """The clock advance ``cost`` prices on ``device``."""
    return device.timing.op_duration_ns(cost)


def layout(tensor):
    return tensor.shape, tensor.dtype, tensor.category


# -- dense ops ---------------------------------------------------------------------------


def test_matmul_reads_both_operands_and_writes_a_new_product(test_device):
    a, b = operand(test_device, (5, 7), "a"), operand(test_device, (7, 3), "b")
    log = BehaviorLog(test_device)
    out = F.matmul(a, b)
    assert log.rows == [("malloc", "matmul_out", None), ("read", "a", "matmul"),
                        ("read", "b", "matmul"), ("write", "matmul_out", "matmul")]
    assert layout(out) == ((5, 3), float32, ACTIVATION)
    assert log.kernel_ns("matmul", "matmul_out") == priced(
        test_device, matmul_cost(5, 7, 3, itemsize=4, name="matmul"))


def test_matmul_shape_mismatch_raises(test_device):
    a = zeros(test_device, (2, 3))
    b = zeros(test_device, (4, 5))
    with pytest.raises(ShapeError):
        F.matmul(a, b)


def test_linear_forward_reads_input_weight_and_bias(test_device):
    x = operand(test_device, (4, 6), "x")
    w = operand(test_device, (6, 2), "w")
    b = operand(test_device, (2,), "b")
    log = BehaviorLog(test_device)
    out = F.linear_forward(x, w, b)
    op = "linear_forward"
    assert log.rows == [("malloc", "linear_out", None), ("read", "x", op),
                        ("read", "w", op), ("read", "b", op),
                        ("write", "linear_out", op)]
    assert layout(out) == ((4, 2), float32, ACTIVATION)
    assert log.kernel_ns(op, "linear_out") == priced(
        test_device, matmul_cost(4, 6, 2, itemsize=4, name=op))


def test_linear_backward_accumulates_parameter_grads_then_allocates_the_input_grad(
        test_device):
    x = operand(test_device, (3, 4), "x")
    w = operand(test_device, (4, 2), "w")
    grad_out = operand(test_device, (3, 2), "dy")
    grad_w = operand(test_device, (4, 2), "dw")
    grad_b = operand(test_device, (2,), "db")
    log = BehaviorLog(test_device)
    F.linear_backward_params(x, grad_out, grad_w, grad_b)
    grad_x = F.linear_backward_input(grad_out, w)
    weight, bias, data = ("linear_backward_weight", "linear_backward_bias",
                          "linear_backward_input")
    assert log.rows == [
        ("read", "x", weight), ("read", "dy", weight), ("read", "dw", weight),
        ("write", "dw", weight),
        ("read", "dy", bias), ("read", "db", bias), ("write", "db", bias),
        ("malloc", "linear_grad_in", None),
        ("read", "dy", data), ("read", "w", data), ("write", "linear_grad_in", data),
    ]
    assert layout(grad_x) == ((3, 4), float32, GRADIENT)
    assert log.kernel_ns(weight, "dw") == priced(
        test_device, matmul_cost(4, 3, 2, itemsize=4, name=weight))
    assert log.kernel_ns(bias, "db") == priced(
        test_device, reduction_cost(6, itemsize=4, name=bias))
    assert log.kernel_ns(data, "linear_grad_in") == priced(
        test_device, matmul_cost(3, 2, 4, itemsize=4, name=data))


def test_parameter_gradients_accumulate_in_place(test_device):
    x = operand(test_device, (3, 4), "x")
    grad_out = operand(test_device, (3, 2), "dy")
    grad_w = operand(test_device, (4, 2), "dw")
    log = BehaviorLog(test_device)
    F.linear_backward_params(x, grad_out, grad_w, None)
    F.linear_backward_params(x, grad_out, grad_w, None)
    once = [("read", "x", "linear_backward_weight"),
            ("read", "dy", "linear_backward_weight"),
            ("read", "dw", "linear_backward_weight"),
            ("write", "dw", "linear_backward_weight")]
    assert log.rows == once + once


# -- elementwise -------------------------------------------------------------------------


def test_add_allocates_and_accumulate_writes_in_place(test_device):
    a, b = operand(test_device, (3, 3), "a"), operand(test_device, (3, 3), "b")
    log = BehaviorLog(test_device)
    total = F.add(a, b)
    F.accumulate_(a, b)
    assert log.rows == [("malloc", "add_out", None), ("read", "a", "add"),
                        ("read", "b", "add"), ("write", "add_out", "add"),
                        ("read", "a", "accumulate"), ("read", "b", "accumulate"),
                        ("write", "a", "accumulate")]
    assert layout(total) == ((3, 3), float32, ACTIVATION)
    cost = elementwise_cost(9, n_inputs=2, itemsize=4, name="add")
    assert log.kernel_ns("add", "add_out") == priced(test_device, cost)
    with pytest.raises(ShapeError):
        F.add(a, zeros(test_device, (2, 2)))


def test_scale_allocates_and_zero_writes_without_reading(test_device):
    a = operand(test_device, (4,), "a")
    log = BehaviorLog(test_device)
    scaled = F.scale(a, 2.5)
    F.zero_(a)
    assert log.rows == [("malloc", "scale_out", None), ("read", "a", "scale"),
                        ("write", "scale_out", "scale"), ("write", "a", "zero_")]
    assert layout(scaled) == ((4,), float32, ACTIVATION)
    assert log.kernel_ns("zero_", "a") == priced(
        test_device, elementwise_cost(4, n_inputs=0, itemsize=4, name="zero_"))


def test_relu_backward_reads_the_saved_output(test_device):
    x = operand(test_device, (2, 2), "x")
    grad = operand(test_device, (2, 2), "dy")
    log = BehaviorLog(test_device)
    y = F.relu_forward(x)
    grad_x = F.relu_backward(grad, y)
    assert log.rows == [
        ("malloc", "relu_out", None), ("read", "x", "relu_forward"),
        ("write", "relu_out", "relu_forward"),
        ("malloc", "relu_grad_in", None), ("read", "dy", "relu_backward"),
        ("read", "relu_out", "relu_backward"), ("write", "relu_grad_in", "relu_backward"),
    ]
    assert layout(y) == ((2, 2), float32, ACTIVATION)
    assert layout(grad_x) == ((2, 2), float32, GRADIENT)


@pytest.mark.parametrize("name", ["sigmoid", "tanh"])
def test_saturating_activations_price_four_flops_forward_three_backward(
        test_device, name):
    forward = getattr(F, f"{name}_forward")
    backward = getattr(F, f"{name}_backward")
    x = operand(test_device, (5,), "x")
    grad = operand(test_device, (5,), "dy")
    log = BehaviorLog(test_device)
    y = forward(x)
    grad_x = backward(grad, y)
    assert log.rows == [
        ("malloc", f"{name}_out", None), ("read", "x", f"{name}_forward"),
        ("write", f"{name}_out", f"{name}_forward"),
        ("malloc", f"{name}_grad_in", None), ("read", "dy", f"{name}_backward"),
        ("read", f"{name}_out", f"{name}_backward"),
        ("write", f"{name}_grad_in", f"{name}_backward"),
    ]
    assert layout(grad_x) == ((5,), float32, GRADIENT)
    assert log.kernel_ns(f"{name}_forward", f"{name}_out") == priced(
        test_device, elementwise_cost(5, n_inputs=1, flops_per_element=4.0,
                                      itemsize=4, name=name))
    assert log.kernel_ns(f"{name}_backward", f"{name}_grad_in") == priced(
        test_device, elementwise_cost(5, n_inputs=2, flops_per_element=3.0,
                                      itemsize=4, name=f"{name}_backward"))


def test_dropout_writes_a_mask_that_lives_until_backward(test_device):
    x = operand(test_device, (1000,), "x")
    grad = operand(test_device, (1000,), "dy")
    log = BehaviorLog(test_device)
    out, mask = F.dropout_forward(x, p=0.5)
    grad_x = F.dropout_backward(grad, mask)
    assert log.rows == [
        ("malloc", "dropout_out_mask", None), ("write", "dropout_out_mask", "dropout_mask"),
        ("malloc", "dropout_out", None), ("read", "x", "dropout_forward"),
        ("read", "dropout_out_mask", "dropout_forward"),
        ("write", "dropout_out", "dropout_forward"),
        ("malloc", "dropout_grad_in", None), ("read", "dy", "dropout_backward"),
        ("read", "dropout_out_mask", "dropout_backward"),
        ("write", "dropout_grad_in", "dropout_backward"),
    ]
    assert layout(mask) == ((1000,), float32, ACTIVATION)
    assert layout(out) == ((1000,), float32, ACTIVATION)
    assert layout(grad_x) == ((1000,), float32, GRADIENT)


def test_dropout_rejects_bad_probability(test_device):
    x = zeros(test_device, (4,))
    with pytest.raises(ShapeError):
        F.dropout_forward(x, p=1.0)


# -- softmax / losses ----------------------------------------------------------------------


def test_softmax_reads_the_logits_once(test_device):
    x = operand(test_device, (6, 10), "logits")
    log = BehaviorLog(test_device)
    probs = F.softmax(x)
    assert log.rows == [("malloc", "softmax_out", None), ("read", "logits", "softmax"),
                        ("write", "softmax_out", "softmax")]
    assert layout(probs) == ((6, 10), float32, ACTIVATION)
    assert log.kernel_ns("softmax", "softmax_out") == priced(
        test_device, elementwise_cost(60, n_inputs=1, flops_per_element=5.0,
                                      itemsize=4, name="softmax"))


def test_cross_entropy_keeps_its_probabilities_and_a_float32_loss(test_device):
    """Half-precision logits give half-precision probabilities and gradient,
    but the loss scalar is float32."""
    logits = operand(test_device, (4, 3), "logits", dtype=float16)
    labels = operand(test_device, (4,), "labels", dtype=int64)
    log = BehaviorLog(test_device)
    loss, probs = F.cross_entropy_forward(logits, labels)
    grad = F.cross_entropy_backward(probs, labels)
    forward, backward = "cross_entropy_forward", "cross_entropy_backward"
    assert log.rows == [
        ("malloc", "ce_probs", None), ("read", "logits", "softmax"),
        ("write", "ce_probs", "softmax"),
        ("malloc", "ce_loss", None), ("read", "ce_probs", forward),
        ("read", "labels", forward), ("write", "ce_loss", forward),
        ("malloc", "ce_grad_logits", None), ("read", "ce_probs", backward),
        ("read", "labels", backward), ("write", "ce_grad_logits", backward),
    ]
    assert layout(loss) == ((1,), float32, ACTIVATION)
    assert layout(probs) == ((4, 3), float16, ACTIVATION)
    assert layout(grad) == ((4, 3), float16, GRADIENT)
    assert log.kernel_ns(forward, "ce_loss") == priced(
        test_device, reduction_cost(12, itemsize=2, name="cross_entropy"))


def test_mse_forward_and_backward(test_device):
    prediction = operand(test_device, (3,), "prediction")
    target = operand(test_device, (3,), "target")
    log = BehaviorLog(test_device)
    loss = F.mse_forward(prediction, target)
    grad = F.mse_backward(prediction, target)
    assert log.rows == [
        ("malloc", "mse_loss", None), ("read", "prediction", "mse_forward"),
        ("read", "target", "mse_forward"), ("write", "mse_loss", "mse_forward"),
        ("malloc", "mse_grad", None), ("read", "prediction", "mse_backward"),
        ("read", "target", "mse_backward"), ("write", "mse_grad", "mse_backward"),
    ]
    assert layout(loss) == ((1,), float32, ACTIVATION)
    assert layout(grad) == ((3,), float32, GRADIENT)
    with pytest.raises(ShapeError):
        F.mse_forward(prediction, zeros(test_device, (4,)))


# -- optimizer kernels -----------------------------------------------------------------------


def test_sgd_step_without_momentum(test_device):
    param, grad = operand(test_device, (2,), "w"), operand(test_device, (2,), "dw")
    log = BehaviorLog(test_device)
    F.sgd_step(param, grad, None)
    assert log.rows == [("read", "w", "sgd_step"), ("read", "dw", "sgd_step"),
                        ("write", "w", "sgd_step")]
    assert log.kernel_ns("sgd_step", "w") == priced(
        test_device, elementwise_cost(2, n_inputs=2, flops_per_element=4.0,
                                      itemsize=4, name="sgd_step"))


def test_sgd_step_with_momentum_also_writes_the_buffer(test_device):
    param, grad = operand(test_device, (2,), "w"), operand(test_device, (2,), "dw")
    buffer = operand(test_device, (2,), "momentum")
    log = BehaviorLog(test_device)
    F.sgd_step(param, grad, buffer)
    assert log.rows == [("read", "w", "sgd_step"), ("read", "dw", "sgd_step"),
                        ("read", "momentum", "sgd_step"), ("write", "w", "sgd_step"),
                        ("write", "momentum", "sgd_step")]
    assert log.kernel_ns("sgd_step", "w") == priced(
        test_device, elementwise_cost(2, n_inputs=3, flops_per_element=4.0,
                                      itemsize=4, name="sgd_step"))


def test_adam_step_reads_four_buffers_and_writes_three(test_device):
    param, grad = operand(test_device, (2,), "w"), operand(test_device, (2,), "dw")
    m, v = operand(test_device, (2,), "m"), operand(test_device, (2,), "v")
    log = BehaviorLog(test_device)
    F.adam_step(param, grad, m, v)
    assert log.rows == [("read", "w", "adam_step"), ("read", "dw", "adam_step"),
                        ("read", "m", "adam_step"), ("read", "v", "adam_step"),
                        ("write", "w", "adam_step"), ("write", "m", "adam_step"),
                        ("write", "v", "adam_step")]
    assert log.kernel_ns("adam_step", "w") == priced(
        test_device, elementwise_cost(2, n_inputs=4, flops_per_element=10.0,
                                      itemsize=4, name="adam_step"))


# -- shape ops --------------------------------------------------------------------------------


def test_concat_and_split_channels(test_device):
    a = operand(test_device, (2, 3, 4, 4), "a")
    b = operand(test_device, (2, 5, 4, 4), "b")
    log = BehaviorLog(test_device)
    merged = concat_channels([a, b])
    pieces = split_channels(merged, [3, 5])
    concat, split = "concat_channels", "split_channels"
    assert log.rows == [
        ("malloc", "concat_out", None), ("read", "a", concat), ("read", "b", concat),
        ("write", "concat_out", concat),
        ("malloc", "split_grad_0", None), ("read", "concat_out", split),
        ("write", "split_grad_0", split),
        ("malloc", "split_grad_1", None), ("read", "concat_out", split),
        ("write", "split_grad_1", split),
    ]
    assert layout(merged) == ((2, 8, 4, 4), float32, ACTIVATION)
    assert [layout(piece) for piece in pieces] == [((2, 3, 4, 4), float32, GRADIENT),
                                                   ((2, 5, 4, 4), float32, GRADIENT)]
    with pytest.raises(ShapeError):
        split_channels(merged, [4, 5])
    with pytest.raises(ShapeError):
        concat_channels([])
