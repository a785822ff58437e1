"""Memory contracts of the convolution, pooling and batch-norm kernels.

What each kernel reads and writes, in order, what it allocates (the
convolution workspace included, freed right after its kernel) and the clock
advance its cost prices — see :class:`tests.helpers.BehaviorLog`.
"""

import pytest

from repro.core.events import MemoryCategory
from repro.device import Device, small_test_device
from repro.device.timing import conv2d_cost, elementwise_cost
from repro.errors import ShapeError
from repro.tensor import conv_ops as C
from repro.tensor import empty, float16, float32, zeros
from repro.tensor.conv_ops import conv_output_hw

from tests.helpers import BehaviorLog

ACTIVATION = MemoryCategory.ACTIVATION
GRADIENT = MemoryCategory.ACTIVATION_GRADIENT


def operand(device, shape, tag):
    """An input tensor (its allocation happens before any log attaches)."""
    return empty(device, shape, tag=tag)


def priced(device, cost):
    """The clock advance ``cost`` prices on ``device``."""
    return device.timing.op_duration_ns(cost)


def layout(tensor):
    return tensor.shape, tensor.dtype, tensor.category


def test_conv_output_hw():
    assert conv_output_hw(32, 32, 3, 3, 1, 1) == (32, 32)
    assert conv_output_hw(224, 224, 7, 7, 2, 3) == (112, 112)
    with pytest.raises(ShapeError):
        conv_output_hw(2, 2, 5, 5, 1, 0)


# -- convolution --------------------------------------------------------------------------------


@pytest.mark.parametrize("stride,padding,out_hw", [(1, 1, 8), (2, 1, 4), (1, 0, 6)])
def test_conv2d_forward_touches_a_transient_workspace(test_device, stride, padding,
                                                      out_hw):
    x = operand(test_device, (2, 3, 8, 8), "x")
    w = operand(test_device, (4, 3, 3, 3), "w")
    b = operand(test_device, (4,), "b")
    log = BehaviorLog(test_device)
    out = C.conv2d_forward(x, w, b, stride=stride, padding=padding)
    op, workspace = "conv2d_forward", "conv2d_forward_workspace"
    assert log.rows == [
        ("malloc", "conv_out", None), ("malloc", workspace, None),
        ("write", workspace, op),
        ("read", "x", op), ("read", "w", op), ("read", "b", op), ("read", workspace, op),
        ("write", "conv_out", op), ("free", workspace, None),
    ]
    assert layout(out) == ((2, 4, out_hw, out_hw), float32, ACTIVATION)
    assert log.kernel_ns(op, "conv_out") == priced(
        test_device, conv2d_cost(2, 3, 4, out_hw, out_hw, 3, 3, itemsize=4, name=op))


def test_conv2d_channel_mismatch_raises(test_device):
    x = zeros(test_device, (1, 3, 8, 8))
    w = zeros(test_device, (4, 5, 3, 3))
    with pytest.raises(ShapeError):
        C.conv2d_forward(x, w, None, stride=1, padding=1)


def test_conv2d_backward_input_allocates_the_input_gradient(test_device):
    grad_output = operand(test_device, (1, 3, 5, 5), "dy")
    weight = operand(test_device, (3, 2, 3, 3), "w")
    log = BehaviorLog(test_device)
    grad_input = C.conv2d_backward_input(grad_output, weight, (1, 2, 5, 5), stride=1,
                                         padding=1)
    op, workspace = "conv2d_backward_input", "conv2d_backward_input_workspace"
    assert log.rows == [
        ("malloc", "conv_grad_in", None), ("malloc", workspace, None),
        ("write", workspace, op),
        ("read", "dy", op), ("read", "w", op), ("read", workspace, op),
        ("write", "conv_grad_in", op), ("free", workspace, None),
    ]
    assert layout(grad_input) == ((1, 2, 5, 5), float32, GRADIENT)
    assert log.kernel_ns(op, "conv_grad_in") == priced(
        test_device, conv2d_cost(1, 2, 3, 5, 5, 3, 3, itemsize=4, name=op))


def test_conv2d_backward_params_accumulates_in_place(test_device):
    x = operand(test_device, (2, 2, 6, 6), "x")
    grad_out = operand(test_device, (2, 3, 6, 6), "dy")
    grad_w = operand(test_device, (3, 2, 3, 3), "dw")
    grad_b = operand(test_device, (3,), "db")
    log = BehaviorLog(test_device)
    C.conv2d_backward_params(x, grad_out, grad_w, grad_b, stride=1, padding=1)
    C.conv2d_backward_params(x, grad_out, grad_w, grad_b, stride=1, padding=1)
    weight, bias = "conv2d_backward_weight", "conv2d_backward_bias"
    workspace = "conv2d_backward_weight_workspace"
    once = [
        ("malloc", workspace, None), ("write", workspace, weight),
        ("read", "x", weight), ("read", "dy", weight), ("read", "dw", weight),
        ("read", workspace, weight), ("write", "dw", weight), ("free", workspace, None),
        ("read", "dy", bias), ("read", "db", bias), ("write", "db", bias),
    ]
    assert log.rows == once + once
    assert log.kernel_ns(bias, "db") == priced(
        test_device, elementwise_cost(216, n_inputs=2, itemsize=4, name=bias))


def test_conv2d_workspace_is_freed(test_device):
    allocated_before = test_device.place().stats.allocated_bytes
    x = operand(test_device, (1, 3, 8, 8), "x")
    w = operand(test_device, (4, 3, 3, 3), "w")
    out = C.conv2d_forward(x, w, None, stride=1, padding=1)
    # Only x, w and the output should remain allocated (workspace freed).
    expected_live = x.nbytes + w.nbytes + out.nbytes
    allocated = test_device.place().stats.allocated_bytes
    assert allocated - allocated_before <= expected_live + 1024


class _Sizes:
    """The requested bytes of every malloc from here on, by tag."""

    def __init__(self, device):
        self.requests, self.first = device.requests, len(device.requests)

    @property
    def bytes(self):
        requests = self.requests
        return dict(zip(requests.tag[self.first:], requests.nbytes[self.first:]))


@pytest.mark.parametrize("batch,capped", [(8, False), (32, True)])
def test_conv2d_workspace_is_the_im2col_buffer_capped_at_64_mib(test_device, batch,
                                                                capped):
    x = operand(test_device, (batch, 64, 32, 32), "x")
    w = operand(test_device, (8, 64, 3, 3), "w")
    sizes = _Sizes(test_device)
    C.conv2d_forward(x, w, None, stride=1, padding=1)
    im2col = batch * 64 * 3 * 3 * 32 * 32 * 4
    assert (im2col > C.WORKSPACE_LIMIT_BYTES) is capped
    assert sizes.bytes["conv2d_forward_workspace"] == min(im2col,
                                                          C.WORKSPACE_LIMIT_BYTES)


def test_conv2d_in_half_precision_halves_its_output_and_workspace(test_device):
    half = Device(small_test_device(), default_dtype="float16")
    byte_counts = []
    for device in (test_device, half):
        x = operand(device, (2, 3, 8, 8), "x")
        w = operand(device, (4, 3, 3, 3), "w")
        sizes = _Sizes(device)
        out = C.conv2d_forward(x, w, None, stride=1, padding=1)
        byte_counts.append((sizes.bytes["conv_out"],
                            sizes.bytes["conv2d_forward_workspace"]))
    assert out.dtype is float16
    (full_out, full_workspace), (half_out, half_workspace) = byte_counts
    assert (2 * half_out, 2 * half_workspace) == (full_out, full_workspace)


# -- pooling -------------------------------------------------------------------------------------


def test_maxpool_saves_indices_for_backward(test_device):
    x = operand(test_device, (1, 1, 4, 4), "x")
    grad = operand(test_device, (1, 1, 2, 2), "dy")
    log = BehaviorLog(test_device)
    out, indices = C.maxpool2d_forward(x, kernel=2, stride=2)
    grad_x = C.maxpool2d_backward(grad, indices, x.shape)
    forward, backward = "maxpool2d_forward", "maxpool2d_backward"
    assert log.rows == [
        ("malloc", "maxpool_out", None), ("malloc", "maxpool_out_indices", None),
        ("read", "x", forward), ("write", "maxpool_out", forward),
        ("write", "maxpool_out_indices", forward),
        ("malloc", "maxpool_grad_in", None), ("read", "dy", backward),
        ("read", "maxpool_out_indices", backward), ("write", "maxpool_grad_in", backward),
    ]
    assert layout(out) == ((1, 1, 2, 2), float32, ACTIVATION)
    assert layout(indices) == ((1, 1, 2, 2), float32, ACTIVATION)
    assert layout(grad_x) == ((1, 1, 4, 4), float32, GRADIENT)


def test_avgpool_forward_and_backward(test_device):
    x = operand(test_device, (1, 2, 4, 4), "x")
    grad = operand(test_device, (1, 2, 2, 2), "dy")
    log = BehaviorLog(test_device)
    out = C.avgpool2d_forward(x, kernel=2, stride=2)
    grad_x = C.avgpool2d_backward(grad, x.shape)
    assert log.rows == [
        ("malloc", "avgpool_out", None), ("read", "x", "avgpool2d_forward"),
        ("write", "avgpool_out", "avgpool2d_forward"),
        ("malloc", "avgpool_grad_in", None), ("read", "dy", "avgpool2d_backward"),
        ("write", "avgpool_grad_in", "avgpool2d_backward"),
    ]
    assert layout(out) == ((1, 2, 2, 2), float32, ACTIVATION)
    assert layout(grad_x) == ((1, 2, 4, 4), float32, GRADIENT)


def test_global_avg_pool(test_device):
    x = operand(test_device, (2, 3, 5, 5), "x")
    grad = operand(test_device, (2, 3, 1, 1), "dy")
    log = BehaviorLog(test_device)
    out = C.global_avg_pool_forward(x)
    grad_x = C.global_avg_pool_backward(grad, x.shape)
    forward, backward = "global_avg_pool_forward", "global_avg_pool_backward"
    assert log.rows == [
        ("malloc", "gap_out", None), ("read", "x", forward), ("write", "gap_out", forward),
        ("malloc", "gap_grad_in", None), ("read", "dy", backward),
        ("write", "gap_grad_in", backward),
    ]
    assert layout(out) == ((2, 3, 1, 1), float32, ACTIVATION)
    assert layout(grad_x) == ((2, 3, 5, 5), float32, GRADIENT)
    assert log.kernel_ns(backward, "gap_grad_in") == priced(
        test_device, elementwise_cost(150, n_inputs=1, itemsize=4, name=backward))


# -- batch normalization -----------------------------------------------------------------------------


def _batchnorm_operands(device, channels):
    return (operand(device, (8, channels, 6, 6), "x"), operand(device, (channels,), "gamma"),
            operand(device, (channels,), "beta"), operand(device, (channels,), "mean"),
            operand(device, (channels,), "var"))


def test_batchnorm_forward_saves_statistics_and_updates_running_ones(test_device):
    x, gamma, beta, running_mean, running_var = _batchnorm_operands(test_device, 4)
    log = BehaviorLog(test_device)
    out, save_mean, save_invstd = C.batchnorm2d_forward(
        x, gamma, beta, running_mean, running_var, training=True)
    op = "batchnorm2d_forward"
    assert log.rows == [
        ("malloc", "bn_out", None), ("malloc", "bn_out_mean", None),
        ("malloc", "bn_out_invstd", None),
        ("read", "x", op), ("read", "gamma", op), ("read", "beta", op),
        ("write", "bn_out", op), ("write", "bn_out_mean", op),
        ("write", "bn_out_invstd", op),
        ("read", "mean", op), ("read", "var", op), ("write", "mean", op),
        ("write", "var", op),
    ]
    assert layout(out) == ((8, 4, 6, 6), float32, ACTIVATION)
    assert layout(save_mean) == layout(save_invstd) == ((4,), float32, ACTIVATION)
    assert log.kernel_ns(op, "bn_out") == priced(
        test_device, elementwise_cost(1152, n_inputs=2, flops_per_element=5.0,
                                      itemsize=4, name="batchnorm2d"))


def test_batchnorm_eval_leaves_running_stats_untouched(test_device):
    x, gamma, beta, running_mean, running_var = _batchnorm_operands(test_device, 2)
    log = BehaviorLog(test_device)
    C.batchnorm2d_forward(x, gamma, beta, running_mean, running_var, training=False)
    assert not [row for row in log.rows if row[1] in ("mean", "var")]


def test_batchnorm_backward_accumulates_gamma_and_beta_grads(test_device):
    x, gamma, beta, running_mean, running_var = _batchnorm_operands(test_device, 2)
    _, save_mean, save_invstd = C.batchnorm2d_forward(
        x, gamma, beta, running_mean, running_var, training=True)
    grad_out = operand(test_device, x.shape, "dy")
    grad_gamma = operand(test_device, (2,), "dgamma")
    grad_beta = operand(test_device, (2,), "dbeta")
    log = BehaviorLog(test_device)
    grad_x = C.batchnorm2d_backward(grad_out, x, gamma, save_mean, save_invstd,
                                    grad_gamma, grad_beta)
    op = "batchnorm2d_backward"
    assert log.rows == [
        ("malloc", "bn_grad_in", None),
        ("read", "dy", op), ("read", "x", op), ("read", "gamma", op),
        ("read", "bn_out_mean", op), ("read", "bn_out_invstd", op),
        ("write", "bn_grad_in", op),
        ("read", "dgamma", op), ("read", "dbeta", op), ("write", "dgamma", op),
        ("write", "dbeta", op),
    ]
    assert layout(grad_x) == ((8, 2, 6, 6), float32, GRADIENT)
