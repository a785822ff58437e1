"""Tests for individual layers: shapes and memory discipline."""

import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.tensor import empty

from tests.helpers import BehaviorLog


def make_input(device, shape, tag="x"):
    return empty(device, shape, tag=tag)


def test_linear_layer_allocates_and_initializes_its_parameters(test_device):
    log = BehaviorLog(test_device)
    layer = Linear(test_device, 3, 2, name="fc")
    assert log.rows == [("malloc", "fc.weight", None), ("malloc", "fc.bias", None),
                        ("write", "fc.weight", "param_init"),
                        ("write", "fc.bias", "param_init")]
    assert (layer.weight.shape, layer.bias.shape) == ((3, 2), (2,))


def test_linear_layer_saves_its_input_until_backward(test_device):
    """Forward reads the saved input; backward allocates and zeroes the
    parameter gradients on first use, accumulates into them and only then
    computes the input gradient."""
    layer = Linear(test_device, 3, 2, name="fc")
    x = make_input(test_device, (4, 3))
    log = BehaviorLog(test_device)
    y = layer(x)
    assert y.shape == (4, 2)
    grad_x = layer.backward(make_input(test_device, (4, 2), tag="dy"))
    assert grad_x.shape == (4, 3)
    ops = [op for kind, _, op in log.rows if kind == "write"]
    assert ops == ["linear_forward", "zero_", "zero_", "linear_backward_weight",
                   "linear_backward_bias", "linear_backward_input"]
    assert ("read", "x", "linear_backward_weight") in log.rows


def test_linear_without_bias(test_device):
    layer = Linear(test_device, 3, 2, bias=False)
    assert layer.bias is None
    layer(make_input(test_device, (4, 3)))
    layer.backward(make_input(test_device, (4, 2)))
    assert layer.weight.grad is not None


def test_conv_layer_shapes_and_grads(test_device):
    layer = Conv2d(test_device, 3, 8, kernel_size=3, stride=1, padding=1)
    x = make_input(test_device, (2, 3, 8, 8))
    y = layer(x)
    assert y.shape == (2, 8, 8, 8)
    grad_x = layer.backward(make_input(test_device, (2, 8, 8, 8)))
    assert grad_x.shape == (2, 3, 8, 8)
    assert layer.weight.grad is not None
    assert layer.bias.grad is not None


def test_relu_layer_saves_output_not_input(test_device):
    layer = ReLU(test_device)
    x = make_input(test_device, (4, 4))
    y = layer(x)
    grad_x = layer.backward(make_input(test_device, (4, 4)))
    assert grad_x.shape == (4, 4)
    # After backward the layer must have released its saved tensors.
    assert not layer.has_saved("output")


def test_maxpool_layer_round_trip(test_device):
    layer = MaxPool2d(test_device, kernel_size=2, stride=2)
    x = make_input(test_device, (1, 2, 8, 8))
    y = layer(x)
    assert y.shape == (1, 2, 4, 4)
    grad_x = layer.backward(make_input(test_device, (1, 2, 4, 4)))
    assert grad_x.shape == (1, 2, 8, 8)


def test_avgpool_and_global_avgpool(test_device):
    avg = AvgPool2d(test_device, kernel_size=2)
    x = make_input(test_device, (2, 3, 8, 8))
    y = avg(x)
    assert y.shape == (2, 3, 4, 4)
    assert avg.backward(make_input(test_device, (2, 3, 4, 4))).shape == (2, 3, 8, 8)

    gap = GlobalAvgPool2d(test_device)
    pooled = gap(x)
    assert pooled.shape == (2, 3, 1, 1)
    assert gap.backward(make_input(test_device, (2, 3, 1, 1))).shape == (2, 3, 8, 8)


def test_batchnorm_layer_trains_and_evals(test_device):
    layer = BatchNorm2d(test_device, 3)
    x = make_input(test_device, (4, 3, 5, 5))
    y = layer(x)
    assert y.shape == x.shape
    grad_x = layer.backward(make_input(test_device, (4, 3, 5, 5)))
    assert grad_x.shape == x.shape
    assert layer.weight.grad is not None

    layer.eval()
    y_eval = layer(x)
    assert y_eval.shape == x.shape


def test_dropout_layer_training_vs_eval(test_device):
    layer = Dropout(test_device, p=0.5, name="drop")
    x = make_input(test_device, (64, 64))
    log = BehaviorLog(test_device)
    layer(x)
    assert ("write", "drop.out_mask", "dropout_mask") in log.rows
    grad = layer.backward(make_input(test_device, (64, 64), tag="dy"))
    assert grad.shape == (64, 64)
    assert ("free", "drop.out_mask", None) in log.rows

    layer.eval()
    log.rows.clear()
    y_eval = layer(x)
    assert y_eval.storage is x.storage and log.rows == []     # a no-op view
    grad_eval = layer.backward(make_input(test_device, (64, 64), tag="dy"))
    assert grad_eval.shape == (64, 64)


def test_flatten_layer_round_trip(test_device):
    layer = Flatten(test_device)
    x = make_input(test_device, (2, 3, 4, 4))
    y = layer(x)
    assert y.shape == (2, 48)
    grad_x = layer.backward(make_input(test_device, (2, 48)))
    assert grad_x.shape == (2, 3, 4, 4)


def test_layer_backward_frees_saved_activations(test_device):
    """After a forward+backward round trip no layer-internal tensors leak."""
    layer = Linear(test_device, 16, 16)
    x = make_input(test_device, (8, 16))
    baseline = test_device.allocated_bytes
    y = layer(x)
    grad_out = make_input(test_device, (8, 16))
    grad_x = layer.backward(grad_out)
    y.release()
    grad_x.release()
    grad_out.release()
    # Only the (persistent) parameter gradients may remain beyond the baseline;
    # allow the 512-byte allocator rounding per gradient block.
    persistent = sum(p.grad.nbytes for p in layer.parameters() if p.grad is not None)
    assert test_device.allocated_bytes <= baseline + persistent + 2 * 512
