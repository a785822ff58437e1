"""Tests for losses and optimizers: what they allocate, read and write."""

import pytest

from repro.core.events import MemoryCategory
from repro.errors import ConfigurationError
from repro.nn import SGD, Adam, CrossEntropyLoss, Linear, MSELoss
from repro.tensor import empty, float32, int64

from tests.helpers import BehaviorLog


def test_cross_entropy_loss_module_frees_its_probabilities_in_backward(test_device):
    loss_fn = CrossEntropyLoss(test_device)
    logits = empty(test_device, (4, 3), tag="logits")
    labels = empty(test_device, (4,), dtype=int64, tag="labels")
    loss = loss_fn(logits, labels)
    assert (loss.shape, loss.dtype, loss.category) == ((1,), float32,
                                                       MemoryCategory.ACTIVATION)
    log = BehaviorLog(test_device)
    grad = loss_fn.backward()
    assert (grad.shape, grad.category) == ((4, 3), MemoryCategory.ACTIVATION_GRADIENT)
    assert log.rows[-1] == ("free", "ce_probs", None)
    assert not labels.is_freed      # the caller's labels outlive the loss


def test_mse_loss_module(test_device):
    loss_fn = MSELoss(test_device)
    prediction = empty(test_device, (2,), tag="prediction")
    target = empty(test_device, (2,), tag="target")
    loss = loss_fn(prediction, target)
    assert loss.shape == (1,)
    grad = loss_fn.backward()
    assert (grad.shape, grad.category) == ((2,), MemoryCategory.ACTIVATION_GRADIENT)


def test_sgd_step_reads_parameter_and_gradient_and_writes_the_parameter(test_device):
    layer = Linear(test_device, 2, 2, name="fc")
    optimizer = SGD(layer.parameters(), lr=0.1)
    for parameter in layer.parameters():
        parameter.ensure_grad()
    log = BehaviorLog(test_device)
    optimizer.step()
    assert log.rows == [
        ("read", "fc.weight", "sgd_step"), ("read", "fc.weight.grad", "sgd_step"),
        ("write", "fc.weight", "sgd_step"),
        ("read", "fc.bias", "sgd_step"), ("read", "fc.bias.grad", "sgd_step"),
        ("write", "fc.bias", "sgd_step"),
    ]


def test_sgd_momentum_buffers_are_optimizer_state(test_device):
    layer = Linear(test_device, 2, 2)
    optimizer = SGD(layer.parameters(), lr=0.1, momentum=0.9)
    assert optimizer.state_bytes() == 0
    layer.weight.ensure_grad()
    layer.bias.ensure_grad()
    optimizer.step()
    assert optimizer.state_bytes() == layer.weight.nbytes + layer.bias.nbytes
    buffer = optimizer._momentum_buffers[0]
    assert buffer.category is MemoryCategory.OPTIMIZER_STATE


def test_sgd_skips_parameters_without_gradients(test_device):
    layer = Linear(test_device, 2, 2)
    optimizer = SGD(layer.parameters(), lr=0.1)
    log = BehaviorLog(test_device)
    optimizer.step()                               # no gradients yet
    assert log.rows == []


def test_optimizer_zero_grad_writes_every_existing_gradient(test_device):
    layer = Linear(test_device, 2, 2, name="fc")
    optimizer = SGD(layer.parameters(), lr=0.1)
    layer.weight.ensure_grad()
    log = BehaviorLog(test_device)
    optimizer.zero_grad()
    assert log.rows == [("write", "fc.weight.grad", "zero_")]


def test_adam_allocates_two_moments_per_parameter(test_device):
    layer = Linear(test_device, 4, 4)
    optimizer = Adam(layer.parameters(), lr=1e-3)
    for param in layer.parameters():
        param.ensure_grad()
    made = len(test_device.recorder.tags)
    optimizer.step()
    expected = 2 * sum(p.nbytes for p in layer.parameters())
    assert optimizer.state_bytes() == expected
    tags = test_device.recorder.tags[made:]
    assert sorted(tags) == sorted(f"{p.name}.{moment}" for p in layer.parameters()
                                  for moment in ("exp_avg", "exp_avg_sq"))


def test_adam_reuses_its_moments_after_the_first_step(test_device):
    layer = Linear(test_device, 4, 4)
    optimizer = Adam(layer.parameters(), lr=1e-3)
    for param in layer.parameters():
        param.ensure_grad()
    optimizer.step()
    made = len(test_device.recorder.tags)
    log = BehaviorLog(test_device)
    optimizer.step()
    assert log.rows and all(kind in ("read", "write") for kind, _, _ in log.rows)
    assert optimizer.state_bytes() == 2 * sum(p.nbytes for p in layer.parameters())
    # The moments persist: the second step made no request and touched them.
    assert len(log.tags) == made
    assert {tag for _, tag, _ in log.rows} >= {
        f"{p.name}.{moment}" for p in layer.parameters() for moment in ("exp_avg", "exp_avg_sq")}


def test_optimizer_validation():
    with pytest.raises(ConfigurationError):
        SGD([], lr=0.1)


def test_optimizer_rejects_bad_hyperparameters(test_device):
    layer = Linear(test_device, 2, 2)
    with pytest.raises(ConfigurationError):
        SGD(layer.parameters(), lr=0.0)
    with pytest.raises(ConfigurationError):
        SGD(layer.parameters(), lr=0.1, momentum=-0.5)
