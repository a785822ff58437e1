"""Tests for the Module base class, Parameter and Sequential."""

import numpy as np
import pytest

from repro.errors import BackwardBeforeForwardError
from repro.nn import Identity, Linear, Parameter, ReLU, Sequential
from repro.nn.module import Module
from repro.tensor import from_numpy, randn


def test_parameter_allocates_and_lazily_creates_grad(test_device):
    param = Parameter(test_device, (4, 4), name="w")
    assert param.grad is None
    grad = param.ensure_grad()
    assert grad.shape == (4, 4)
    assert param.ensure_grad() is grad        # idempotent
    np.testing.assert_allclose(grad.numpy(), np.zeros((4, 4)))
    param.set_values(np.ones(16))
    np.testing.assert_allclose(param.values(), np.ones((4, 4)))


def test_parameter_zero_grad_noop_without_grad(test_device):
    param = Parameter(test_device, (2,), name="b")
    param.zero_grad()                         # no error
    param.ensure_grad().set_data(np.ones(2))
    param.zero_grad()
    np.testing.assert_allclose(param.grad.numpy(), np.zeros(2))


def test_module_auto_registers_parameters_and_children(test_device):
    class Custom(Module):
        def __init__(self, device):
            super().__init__(device)
            self.weight = Parameter(device, (2, 2), name="w")
            self.child = Identity(device)

        def forward(self, x):
            return x.retain()

    module = Custom(test_device)
    assert [name for name, _ in module.named_parameters()] == ["weight"]
    assert len(module.children()) == 1
    assert len(module.modules()) == 2


def test_named_parameters_are_qualified(test_device):
    model = Sequential(test_device, [Linear(test_device, 2, 3, name="fc1"),
                                     Linear(test_device, 3, 1, name="fc2")])
    names = [name for name, _ in model.named_parameters()]
    assert names == ["layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"]
    assert model.parameter_count() == 2 * 3 + 3 + 3 * 1 + 1


def test_train_eval_propagates(test_device):
    model = Sequential(test_device, [ReLU(test_device), ReLU(test_device)])
    model.eval()
    assert all(not layer.training for layer in model.layers)
    model.train()
    assert all(layer.training for layer in model.layers)


def test_save_for_backward_retains_and_releases(test_device):
    module = Identity(test_device)
    tensor = randn(test_device, (4,))
    module.save_for_backward(x=tensor)
    tensor.release()                          # saved reference keeps it alive
    assert not tensor.is_freed
    assert module.saved("x") is tensor
    module.release_saved()
    assert tensor.is_freed


def test_saved_unknown_key_raises(test_device):
    module = Identity(test_device)
    with pytest.raises(BackwardBeforeForwardError):
        module.saved("missing")
    assert not module.has_saved("missing")


def test_sequential_forward_backward_shapes(test_device, rng):
    model = Sequential(test_device, [
        Linear(test_device, 4, 8, name="fc1", rng=rng),
        ReLU(test_device),
        Linear(test_device, 8, 2, name="fc2", rng=rng),
    ])
    x = from_numpy(test_device, rng.standard_normal((5, 4)).astype(np.float32))
    y = model(x)
    assert y.shape == (5, 2)
    grad = from_numpy(test_device, np.ones((5, 2), dtype=np.float32))
    grad_x = model.backward(grad)
    assert grad_x.shape == (5, 4)
    for param in model.parameters():
        assert param.grad is not None


def test_sequential_indexing_and_len(test_device):
    layers = [ReLU(test_device), ReLU(test_device)]
    model = Sequential(test_device, layers)
    assert len(model) == 2
    assert model[0] is layers[0]


def test_empty_sequential_is_identity(test_device):
    model = Sequential(test_device, [])
    x = randn(test_device, (3,))
    y = model(x)
    assert y.storage is x.storage


def test_zero_grad_zeroes_existing_gradients(test_device, rng):
    layer = Linear(test_device, 3, 2, rng=rng)
    x = from_numpy(test_device, rng.standard_normal((4, 3)).astype(np.float32))
    y = layer(x)
    layer.backward(from_numpy(test_device, np.ones((4, 2), dtype=np.float32)))
    assert np.abs(layer.weight.grad.numpy()).sum() > 0
    layer.zero_grad()
    np.testing.assert_allclose(layer.weight.grad.numpy(), np.zeros((3, 2)))


def test_module_free_releases_device_memory(test_device):
    allocated_before = test_device.allocated_bytes
    layer = Linear(test_device, 8, 8)
    assert test_device.allocated_bytes > allocated_before
    layer.free()
    assert test_device.allocated_bytes == allocated_before


def test_parameter_bytes_and_buffer_bytes(test_device):
    from repro.nn import BatchNorm2d
    bn = BatchNorm2d(test_device, 4)
    assert bn.parameter_bytes() == 2 * 4 * 4          # gamma + beta, float32
    assert bn.buffer_bytes() == 2 * 4 * 4             # running mean + var


# -- tags built at construction -----------------------------------------------------------

_IMAGE, _FLAT = (2, 2, 4, 4), (2, 4)
_LAYER_CASES = {
    "ReLU": ({}, _FLAT), "Sigmoid": ({}, _FLAT), "Tanh": ({}, _FLAT),
    "Linear": (dict(in_features=4, out_features=3), _FLAT),
    "Dropout": (dict(p=0.5), _FLAT),
    "Flatten": ({}, _IMAGE),
    "Conv2d": (dict(in_channels=2, out_channels=3, kernel_size=3, padding=1), _IMAGE),
    "BatchNorm2d": (dict(num_features=2), _IMAGE),
    "MaxPool2d": (dict(kernel_size=2), _IMAGE),
    "AvgPool2d": (dict(kernel_size=2), _IMAGE),
    "GlobalAvgPool2d": ({}, _IMAGE),
}


def test_every_layer_class_has_a_tag_case():
    from repro.nn import layers
    assert set(_LAYER_CASES) == set(layers.__all__)


@pytest.mark.parametrize("class_name", sorted(_LAYER_CASES))
def test_cached_tags_equal_the_per_call_format(virtual_device, class_name):
    from repro.nn import layers
    kwargs, input_shape = _LAYER_CASES[class_name]
    layer = getattr(layers, class_name)(virtual_device, name="net.block.layer", **kwargs)
    assert layer.out_tag == f"{layer.name}.out" == "net.block.layer.out"
    assert layer.grad_in_tag == f"{layer.name}.grad_in" == "net.block.layer.grad_in"
    x = randn(virtual_device, input_shape, tag="x")
    output = layer(x)
    grad_output = randn(virtual_device, output.shape, tag="dy")
    grad_input = layer.backward(grad_output)
    # A layer that allocates its result tags it with the cached string itself
    # (Flatten only views its input, so it produces no tagged tensor).
    if output.storage is not x.storage:
        assert output.tag is layer.out_tag
    if grad_input.storage is not grad_output.storage:
        assert grad_input.tag is layer.grad_in_tag


def test_default_named_module_tags_follow_the_class_name(test_device):
    assert Identity(test_device).out_tag == "Identity.out"
    assert Identity(test_device).grad_in_tag == "Identity.grad_in"
