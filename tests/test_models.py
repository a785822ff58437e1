"""Tests for the model zoo."""

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.models import (
    MLP,
    AlexNet,
    LeNet5,
    ResNet,
    SimpleInception,
    available_models,
    build_model,
    paper_mlp,
    register_model,
    vgg11,
)
from repro.tensor import empty

from tests.helpers import BehaviorLog


def forward_backward(device, model, batch, in_shape, num_classes):
    """Run one forward and backward pass and return the logits shape."""
    x = empty(device, (batch,) + in_shape)
    logits = model(x)
    grad = empty(device, logits.shape)
    grad_x = model.backward(grad)
    assert grad_x.shape == x.shape
    return logits.shape


def test_paper_mlp_matches_figure_one_shapes(titan_device):
    model = paper_mlp(titan_device)
    shapes = {name: param.shape for name, param in model.named_parameters()}
    assert shapes["layer0.weight"] == (2, 12288)
    assert shapes["layer0.bias"] == (12288,)
    assert shapes["layer2.weight"] == (12288, 2)
    assert shapes["layer2.bias"] == (2,)
    assert model.parameter_count() == 2 * 12288 + 12288 + 12288 * 2 + 2


def test_small_mlp_forward_backward(test_device):
    model = MLP(test_device, hidden_dim=32)
    assert forward_backward(test_device, model, 8, (2,), 2) == (8, 2)


def test_lenet5_forward_backward(test_device):
    model = LeNet5(test_device)
    assert forward_backward(test_device, model, 4, (1, 28, 28), 10) == (4, 10)


def test_a_training_step_frees_every_activation_it_saved(test_device):
    """Once the step's own tensors go, only the parameter gradients it
    allocated stay live."""
    model = MLP(test_device, hidden_dim=128)
    log = BehaviorLog(test_device)
    x = empty(test_device, (16, 2), tag="x")
    logits = model(x)
    grad = empty(test_device, logits.shape, tag="dy")
    grad_x = model.backward(grad)
    for tensor in (x, logits, grad, grad_x):
        tensor.release()
    live = Counter(tag for kind, tag, _ in log.rows if kind == "malloc")
    live.subtract(tag for kind, tag, _ in log.rows if kind == "free")
    assert sorted(+live) == sorted(param.grad.tag for param in model.parameters())


def test_lenet5_rejects_tiny_inputs(test_device):
    with pytest.raises(ValueError):
        LeNet5(test_device, input_size=8)


def test_alexnet_cifar_forward_backward(test_device):
    model = AlexNet(test_device, num_classes=10, input_size=32)
    assert forward_backward(test_device, model, 2, (3, 32, 32), 10) == (2, 10)


def test_alexnet_imagenet_parameter_count(titan_device):
    model = AlexNet(titan_device, num_classes=1000, input_size=224)
    # Torchvision AlexNet has ~61.1M parameters.
    assert model.parameter_count() == pytest.approx(61_100_840, rel=0.01)


def test_vgg11_builds_with_cifar_inputs(titan_device):
    model = vgg11(titan_device, num_classes=100, input_size=32)
    assert model.parameter_count() > 9_000_000


def test_inception_forward_backward(test_device):
    model = SimpleInception(test_device, num_classes=10, input_size=32)
    assert forward_backward(test_device, model, 2, (3, 32, 32), 10) == (2, 10)


@pytest.mark.parametrize("depth,expected_millions", [
    ("resnet18", 11.7), ("resnet34", 21.8), ("resnet50", 25.6),
    ("resnet101", 44.5), ("resnet152", 60.2),
])
def test_resnet_parameter_counts_match_reference(titan_device, depth, expected_millions):
    model = ResNet(titan_device, depth, num_classes=1000, input_size=224)
    assert model.parameter_count() / 1e6 == pytest.approx(expected_millions, rel=0.02)


def test_resnet18_cifar_forward_backward(test_device):
    model = ResNet(test_device, "resnet18", num_classes=10, input_size=32)
    assert forward_backward(test_device, model, 2, (3, 32, 32), 10) == (2, 10)


def test_resnet_unknown_depth_raises(test_device):
    with pytest.raises(ValueError, match="unknown ResNet depth"):
        ResNet(test_device, "resnet7")


def test_registry_lists_and_builds_models(titan_device):
    names = available_models()
    assert "paper_mlp" in names
    assert "resnet152" in names
    model = build_model("lenet5", titan_device)
    assert model.parameter_count() > 0


def test_registry_unknown_model_raises(titan_device):
    with pytest.raises(ConfigurationError, match="unknown model"):
        build_model("transformer-9000", titan_device)


@pytest.fixture
def scratch_registry(monkeypatch):
    """The model registry as a copy the test may extend: a model registered
    through it is gone afterwards, so ``available_models()`` is unchanged."""
    from repro.models import registry

    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    return registry._REGISTRY


def test_registry_register_custom_model(titan_device, scratch_registry):
    before = available_models()
    register_model("tiny_mlp_for_test", lambda device, **kw: MLP(device, hidden_dim=4, **kw))
    assert available_models() == sorted([*before, "tiny_mlp_for_test"])
    assert "tiny_mlp_for_test" in scratch_registry
    model = build_model("tiny_mlp_for_test", titan_device)
    assert model.parameter_count() > 0
    with pytest.raises(ConfigurationError):
        register_model("tiny_mlp_for_test", lambda device, **kw: None)


def test_a_registered_test_model_does_not_outlive_its_test():
    """Runs after the registration above: the registry is as it was."""
    assert "tiny_mlp_for_test" not in available_models()
