"""Mixed-precision realism: fp32 master weights and optimizer state under fp16.

Half-precision training must not let *everything* follow the training dtype:
parameters, gradients and activations are stored in float16, but the
optimizer follows the AMP recipe — float32 master weights plus float32 state
buffers, both living in the ``optimizer_state`` category.
"""

import numpy as np
import pytest

from repro.core.events import MemoryCategory
from repro.device import Device, small_test_device
from repro.nn import SGD, Adam, Linear
from repro.tensor.dtype import float16, float32
from repro.train.session import TrainingRunConfig, run_training_session


@pytest.fixture
def half_device():
    """A tiny eager device whose default training dtype is float16."""
    return Device(small_test_device(), execution_mode="eager", default_dtype="float16")


def _step_once(optimizer, layer):
    layer.weight.ensure_grad().set_data(np.ones(layer.weight.numel))
    layer.bias.ensure_grad().set_data(np.ones(layer.bias.numel))
    optimizer.step()


def test_fp16_sgd_keeps_fp32_momentum_and_master_weights(half_device, rng):
    layer = Linear(half_device, 4, 3, rng=rng)
    assert layer.weight.data.dtype is float16
    optimizer = SGD(layer.parameters(), lr=0.1, momentum=0.9)
    _step_once(optimizer, layer)

    for buffer in optimizer._momentum_buffers.values():
        assert buffer.dtype is float32
        assert buffer.category is MemoryCategory.OPTIMIZER_STATE
    masters = optimizer._master_weights
    assert set(masters) == {0, 1}
    for index, parameter in enumerate(optimizer.parameters):
        master = masters[index]
        assert master.dtype is float32
        assert master.category is MemoryCategory.OPTIMIZER_STATE
        assert master.shape == parameter.shape
        # Master bytes are double the half-precision parameter bytes.
        assert master.nbytes == 2 * parameter.nbytes
    # state_bytes = fp32 momentum + fp32 masters (4 bytes/element each).
    elements = sum(parameter.numel for parameter in optimizer.parameters)
    assert optimizer.state_bytes() == 2 * 4 * elements
    assert optimizer.master_weight_bytes() == 4 * elements


def test_fp16_adam_moments_are_fp32(half_device, rng):
    layer = Linear(half_device, 4, 3, rng=rng)
    optimizer = Adam(layer.parameters(), lr=1e-3)
    _step_once(optimizer, layer)
    for store in (optimizer._exp_avg, optimizer._exp_avg_sq):
        for buffer in store.values():
            assert buffer.dtype is float32
    elements = sum(parameter.numel for parameter in optimizer.parameters)
    # Two fp32 moments + one fp32 master copy per element.
    assert optimizer.state_bytes() == 3 * 4 * elements


def test_fp32_training_allocates_no_master_weights(test_device, rng):
    layer = Linear(test_device, 4, 3, rng=rng)
    optimizer = SGD(layer.parameters(), lr=0.1, momentum=0.9)
    _step_once(optimizer, layer)
    assert optimizer._master_weights == {}
    assert optimizer.master_weight_bytes() == 0
    for buffer in optimizer._momentum_buffers.values():
        assert buffer.dtype is float32  # parameters already fp32


def test_fp16_master_update_flows_through_the_master_copy(half_device, rng):
    """The update must be applied in fp32 and downcast into the fp16 weights."""
    layer = Linear(half_device, 2, 2, rng=rng)
    optimizer = SGD(layer.parameters(), lr=0.5)
    before = layer.weight.values().astype(np.float32).copy()
    layer.weight.ensure_grad().set_data(np.ones(layer.weight.numel))
    layer.bias.ensure_grad().set_data(np.zeros(layer.bias.numel))
    optimizer.step()
    master = optimizer._master_weights[0]
    np.testing.assert_allclose(master.numpy().reshape(-1),
                               before.reshape(-1) - 0.5, rtol=1e-3)
    # The fp16 copy tracks the downcast master.
    np.testing.assert_allclose(
        layer.weight.values().astype(np.float32).reshape(-1),
        master.numpy().reshape(-1), rtol=1e-3)


def test_fp16_session_breakdown_carries_fp32_optimizer_state():
    """End-to-end: the fp16 run's optimizer-state bytes match fp32 state."""
    def run(dtype):
        config = TrainingRunConfig(
            model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=16,
            iterations=2, dtype=dtype, execution_mode="symbolic")
        return run_training_session(config)

    half, full = run("float16"), run("float32")
    assert half.parameter_bytes * 2 == full.parameter_bytes

    def state_bytes(session):
        return sum(l.size for l in session.trace.lifetimes
                   if l.category is MemoryCategory.OPTIMIZER_STATE)

    # fp16 state = fp32 momentum (same as fp32 run) + fp32 master copies.
    assert state_bytes(half) > state_bytes(full)
