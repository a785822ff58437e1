"""Mixed-precision realism: fp32 master weights and optimizer state under fp16.

Half-precision training must not let *everything* follow the training dtype:
parameters, gradients and activations are stored in float16, but the
optimizer follows the AMP recipe — float32 master weights plus float32 state
buffers, both living in the ``optimizer_state`` category.
"""

import pytest

from repro.core.events import MemoryCategory
from repro.device import Device, small_test_device
from repro.nn import SGD, Adam, Linear
from repro.tensor.dtype import float16, float32
from repro.train.session import TrainingRunConfig, run_training_session

from tests.helpers import BehaviorLog, trace_lifetimes


@pytest.fixture
def half_device():
    """A tiny device whose default training dtype is float16."""
    return Device(small_test_device(), default_dtype="float16")


def _step_once(optimizer, layer):
    layer.weight.ensure_grad()
    layer.bias.ensure_grad()
    optimizer.step()


def test_fp16_sgd_keeps_fp32_momentum_and_master_weights(half_device):
    layer = Linear(half_device, 4, 3)
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


def test_fp16_adam_moments_are_fp32(half_device):
    layer = Linear(half_device, 4, 3)
    optimizer = Adam(layer.parameters(), lr=1e-3)
    _step_once(optimizer, layer)
    for store in (optimizer._exp_avg, optimizer._exp_avg_sq):
        for buffer in store.values():
            assert buffer.dtype is float32
    elements = sum(parameter.numel for parameter in optimizer.parameters)
    # Two fp32 moments + one fp32 master copy per element.
    assert optimizer.state_bytes() == 3 * 4 * elements


def test_fp32_training_allocates_no_master_weights(test_device):
    layer = Linear(test_device, 4, 3)
    optimizer = SGD(layer.parameters(), lr=0.1, momentum=0.9)
    _step_once(optimizer, layer)
    assert optimizer._master_weights == {}
    assert optimizer.master_weight_bytes() == 0
    for buffer in optimizer._momentum_buffers.values():
        assert buffer.dtype is float32  # parameters already fp32


def test_fp16_master_update_flows_through_the_master_copy(half_device):
    """The update reads and writes the fp32 master, then downcasts it into the
    fp16 weights; the master copy is made from the weights on first use."""
    layer = Linear(half_device, 2, 2, bias=False, name="fc")
    optimizer = SGD(layer.parameters(), lr=0.5)
    layer.weight.ensure_grad()
    log = BehaviorLog(half_device)
    optimizer.step()
    optimizer.step()
    first_step = [
        ("malloc", "fc.weight.master", None),
        ("read", "fc.weight", "master_init"), ("write", "fc.weight.master", "master_init"),
        ("read", "fc.weight.master", "sgd_step"), ("read", "fc.weight.grad", "sgd_step"),
        ("write", "fc.weight.master", "sgd_step"),
        ("read", "fc.weight.master", "master_downcast"),
        ("write", "fc.weight", "master_downcast"),
    ]
    assert log.rows == first_step + first_step[3:]


def test_fp16_session_breakdown_carries_fp32_optimizer_state():
    """End-to-end: the fp16 run's optimizer-state bytes match fp32 state."""
    def run(dtype):
        config = TrainingRunConfig(
            model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=16,
            iterations=2, dtype=dtype)
        return run_training_session(config)

    half, full = run("float16"), run("float32")
    assert half.parameter_bytes * 2 == full.parameter_bytes

    def state_bytes(session):
        return sum(l.size for l in trace_lifetimes(session.trace)
                   if l.category is MemoryCategory.OPTIMIZER_STATE)

    # fp16 state = fp32 momentum (same as fp32 run) + fp32 master copies.
    assert state_bytes(half) > state_bytes(full)
