"""Tests for the high-level profiler and profiled training sessions."""

import pytest

from repro.core.ati import IntervalArrays
from repro.core.events import MemoryCategory
from repro.core.profiler import MemoryProfiler
from repro.errors import ConfigurationError
from repro.tensor import functional as F
from repro.tensor import randn
from repro.train.session import TrainingRunConfig, build_device, run_training_session

from tests.helpers import trace_lifetimes


def test_profiler_reads_every_behavior_of_its_device(test_device):
    profiler = MemoryProfiler(test_device)
    a = randn(test_device, (8, 8))
    b = randn(test_device, (8, 8))
    F.matmul(a, b)
    count = profiler.event_count()
    assert count > 0
    randn(test_device, (4, 4))                       # the device keeps recording
    assert profiler.event_count() == count + 2
    trace = profiler.trace()              # placed: the segment rows join
    assert len(trace) == count + 2 + len(test_device.place().segment_op)


def test_profiler_metadata_includes_device_description(test_device):
    profiler = MemoryProfiler(test_device, metadata={"note": "hi"})
    randn(test_device, (2,))
    trace = profiler.trace()
    assert trace.metadata["note"] == "hi"
    assert trace.metadata["allocator"] == "caching"
    assert trace.metadata["device"]["name"] == test_device.spec.name


def test_profiler_analysis_shortcuts(small_mlp_session, test_device):
    profiler = MemoryProfiler(test_device)
    test_device.recorder.begin_iteration(0)
    a = randn(test_device, (16, 16))
    b = randn(test_device, (16, 16))
    c = F.matmul(a, b)
    F.relu_forward(c)
    test_device.recorder.end_iteration(0)
    assert isinstance(profiler.access_intervals(), IntervalArrays)
    assert len(profiler.access_intervals()) >= 1
    assert (len(profiler.access_intervals(include_lifecycle=True))
            > len(profiler.access_intervals()))
    assert profiler.breakdown().total_bytes > 0
    assert profiler.trace().iterations() == [0]


def test_build_device_applies_capacity_override():
    config = TrainingRunConfig(device_memory_capacity=123456789)
    device = build_device(config)
    assert device.spec.memory_capacity == 123456789


def test_run_training_session_end_to_end():
    config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 32},
                               dataset="two_cluster", batch_size=16, iterations=3,
                               label="session-test")
    result = run_training_session(config)
    assert result.label == "session-test"
    assert len(result.iteration_stats) == 3
    assert result.parameter_count > 0
    assert result.peak_allocated_bytes > 0
    assert result.trace.iterations() == [0, 1, 2]
    assert result.allocator_stats["total_alloc_count"] > 0


def test_run_training_session_with_adam_keeps_two_moments_per_parameter():
    def state_bytes(optimizer):
        config = TrainingRunConfig(model="lenet5", dataset="mnist", batch_size=8,
                                   iterations=2, optimizer=optimizer)
        trace = run_training_session(config).trace
        return sum(lifetime.size for lifetime in trace_lifetimes(trace)
                   if lifetime.category is MemoryCategory.OPTIMIZER_STATE)

    assert state_bytes("adam") == 2 * state_bytes("sgd") > 0


def test_run_training_session_validations():
    with pytest.raises(ConfigurationError):
        run_training_session(TrainingRunConfig(iterations=0))
    with pytest.raises(ConfigurationError):
        run_training_session(TrainingRunConfig(optimizer="lbfgs", iterations=1,
                                               model="mlp",
                                               model_kwargs={"hidden_dim": 8},
                                               batch_size=4))


def test_session_config_describe_mentions_model_and_batch():
    config = TrainingRunConfig(model="alexnet", dataset="cifar100", batch_size=128)
    description = config.describe()
    assert "alexnet" in description
    assert "128" in description


# -- the cyclic collector is paused for a session and left as it was found ----------------


@pytest.fixture
def restore_collector():
    import gc
    was_enabled = gc.isenabled()
    yield gc
    (gc.enable if was_enabled else gc.disable)()


def _tiny_symbolic_config(**overrides):
    return TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 16}, batch_size=8,
                             iterations=1, **overrides)


@pytest.mark.parametrize("enabled_before", [True, False])
def test_session_pauses_the_collector_and_restores_it(restore_collector, monkeypatch,
                                                      enabled_before):
    from repro.train import session
    gc, seen_inside = restore_collector, []
    real_build_dataset = session.build_dataset

    def observing_build_dataset(*args, **kwargs):
        seen_inside.append(gc.isenabled())
        return real_build_dataset(*args, **kwargs)

    monkeypatch.setattr(session, "build_dataset", observing_build_dataset)
    (gc.enable if enabled_before else gc.disable)()
    run_training_session(_tiny_symbolic_config())
    assert seen_inside == [False]
    assert gc.isenabled() is enabled_before


@pytest.mark.parametrize("enabled_before", [True, False])
def test_session_restores_the_collector_when_it_raises(restore_collector, enabled_before):
    from repro.errors import OutOfMemoryError
    gc = restore_collector
    (gc.enable if enabled_before else gc.disable)()
    # Too small for the first segment: the model build raises inside the session.
    with pytest.raises(OutOfMemoryError):
        run_training_session(_tiny_symbolic_config(device_memory_capacity=1 << 20))
    assert gc.isenabled() is enabled_before
