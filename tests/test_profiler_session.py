"""Tests for the high-level profiler and profiled training sessions."""

import numpy as np
import pytest

from repro.core.profiler import MemoryProfiler
from repro.errors import ConfigurationError, TraceError
from repro.tensor import functional as F
from repro.tensor import randn
from repro.train.session import TrainingRunConfig, build_device, run_training_session


def test_profiler_context_manager_records_and_detaches(test_device):
    with MemoryProfiler(test_device) as profiler:
        a = randn(test_device, (8, 8))
        b = randn(test_device, (8, 8))
        F.matmul(a, b)
        assert profiler.event_count() > 0
    count_at_exit = profiler.event_count()
    randn(test_device, (4, 4))                       # not recorded anymore
    assert profiler.event_count() == count_at_exit
    assert len(profiler.trace()) == count_at_exit


def test_profiler_metadata_includes_device_description(test_device):
    with MemoryProfiler(test_device, metadata={"note": "hi"}) as profiler:
        randn(test_device, (2,))
    trace = profiler.trace()
    assert trace.metadata["note"] == "hi"
    assert trace.metadata["allocator"] == "caching"
    assert trace.metadata["execution_mode"] == "eager"


def test_profiler_analysis_shortcuts(small_mlp_session, test_device):
    with MemoryProfiler(test_device) as profiler:
        profiler.begin_iteration(0)
        a = randn(test_device, (16, 16))
        b = randn(test_device, (16, 16))
        c = F.matmul(a, b)
        F.relu_forward(c)
        profiler.end_iteration(0)
    assert len(profiler.access_intervals()) >= 1
    assert (len(profiler.access_intervals(include_lifecycle=True))
            > len(profiler.access_intervals()))
    assert profiler.breakdown().total_bytes > 0
    assert profiler.trace().iterations() == [0]


def test_profiler_require_attached(test_device):
    profiler = MemoryProfiler(test_device)
    with pytest.raises(TraceError):
        profiler.require_attached()
    profiler.start()
    profiler.require_attached()
    profiler.stop()


def test_build_device_applies_capacity_override():
    config = TrainingRunConfig(device_memory_capacity=123456789)
    device = build_device(config)
    assert device.spec.memory_capacity == 123456789


def test_run_training_session_end_to_end_eager():
    config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 32},
                               dataset="two_cluster", batch_size=16, iterations=3,
                               execution_mode="eager", label="session-test")
    result = run_training_session(config)
    assert result.label == "session-test"
    assert len(result.iteration_stats) == 3
    assert all(loss is not None for loss in result.losses())
    assert result.parameter_count > 0
    assert result.peak_allocated_bytes > 0
    assert result.trace.iterations() == [0, 1, 2]
    assert result.allocator_stats["total_alloc_count"] > 0


def test_run_training_session_virtual_adam():
    config = TrainingRunConfig(model="lenet5", dataset="mnist", batch_size=8, iterations=2,
                               execution_mode="symbolic", optimizer="adam")
    result = run_training_session(config)
    assert all(loss is None for loss in result.losses())
    assert len(result.trace) > 0


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
                             iterations=1, execution_mode="symbolic", **overrides)


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
