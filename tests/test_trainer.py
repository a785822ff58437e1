"""Tests for the training loop."""

import dataclasses

import numpy as np
import pytest

from repro.core.profiler import MemoryProfiler
from repro.data import DataLoader, HostLatencyModel, SyntheticMNIST, TwoClusterDataset
from repro.errors import ConfigurationError
from repro.models import MLP, LeNet5
from repro.nn import SGD, CrossEntropyLoss
from repro.train import Trainer

from tests.helpers import BehaviorLog


def make_trainer(device, model, batch_size=32, recorder=None):
    if isinstance(model, MLP):
        dataset = TwoClusterDataset(input_dim=model.input_dim)
    else:
        dataset = SyntheticMNIST()
    loader = DataLoader(dataset, batch_size=batch_size,
                        host_latency=HostLatencyModel(per_batch_ns=100_000,
                                                      per_sample_ns=1_000,
                                                      per_byte_ns=0.05))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    loss_fn = CrossEntropyLoss(device)
    return Trainer(model, loader, optimizer, loss_fn, device, recorder=recorder)


def test_every_iteration_reads_its_loss_back_to_the_host(test_device):
    """The loss readback is a memory behavior: a D2H read, then the free."""
    model = MLP(test_device, hidden_dim=32)
    trainer = make_trainer(test_device, model, batch_size=64)
    log = BehaviorLog(test_device)
    trainer.train(3)
    readbacks = [index for index, row in enumerate(log.rows)
                 if row == ("read", "ce_loss", "memcpy_d2h")]
    assert len(readbacks) == 3
    assert all(log.rows[index + 1] == ("free", "ce_loss", None) for index in readbacks)


def test_iteration_stats_fields(test_device):
    model = MLP(test_device, hidden_dim=16)
    trainer = make_trainer(test_device, model)
    stats = trainer.train_iteration(0)
    assert [field.name for field in dataclasses.fields(stats)] == ["index", "start_ns",
                                                                   "end_ns"]
    assert stats.index == 0
    assert stats.duration_ns > 0
    placed = test_device.place().stats
    assert placed.peak_allocated_bytes > 0
    assert placed.allocated_bytes >= 0
    assert trainer.history == [stats]


def test_no_memory_leak_across_iterations(test_device):
    """Allocated bytes at the end of every steady-state iteration are equal."""
    profiler = MemoryProfiler(test_device).start()
    model = MLP(test_device, hidden_dim=32)
    trainer = make_trainer(test_device, model, recorder=profiler)
    stats = trainer.train(5)
    columns = profiler.stop().columns()
    allocated = np.cumsum(columns.live_deltas())
    steady = [allocated[np.flatnonzero(columns.iteration == s.index)[-1]] for s in stats[1:]]
    assert len(set(steady)) == 1


def test_trainer_feeds_recorder_iteration_marks(test_device):
    profiler = MemoryProfiler(test_device)
    profiler.start()
    model = MLP(test_device, hidden_dim=16)
    trainer = make_trainer(test_device, model, recorder=profiler)
    trainer.train(3)
    trace = profiler.stop()
    assert trace.iterations() == [0, 1, 2]
    assert all(mark.end_ns is not None for mark in trace.iteration_marks)


def test_trainer_rejects_nonpositive_iterations(test_device):
    model = MLP(test_device, hidden_dim=16)
    trainer = make_trainer(test_device, model)
    with pytest.raises(ConfigurationError):
        trainer.train(0)


def test_training_convnet_on_images(test_device):
    model = LeNet5(test_device)
    trainer = make_trainer(test_device, model, batch_size=8)
    log = BehaviorLog(test_device)
    stats = trainer.train(2)
    assert [s.index for s in stats] == [0, 1]
    assert all(s.duration_ns > 0 for s in stats)
    assert {"conv2d_forward", "conv2d_backward_input"} <= {op for _, _, op in log.rows}


def test_stats_and_run_config_carry_no_values_and_no_mode():
    """Nothing is computed, so no loss is reported and no mode is chosen."""
    from dataclasses import fields

    from repro.train import IterationStats, TrainingRunConfig

    assert "loss" not in {field.name for field in fields(IterationStats)}
    assert "execution_mode" not in {field.name for field in fields(TrainingRunConfig)}
    with pytest.raises(TypeError):
        TrainingRunConfig(execution_mode="eager")


def test_history_accumulates(test_device):
    model = MLP(test_device, hidden_dim=16)
    trainer = make_trainer(test_device, model)
    trainer.train(2)
    trainer.train(1)
    assert [stats.index for stats in trainer.history] == [0, 1, 2]
