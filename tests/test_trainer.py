"""Tests for the training loop."""

import numpy as np
import pytest

from repro.core.profiler import MemoryProfiler
from repro.data import DataLoader, HostLatencyModel, TwoClusterDataset
from repro.device import Device, small_test_device, titan_x_pascal
from repro.errors import ConfigurationError
from repro.models import MLP, LeNet5
from repro.nn import SGD, CrossEntropyLoss
from repro.train import Trainer


def make_trainer(device, model, batch_size=32, recorder=None):
    if isinstance(model, MLP):
        dataset = TwoClusterDataset(input_dim=model.input_dim, seed=0, separation=4.0)
    else:
        from repro.data import SyntheticMNIST
        dataset = SyntheticMNIST(seed=0)
    loader = DataLoader(dataset, batch_size=batch_size,
                        host_latency=HostLatencyModel(per_batch_ns=100_000,
                                                      per_sample_ns=1_000,
                                                      per_byte_ns=0.05))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    loss_fn = CrossEntropyLoss(device)
    return Trainer(model, loader, optimizer, loss_fn, device, recorder=recorder)


def test_training_reduces_loss_on_separable_data(test_device):
    model = MLP(test_device, hidden_dim=32, rng=np.random.default_rng(0))
    trainer = make_trainer(test_device, model, batch_size=64)
    stats = trainer.train(10)
    losses = [s.loss for s in stats]
    assert losses[0] is not None
    assert np.mean(losses[-3:]) < np.mean(losses[:3])


def test_iteration_stats_fields(test_device):
    model = MLP(test_device, hidden_dim=16, rng=np.random.default_rng(0))
    trainer = make_trainer(test_device, model)
    stats = trainer.train_iteration(0)
    assert stats.index == 0
    assert stats.duration_ns > 0
    assert stats.peak_allocated_bytes > 0
    assert stats.allocated_bytes_end >= 0
    assert trainer.history == [stats]


def test_no_memory_leak_across_iterations(test_device):
    """Allocated bytes at the end of every steady-state iteration are equal."""
    model = MLP(test_device, hidden_dim=32, rng=np.random.default_rng(0))
    trainer = make_trainer(test_device, model)
    stats = trainer.train(5)
    steady = [s.allocated_bytes_end for s in stats[1:]]
    assert len(set(steady)) == 1


def test_virtual_mode_training_reports_none_loss():
    device = Device(titan_x_pascal(), execution_mode="symbolic")
    model = MLP(device, hidden_dim=64, rng=np.random.default_rng(0))
    trainer = make_trainer(device, model)
    stats = trainer.train(2)
    assert all(s.loss is None for s in stats)


def test_trainer_feeds_recorder_iteration_marks(test_device):
    profiler = MemoryProfiler(test_device)
    profiler.start()
    model = MLP(test_device, hidden_dim=16, rng=np.random.default_rng(0))
    trainer = make_trainer(test_device, model, recorder=profiler)
    trainer.train(3)
    trace = profiler.stop()
    assert trace.iterations() == [0, 1, 2]
    assert all(mark.end_ns is not None for mark in trace.iteration_marks)


def test_trainer_rejects_nonpositive_iterations(test_device):
    model = MLP(test_device, hidden_dim=16, rng=np.random.default_rng(0))
    trainer = make_trainer(test_device, model)
    with pytest.raises(ConfigurationError):
        trainer.train(0)


def test_training_convnet_on_images(test_device):
    model = LeNet5(test_device, rng=np.random.default_rng(0))
    trainer = make_trainer(test_device, model, batch_size=8)
    stats = trainer.train(2)
    assert all(s.loss is not None and np.isfinite(s.loss) for s in stats)


def test_losses_history_accumulates(test_device):
    model = MLP(test_device, hidden_dim=16, rng=np.random.default_rng(0))
    trainer = make_trainer(test_device, model)
    trainer.train(2)
    trainer.train(1)
    assert len(trainer.losses()) == 3
    assert trainer.history[-1].index == 2
