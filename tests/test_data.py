"""Tests for synthetic datasets and the data loader."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    HostLatencyModel,
    SyntheticCIFAR100,
    SyntheticImageNet,
    SyntheticMNIST,
    TwoClusterDataset,
    build_dataset,
)
from repro.data.datasets import DatasetSpec, SyntheticDataset
from repro.errors import ConfigurationError


def test_cifar100_shapes_and_classes():
    dataset = SyntheticCIFAR100()
    inputs, labels = dataset.batch_stand_ins(8)
    assert inputs.shape == (8, 3, 32, 32)
    assert inputs.dtype == np.float32
    assert labels.shape == (8,)
    assert labels.dtype == np.int64
    assert dataset.num_classes == 100


def test_imagenet_shapes():
    dataset = SyntheticImageNet()
    inputs, labels = dataset.batch_stand_ins(2)
    assert inputs.shape == (2, 3, 224, 224)
    assert dataset.num_classes == 1000
    assert dataset.batch_bytes(2) == 2 * 3 * 224 * 224 * 4


def test_mnist_shapes():
    inputs, _ = SyntheticMNIST().batch_stand_ins(4)
    assert inputs.shape == (4, 1, 28, 28)


def test_two_cluster_dataset_is_the_paper_mlp_input():
    dataset = TwoClusterDataset()
    assert (dataset.sample_shape, dataset.num_classes) == ((2,), 2)
    assert dataset.batch_bytes(512) == 512 * 2 * 4


def test_dataset_batch_size_validation():
    with pytest.raises(ConfigurationError):
        SyntheticCIFAR100().batch_stand_ins(0)


def test_build_dataset_by_name():
    assert build_dataset("cifar100").name == "cifar100"
    assert build_dataset("two_cluster", input_dim=4).sample_shape == (4,)
    with pytest.raises(ConfigurationError):
        build_dataset("imagenet22k")


def test_datasets_carry_their_length_and_need_two_classes():
    assert len(SyntheticCIFAR100(num_samples=64)) == 64
    assert len(TwoClusterDataset()) == 100_000
    with pytest.raises(ConfigurationError, match="two classes"):
        SyntheticDataset(DatasetSpec("one_class", (4,), 1, 10))


def test_host_latency_model_scales_with_batch():
    model = HostLatencyModel(per_batch_ns=1_000, per_sample_ns=100, per_byte_ns=0.5)
    small = model.batch_time_ns(batch_size=1, batch_bytes=10)
    large = model.batch_time_ns(batch_size=100, batch_bytes=1000)
    assert small == 1_000 + 100 + 5
    assert large > small


def test_data_loader_yields_batches_and_host_time():
    dataset = SyntheticCIFAR100()
    loader = DataLoader(dataset, batch_size=16)
    inputs, labels = loader.next_batch()
    assert inputs.shape[0] == 16
    assert loader.host_time_ns() > 0
    assert loader.batch_bytes == dataset.batch_bytes(16)
    assert loader.label_bytes == 16 * 8
    batches = list(loader.batches(3))
    assert len(batches) == 3


def test_data_loader_validates_batch_size():
    with pytest.raises(ConfigurationError):
        DataLoader(SyntheticCIFAR100(), batch_size=0)
