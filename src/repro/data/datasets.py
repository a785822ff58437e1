"""Synthetic datasets with the shapes of the paper's workloads.

Memory behavior depends only on tensor shapes and batch size, never on pixel
values, so the paper's CIFAR-100 and ImageNet workloads are replaced by
synthetic datasets that produce batches of identical shape — and a symbolic
session, which keeps no values at all, is served
:meth:`SyntheticDataset.batch_stand_ins`: zero-stride views carrying the
batch's shape and dtype, built without touching the generator.  A small
separable two-cluster dataset is provided for the MLP so that eager training
measurably reduces the loss (used by integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng import LazyGenerator


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset: sample shape and label space."""

    name: str
    sample_shape: Tuple[int, ...]
    num_classes: int
    num_samples: int

    @property
    def sample_bytes(self) -> int:
        """Bytes of one float32 sample."""
        return int(np.prod(self.sample_shape)) * 4


class SyntheticDataset:
    """Base class: draws random batches with a fixed shape and label count."""

    def __init__(self, spec: DatasetSpec, seed: int = 0):
        if spec.num_classes <= 1:
            raise ConfigurationError("datasets need at least two classes")
        self.spec = spec
        self._rng = LazyGenerator(seed)

    def __len__(self) -> int:
        return self.spec.num_samples

    @property
    def name(self) -> str:
        """Dataset name."""
        return self.spec.name

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """Shape of a single sample (without the batch dimension)."""
        return self.spec.sample_shape

    @property
    def num_classes(self) -> int:
        """Number of target classes."""
        return self.spec.num_classes

    def sample_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw a batch: float32 inputs of shape ``(batch, *sample_shape)`` and int64 labels."""
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        inputs = self._rng.standard_normal(
            (batch_size,) + self.spec.sample_shape
        ).astype(np.float32)
        labels = self._rng.integers(0, self.spec.num_classes, size=batch_size).astype(np.int64)
        return inputs, labels

    def batch_stand_ins(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """What :meth:`sample_batch` returns, minus the values: no draw, no buffer.

        Read-only zero-stride views with the batch's shape, dtype, ``size``
        and ``nbytes``; slicing and ``np.array_split`` give views again.
        """
        inputs = np.broadcast_to(np.float32(0), (batch_size,) + self.spec.sample_shape)
        return inputs, np.broadcast_to(np.int64(0), (batch_size,))

    def batch_bytes(self, batch_size: int) -> int:
        """Device bytes needed to stage one input batch (float32)."""
        return batch_size * self.spec.sample_bytes

    def label_bytes(self, batch_size: int) -> int:
        """Device bytes needed to stage one label batch (int64)."""
        return batch_size * 8


class SyntheticCIFAR100(SyntheticDataset):
    """CIFAR-100-shaped synthetic data: 3x32x32 float32 images, 100 classes."""

    def __init__(self, num_samples: int = 50_000, seed: int = 0):
        super().__init__(DatasetSpec("cifar100", (3, 32, 32), 100, num_samples), seed=seed)


class SyntheticCIFAR10(SyntheticDataset):
    """CIFAR-10-shaped synthetic data: 3x32x32 float32 images, 10 classes."""

    def __init__(self, num_samples: int = 50_000, seed: int = 0):
        super().__init__(DatasetSpec("cifar10", (3, 32, 32), 10, num_samples), seed=seed)


class SyntheticImageNet(SyntheticDataset):
    """ImageNet-shaped synthetic data: 3x224x224 float32 images, 1000 classes."""

    def __init__(self, num_samples: int = 1_281_167, seed: int = 0):
        super().__init__(DatasetSpec("imagenet", (3, 224, 224), 1000, num_samples), seed=seed)


class SyntheticMNIST(SyntheticDataset):
    """MNIST-shaped synthetic data: 1x28x28 float32 images, 10 classes."""

    def __init__(self, num_samples: int = 60_000, seed: int = 0):
        super().__init__(DatasetSpec("mnist", (1, 28, 28), 10, num_samples), seed=seed)


class TwoClusterDataset(SyntheticDataset):
    """A linearly separable two-class dataset for the paper's MLP case study.

    Samples are drawn from two Gaussian clusters in ``input_dim`` dimensions,
    so a small MLP trained on it measurably reduces its loss within a few
    iterations — used by integration tests to verify end-to-end training.
    """

    def __init__(self, input_dim: int = 2, num_samples: int = 100_000, seed: int = 0,
                 separation: float = 3.0):
        spec = DatasetSpec("two_cluster", (input_dim,), 2, num_samples)
        super().__init__(spec, seed=seed)
        self.separation = float(separation)
        self._centers = np.stack([
            np.full(input_dim, -self.separation / 2.0, dtype=np.float32),
            np.full(input_dim, self.separation / 2.0, dtype=np.float32),
        ])

    def sample_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = self._rng.integers(0, 2, size=batch_size).astype(np.int64)
        noise = self._rng.standard_normal(
            (batch_size,) + self.spec.sample_shape
        ).astype(np.float32)
        inputs = self._centers[labels] + noise
        return inputs.astype(np.float32), labels


#: Registry of dataset presets keyed by the names used in experiment configs.
DATASET_PRESETS = {
    "cifar100": SyntheticCIFAR100,
    "cifar10": SyntheticCIFAR10,
    "imagenet": SyntheticImageNet,
    "mnist": SyntheticMNIST,
    "two_cluster": TwoClusterDataset,
}


def build_dataset(name: str, **kwargs) -> SyntheticDataset:
    """Instantiate a dataset preset by name."""
    try:
        cls = DATASET_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASET_PRESETS))
        raise ConfigurationError(f"unknown dataset '{name}'; known datasets: {known}") from None
    return cls(**kwargs)
