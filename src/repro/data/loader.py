"""Batch loader with a host-side latency model.

Real training iterations are separated by host work: fetching and decoding
the next batch, Python/dataloader overhead and optimizer bookkeeping.  Those
gaps are precisely where the paper's *outlier* access-time intervals come
from — blocks that are re-used across iterations see an interval that covers
the whole host-side pause.  :class:`HostLatencyModel` makes that pause an
explicit, configurable part of the simulation.

What a batch *contains* never matters to memory behavior, so the loader hands
out the dataset's shape-only stand-ins: the shapes, dtypes and byte counts
reach the trainer, and nothing ImageNet-sized is ever filled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .datasets import SyntheticDataset


@dataclass(frozen=True)
class HostLatencyModel:
    """Host-side time consumed per batch before the device can start.

    ``per_batch_ns`` models fixed Python/dataloader overhead;
    ``per_sample_ns`` models per-image decode/augmentation cost;
    ``per_byte_ns`` models memcpy/collation cost proportional to batch bytes.
    """

    per_batch_ns: int = 2_000_000          # 2 ms fixed overhead
    per_sample_ns: int = 45_000            # 45 us per sample (decode + augment)
    per_byte_ns: float = 0.05              # ~20 GB/s host-side collation

    def batch_time_ns(self, batch_size: int, batch_bytes: int) -> int:
        """Host latency for one batch of ``batch_size`` samples / ``batch_bytes`` bytes."""
        total = (self.per_batch_ns
                 + self.per_sample_ns * batch_size
                 + self.per_byte_ns * batch_bytes)
        return int(round(total))


class DataLoader:
    """Yields host batches and reports the host latency the batch cost."""

    def __init__(self, dataset: SyntheticDataset, batch_size: int,
                 host_latency: Optional[HostLatencyModel] = None):
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.host_latency = host_latency if host_latency is not None else HostLatencyModel()

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """The next host-side batch (inputs, labels), shape-only."""
        return self.dataset.batch_stand_ins(self.batch_size)

    def host_time_ns(self) -> int:
        """Host latency charged for producing one batch."""
        return self.host_latency.batch_time_ns(
            self.batch_size, self.dataset.batch_bytes(self.batch_size)
        )

    def batches(self, count: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``count`` batches."""
        for _ in range(count):
            yield self.next_batch()

    @property
    def batch_bytes(self) -> int:
        """Device bytes of one staged input batch."""
        return self.dataset.batch_bytes(self.batch_size)

    @property
    def label_bytes(self) -> int:
        """Device bytes of one staged label batch."""
        return self.dataset.label_bytes(self.batch_size)
