"""The training loop (single-device and data-parallel).

One iteration reproduces the dataflow of an eager PyTorch training step:

1. host-side data loading / preprocessing (device idle — the source of the
   paper's large outlier access intervals),
2. pinned H2D staging of the input and label batches,
3. forward pass (activations allocated and saved for backward),
4. loss computation,
5. ``zero_grad`` + backward pass (activations consumed and freed, parameter
   gradients accumulated into persistent buffers),
6. optimizer step (parameters and optimizer state read/written),
7. loss readback (D2H) and bookkeeping.

:class:`DataParallelTrainer` drives the loop on a
:class:`~repro.device.cluster.DeviceGroup`: every global batch is sharded
across the ranks, each *materialised* replica — one per replica class of the
group (:func:`replica_classes`), standing for every rank of its class — runs
the per-shard forward/backward of its representative rank
against its own model copy and recorder, a gradient allreduce on the group's
:class:`~repro.device.collective.CollectiveEngine` synchronizes the replica
clocks (and emits the gradient read/write behaviors) *before* the per-replica
optimizer step — exactly PyTorch DDP's dataflow.  With one replica the
allreduce is skipped entirely; :class:`Trainer` is that one-replica case
around an existing device.

An optional recorder (duck-typed: ``begin_iteration`` / ``end_iteration``)
receives iteration boundaries so that the analyses can segment the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.events import MemoryCategory
from ..core.trace import ALLREDUCE_OP
from ..device.cluster import DeviceGroup
from ..device.collective import CollectiveRecord
from ..device.device import Device
from ..errors import ConfigurationError
from ..data.loader import DataLoader
from ..nn.module import Module
from ..nn.optim import Optimizer
from ..tensor.tensor import Tensor, from_numpy


@dataclass
class IterationStats:
    """Per-iteration measurements reported by the trainer."""

    index: int
    start_ns: int
    end_ns: int
    allocated_bytes_end: int
    peak_allocated_bytes: int
    reserved_bytes_end: int

    @property
    def duration_ns(self) -> int:
        """Wall (simulated) duration of the iteration."""
        return self.end_ns - self.start_ns


def _replica_forward_backward(device: Device, model: Module, loss_fn: Module,
                              optimizer: Optimizer, inputs_np, labels_np,
                              host_ns: int):
    """One replica's host wait, H2D staging, forward and backward pass.

    Returns the staged ``(inputs, labels, loss)`` tensors still holding
    device memory.
    """
    device.host_pause(host_ns)
    inputs = from_numpy(device, inputs_np, category=MemoryCategory.INPUT,
                        tag="input_batch", stage_h2d=True)
    labels = from_numpy(device, labels_np, category=MemoryCategory.LABEL,
                        tag="label_batch", stage_h2d=True)
    logits = model(inputs)
    loss = loss_fn(logits, labels)
    logits.release()
    optimizer.zero_grad()
    grad_logits = loss_fn.backward()
    grad_inputs = model.backward(grad_logits)
    grad_logits.release()
    grad_inputs.release()
    return inputs, labels, loss


def _replica_readback_release(device: Device, loss: Tensor, inputs: Tensor,
                              labels: Tensor, post_iteration_host_ns: int) -> None:
    """One replica's loss readback (D2H), tensor releases and host bookkeeping."""
    loss.copy_to_host()
    loss.release()
    inputs.release()
    labels.release()
    device.host_pause(post_iteration_host_ns)


def shard_batch(array: np.ndarray, n_shards: int) -> List[np.ndarray]:
    """Split one global batch along the sample axis into ``n_shards`` shards.

    The batch must provide at least one sample per shard; with one shard the
    (single) shard is the batch itself.
    """
    if n_shards == 1:
        return [array]
    if array.shape[0] < n_shards:
        raise ConfigurationError(
            f"cannot shard a batch of {array.shape[0]} samples across "
            f"{n_shards} devices")
    return np.array_split(array, n_shards)


def replica_classes(batch_size: int, n_devices: int) -> List[int]:
    """Label every rank by what tells its replica apart in the simulator.

    A replica's event stream is a function of its shard's *shape* only, so
    ranks are labelled with their shard's sample count under
    :func:`shard_batch` (at most two distinct counts for any ``n_devices``).
    Ranks with equal labels are simulated once
    (:class:`~repro.device.cluster.DeviceGroup`).
    """
    samples = np.empty((batch_size, 0), dtype=np.int8)
    return [shard.shape[0] for shard in shard_batch(samples, n_devices)]


class DataParallelTrainer:
    """Drives synchronous data-parallel training on a :class:`DeviceGroup`.

    Parameters
    ----------
    group:
        The materialised replica devices (one per replica class) plus their
        collective engine.
    models / optimizers / loss_fns:
        One copy per materialised replica, in class order.
    loader:
        The single host-side loader producing *global* batches; every
        iteration the batch is sharded across the ``n_devices`` ranks and
        each replica trains on its class representative's shard.
    recorders:
        Optional per-replica recorders (duck-typed ``begin_iteration`` /
        ``end_iteration``), e.g. one
        :class:`~repro.core.profiler.MemoryProfiler` per replica.
    """

    def __init__(self, group: DeviceGroup, models: Sequence[Module],
                 loader: DataLoader, optimizers: Sequence[Optimizer],
                 loss_fns: Sequence[Module], recorders: Optional[Sequence] = None,
                 post_iteration_host_ns: int = 1_000_000):
        n = group.n_materialized
        if not (len(models) == len(optimizers) == len(loss_fns) == n):
            raise ConfigurationError(
                f"need one model/optimizer/loss per replica: got {len(models)}/"
                f"{len(optimizers)}/{len(loss_fns)} for {n} device(s)")
        if recorders is not None and len(recorders) != n:
            raise ConfigurationError(
                f"need one recorder per replica, got {len(recorders)} for {n}")
        self.group = group
        self.models = list(models)
        self.loader = loader
        self.optimizers = list(optimizers)
        self.loss_fns = list(loss_fns)
        self.recorders = list(recorders) if recorders is not None else []
        self.post_iteration_host_ns = int(post_iteration_host_ns)
        self.history: List[IterationStats] = []
        self.collective_records: List[CollectiveRecord] = []

    @property
    def n_devices(self) -> int:
        """Number of data-parallel ranks (the cluster's replica count)."""
        return self.group.n_devices

    # -- gradient allreduce ------------------------------------------------------------

    def _allreduce_gradients(self) -> Optional[CollectiveRecord]:
        """Average the replica gradients (barrier + collective cost + behaviors).

        Emits one ``read`` per gradient buffer per replica when the
        collective starts (the send), advances every replica clock through
        the cluster's allreduce cost model, and emits one ``write`` per
        buffer per replica at completion (the reduced result landing back in
        place).  Skipped entirely for a one-device cluster.
        """
        if self.n_devices == 1:
            return None
        grads_per_rank = [[parameter.grad for parameter in model.parameters()
                           if parameter.grad is not None]
                          for model in self.models]
        nbytes = sum(grad.nbytes for grad in grads_per_rank[0])
        for grads in grads_per_rank:
            for grad in grads:
                grad.storage.record_read(ALLREDUCE_OP)
        record = self.group.collective.allreduce(nbytes, tag=ALLREDUCE_OP)
        for grads in grads_per_rank:
            for grad in grads:
                grad.storage.record_write(ALLREDUCE_OP)
        self.collective_records.append(record)
        return record

    # -- single iteration --------------------------------------------------------------

    def train_iteration(self, index: int) -> IterationStats:
        """Run one data-parallel iteration; returns the aggregated statistics."""
        for recorder in self.recorders:
            recorder.begin_iteration(index)
        start_ns = min(device.clock.now_ns for device in self.group)

        # 1. One global host-side batch, sharded across the replicas.  Every
        # replica waits out the same host-side preparation time.
        inputs_np, labels_np = self.loader.next_batch()
        input_shards = shard_batch(inputs_np, self.n_devices)
        label_shards = shard_batch(labels_np, self.n_devices)
        host_ns = self.loader.host_time_ns()

        inputs: List[Tensor] = []
        labels: List[Tensor] = []
        losses: List[Tensor] = []
        # 2. Per-replica stage + forward + backward on the shard of the
        # replica's representative rank (the exact single-device phases).
        for replica, (device, ranks) in enumerate(zip(self.group,
                                                      self.group.class_ranks)):
            rank_inputs, rank_labels, loss = _replica_forward_backward(
                device, self.models[replica], self.loss_fns[replica],
                self.optimizers[replica], input_shards[ranks[0]],
                label_shards[ranks[0]], host_ns)
            inputs.append(rank_inputs)
            labels.append(rank_labels)
            losses.append(loss)

        # 3. Gradient allreduce (no-op for one replica), then the optimizer
        # step every replica applies to its identical weights.
        self._allreduce_gradients()
        for optimizer in self.optimizers:
            optimizer.step()

        # 4. Per-replica loss readback (D2H) and host-side bookkeeping.
        for replica, device in enumerate(self.group):
            _replica_readback_release(device, losses[replica], inputs[replica],
                                      labels[replica], self.post_iteration_host_ns)

        stats = IterationStats(
            index=index,
            start_ns=start_ns,
            end_ns=max(device.clock.now_ns for device in self.group),
            allocated_bytes_end=max(device.allocated_bytes for device in self.group),
            peak_allocated_bytes=max(device.peak_allocated_bytes
                                     for device in self.group),
            reserved_bytes_end=max(device.reserved_bytes for device in self.group),
        )
        self.history.append(stats)
        for recorder in self.recorders:
            recorder.end_iteration(index)
        return stats

    # -- multiple iterations -----------------------------------------------------------

    def train(self, num_iterations: int) -> List[IterationStats]:
        """Run ``num_iterations`` data-parallel training iterations."""
        if num_iterations <= 0:
            raise ConfigurationError(f"num_iterations must be positive, got {num_iterations}")
        start_index = len(self.history)
        return [self.train_iteration(start_index + offset)
                for offset in range(num_iterations)]

    # -- reporting ---------------------------------------------------------------------

    def collective_summary(self) -> dict:
        """Aggregate allreduce statistics of the run (engine summary passthrough)."""
        return self.group.collective.summary()


class Trainer(DataParallelTrainer):
    """Drives training of one model on one simulated device: the one-replica
    :class:`DataParallelTrainer` over a group wrapping ``device``."""

    def __init__(self, model: Module, loader: DataLoader, optimizer: Optimizer,
                 loss_fn: Module, device: Device, recorder=None,
                 post_iteration_host_ns: int = 1_000_000):
        super().__init__(DeviceGroup.of(device), [model], loader, [optimizer],
                         [loss_fn],
                         recorders=None if recorder is None else [recorder],
                         post_iteration_host_ns=post_iteration_host_ns)
