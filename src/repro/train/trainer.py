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
against its own model copy and device, a gradient allreduce on the group's
:class:`~repro.device.collective.CollectiveEngine` synchronizes the replica
clocks (and emits the gradient read/write behaviors) *before* the per-replica
optimizer step — exactly PyTorch DDP's dataflow.  With one replica the
allreduce is skipped entirely; :class:`Trainer` is that one-replica case
around an existing device.

The trainer marks every iteration's boundaries on each device's recorder
(``begin_iteration`` / ``end_iteration``) so that the analyses can segment
the trace.

Each distinct iteration is simulated once.  An iteration is a deterministic
function of what the devices hold when it starts, so once one leaves every
replica's live requests and the replicas' clock offsets as it found them
(:func:`left_as_found`, read off the recorder's free rows: it freed exactly
the requests it made), every later iteration of the same
:meth:`DataParallelTrainer.train` call is that iteration again, shifted.
The trainer appends it as a copy (:class:`_SteadyIteration`) without
running the model: to each replica's
:class:`~repro.core.recorder.TraceRecorder` (its rows — a malloc row is a
request, bytes and category included — its ops, its request tags and its
timing atoms), its clock, the collective records and the history, with new
request ids shifted by the requests an iteration makes, every time by the
iteration's duration and every atom's row count by its rows.  Besides the
recorder, the copy is the one code that moves a device's clock.
The recorders still see ``begin_iteration`` / ``end_iteration`` around
every copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.events import MemoryCategory, MemoryEventKind
from ..core.trace import ALLREDUCE_OP, KIND_CODES, ROW_FIELDS, ROW_WIDTH
from ..device.cluster import DeviceGroup
from ..device.collective import CollectiveRecord
from ..device.device import Device
from ..device.tape import ATOM_DTYPE, ATOM_SIZE
from ..errors import ConfigurationError
from ..data.loader import DataLoader
from ..nn.module import Module
from ..nn.optim import Optimizer
from ..tensor.tensor import Tensor, from_numpy


@dataclass
class IterationStats:
    """Per-iteration measurements reported by the trainer: the iteration's
    span on the replica clocks (earliest start, latest end)."""

    index: int
    start_ns: int
    end_ns: int

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


# -- steady iterations ---------------------------------------------------------------


class _Position(NamedTuple):
    """How far one replica's record reaches: its clock and its recorder's
    requests and rows."""

    now_ns: int
    requests: int
    rows: int


def _position(device: Device) -> _Position:
    recorder = device.recorder
    return _Position(device.clock.now_ns, len(recorder.tags), len(recorder))


_KIND, _TIMESTAMP, _REQUEST, _ITERATION = (ROW_FIELDS.index(name) for name in (
    "kind_code", "timestamp_ns", "block_id", "iteration"))
_FREE = KIND_CODES[MemoryEventKind.FREE]


def _rows(device: Device, start: _Position, end: _Position) -> np.ndarray:
    """The recorder rows ``device`` wrote between ``start`` and ``end`` (a copy)."""
    return np.frombuffer(device.recorder.rows[start.rows * ROW_WIDTH:end.rows * ROW_WIDTH],
                         dtype=np.int64).reshape(-1, ROW_WIDTH)


def left_as_found(devices: Sequence[Device], starts: Sequence[_Position],
                  ends: Sequence[_Position]) -> bool:
    """Whether the iteration between ``starts`` and ``ends`` left every
    replica's live requests and the replicas' clock offsets as it found them.

    The live requests are unchanged exactly when the iteration freed the
    requests it made and no other: as many free rows as new requests, each
    of a new one (a request is freed at most once).
    """
    for device, start, end in zip(devices, starts, ends):
        if end.now_ns - ends[0].now_ns != start.now_ns - starts[0].now_ns:
            return False
        rows = _rows(device, start, end)
        freed = rows[rows[:, _KIND] == _FREE, _REQUEST]
        if freed.size != end.requests - start.requests or (
                freed.size and int(freed.min()) < start.requests):
            return False
    return True


class _ReplicaSpan:
    """One replica's record of a steady iteration, as its copies append it.

    A copy ``j`` iterations later makes the same requests with ids ``j *
    new_requests`` higher and keeps the persistent ones; every time it
    records is ``j * duration_ns`` later, and every atom it logs has ``j``
    iterations' rows more before it.  Its atoms are the ones the recorder's
    last mark, the steady iteration's, spans.
    """

    def __init__(self, device: Device, start: _Position, end: _Position):
        self.device = device
        self.duration_ns = end.now_ns - start.now_ns
        self.new_requests = end.requests - start.requests
        self.new_rows = end.rows - start.rows
        recorder = device.recorder
        #: The stores a copy extends verbatim, each with its steady slice.
        self.verbatim = [(recorder.tags, recorder.tags[start.requests:end.requests]),
                         (recorder.ops, recorder.ops[start.rows:end.rows])]
        first, _, last, _ = recorder.mark_spans[-1]
        self.atoms = np.frombuffer(recorder.atoms[first * ATOM_SIZE:last * ATOM_SIZE],
                                   dtype=ATOM_DTYPE)
        self.rows = _rows(device, start, end)
        self.renamed = self.rows[:, _REQUEST] >= start.requests

    def append(self, copy: int) -> None:
        """Append the iteration ``copy`` iterations after the steady one."""
        device, renamed = self.device, copy * self.new_requests
        for store, chunk in self.verbatim:
            store.extend(chunk)
        recorder = device.recorder
        rows = self.rows.copy()
        rows[:, _TIMESTAMP] += copy * self.duration_ns
        rows[:, _REQUEST] += self.renamed * renamed
        rows[:, _ITERATION] = recorder.current_iteration
        recorder.rows.frombytes(rows.tobytes())
        atoms = self.atoms.copy()
        atoms["rows"] += copy * self.new_rows
        recorder.atoms += atoms.tobytes()
        device.clock._now_ns += self.duration_ns


class _SteadyIteration:
    """An iteration that left the devices as it found it, appended again as
    every later iteration of the :meth:`DataParallelTrainer.train` call."""

    def __init__(self, trainer: DataParallelTrainer, stats: IterationStats,
                 starts: Sequence[_Position], ends: Sequence[_Position],
                 records: Sequence[CollectiveRecord]):
        self.stats = stats
        self.records = list(records)
        self.replicas = [_ReplicaSpan(device, start, end)
                         for device, start, end in zip(trainer.group, starts, ends)]
        self.duration_ns = self.replicas[0].duration_ns

    def repeat(self, trainer: DataParallelTrainer, index: int) -> IterationStats:
        """Append iteration ``index`` as a copy; returns its statistics."""
        copy = index - self.stats.index
        shift_ns = copy * self.duration_ns
        for device in trainer.group:
            device.recorder.begin_iteration(index)
        for replica in self.replicas:
            replica.append(copy)
        for record in self.records:
            record = replace(record, start_ns=record.start_ns + shift_ns,
                             end_ns=record.end_ns + shift_ns)
            trainer.group.collective.records.append(record)
            trainer.collective_records.append(record)
        stats = IterationStats(index=index, start_ns=self.stats.start_ns + shift_ns,
                               end_ns=self.stats.end_ns + shift_ns)
        trainer.history.append(stats)
        for device in trainer.group:
            device.recorder.end_iteration(index)
        return stats


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
    """

    def __init__(self, group: DeviceGroup, models: Sequence[Module],
                 loader: DataLoader, optimizers: Sequence[Optimizer],
                 loss_fns: Sequence[Module], post_iteration_host_ns: int = 1_000_000):
        n = group.n_materialized
        if not (len(models) == len(optimizers) == len(loss_fns) == n):
            raise ConfigurationError(
                f"need one model/optimizer/loss per replica: got {len(models)}/"
                f"{len(optimizers)}/{len(loss_fns)} for {n} device(s)")
        self.group = group
        self.models = list(models)
        self.loader = loader
        self.optimizers = list(optimizers)
        self.loss_fns = list(loss_fns)
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
        for device in self.group:
            device.recorder.begin_iteration(index)
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
        )
        self.history.append(stats)
        for device in self.group:
            device.recorder.end_iteration(index)
        return stats

    # -- multiple iterations -----------------------------------------------------------

    def train(self, num_iterations: int) -> List[IterationStats]:
        """Run ``num_iterations`` data-parallel training iterations.

        Iterations are simulated until one leaves the devices as it found
        them (:func:`left_as_found`); the rest are appended as its copies.
        """
        if num_iterations <= 0:
            raise ConfigurationError(f"num_iterations must be positive, got {num_iterations}")
        start_index = len(self.history)
        stop = start_index + num_iterations
        devices = list(self.group)
        steady: Optional[_SteadyIteration] = None
        history: List[IterationStats] = []
        for index in range(start_index, stop):
            if steady is not None:
                history.append(steady.repeat(self, index))
                continue
            starts = [_position(device) for device in devices]
            records = len(self.collective_records)
            history.append(self.train_iteration(index))
            ends = [_position(device) for device in devices]
            if index + 1 < stop and left_as_found(devices, starts, ends):
                steady = _SteadyIteration(self, history[-1], starts, ends,
                                          self.collective_records[records:])
        return history

    # -- reporting ---------------------------------------------------------------------

    def collective_summary(self) -> dict:
        """Aggregate allreduce statistics of the run (engine summary passthrough)."""
        return self.group.collective.summary()


class Trainer(DataParallelTrainer):
    """Drives training of one model on one simulated device: the one-replica
    :class:`DataParallelTrainer` over a group wrapping ``device``."""

    def __init__(self, model: Module, loader: DataLoader, optimizer: Optimizer,
                 loss_fn: Module, device: Device, post_iteration_host_ns: int = 1_000_000):
        super().__init__(DeviceGroup.of(device), [model], loader, [optimizer],
                         [loss_fn], post_iteration_host_ns=post_iteration_host_ns)
