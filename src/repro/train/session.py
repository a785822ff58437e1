"""Profiled training sessions.

A :class:`TrainingRunConfig` declaratively describes one training workload
(model, dataset, batch size, device, allocator, host latency, replica
count) and :func:`run_training_session` builds every piece (through
:func:`record_session`: every device records from its construction, the
profiler stamps each one's recorder), trains for the requested number of
iterations and returns the recorded traces together with the per-iteration
statistics.

This is the single entry point used by the figure experiments, the examples
and the benchmark harness, so every reported number flows through the exact
same code path.

Every session runs on a :class:`~repro.device.cluster.DeviceGroup`:
``n_devices=1`` (the default, and the paper's setting) degenerates to one
replica whose event stream is byte-identical to the historical single-device
path — the golden-figure tests pin that equivalence.  With ``n_devices>1``
the session becomes synchronous data-parallel training: the global batch
sharded across ranks, a gradient allreduce on the configured interconnect
before every optimizer step, and one trace per rank; the session's merged
trace (with a ``device_rank`` dimension) is built only when it is read
(:attr:`SessionResult.trace`), and a sweep row is reduced from the rank
recordings without it.  Memory behaviour is
deterministic, so ranks the simulator cannot tell apart — one *replica
class* (:func:`~repro.train.trainer.replica_classes`: equal shard shapes, at
most two classes) — share one simulated replica: the session builds one
model / optimizer / loss / profiler per class, and a rank's trace is a view
of its class's recording that differs only in ``metadata["device_rank"]``.

A session is a :class:`Recording` plus what the row decides on top of it.
:func:`record_session` runs the front end of the row's swap-off twin once:
each replica class's requests and its behaviors recorded against them — the
malloc and free rows are the one record of the calls the placement passes
read — the same under every allocator and capacity, with the timing atoms
every device's recorder moved its clock by (:mod:`repro.device.tape`).  The
one recording serves a simulated row and a template alike: a template
capture (:mod:`repro.experiments.replay`) is this run placed, its atoms laid
out as a tape, never a second, instrumented run.  Its trainer simulates
each distinct iteration once: once an iteration leaves the devices as it
found them, the later ones are appended as its shifted copies
(:mod:`repro.train.trainer`), so the iteration count adds little to the
recording's cost.  :func:`run_training_session`
places it with the row's allocator (:meth:`Recording.placed`; a swap-on row
at the native capacity — swap execution never moves an allocation),
re-stamps it with the row's workload metadata and, for a swap-on row, runs
its policy over each class's placed recording
(:func:`repro.swap.executor.overlay`).  Rows that differ only in ``swap``,
``allocator`` and ``device_memory_capacity`` share a recording
(:func:`~repro.experiments.grid.recording_token`).
"""

from __future__ import annotations

import gc
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.profiler import MemoryProfiler
from ..core.recorder import PlacedTrace, place_traces
from ..core.trace import MemoryTrace, merge_rank_traces
from ..data.datasets import build_dataset
from ..data.loader import DataLoader, HostLatencyModel
from ..device.allocator import Placement, place
from ..device.cluster import ClusterSpec, DeviceGroup, get_interconnect
from ..device.device import Device
from ..device.spec import DeviceSpec, get_device_spec
from ..errors import ConfigurationError
from ..models.registry import build_model
from ..nn.loss import CrossEntropyLoss
from ..nn.optim import SGD, Adam, Optimizer
from .trainer import DataParallelTrainer, IterationStats, replica_classes


@dataclass
class TrainingRunConfig:
    """Declarative description of one profiled training run.

    Every run is simulated the one way there is: shapes, not values.  So
    ``seed`` only labels a row — it reaches the result's identity and its
    cache key, but no kernel, initializer or batch reads it, and two seeds
    give equal traces.  ``learning_rate`` likewise only describes the
    optimizer; ``momentum`` decides whether SGD keeps a momentum buffer.
    """

    model: str = "paper_mlp"
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    dataset: str = "two_cluster"
    dataset_kwargs: Dict[str, object] = field(default_factory=dict)
    batch_size: int = 64
    iterations: int = 5
    learning_rate: float = 0.01
    momentum: float = 0.9
    optimizer: str = "sgd"
    device_spec: str = "titan_x_pascal"
    dtype: str = "float32"
    allocator: str = "caching"
    seed: int = 0
    host_latency: Optional[HostLatencyModel] = None
    device_memory_capacity: Optional[int] = None
    host_dispatch_overhead_ns: Optional[int] = None
    n_devices: int = 1
    interconnect: str = "pcie_gen3"
    allreduce_algorithm: str = "ring"
    swap: str = "off"
    label: str = ""

    def describe(self) -> str:
        """Short human-readable description used as a default label."""
        devices = f", n_devices={self.n_devices}" if self.n_devices > 1 else ""
        swap = f", swap={self.swap}" if self.swap != "off" else ""
        return (f"{self.model} on {self.dataset} "
                f"(batch={self.batch_size}, iters={self.iterations}"
                f"{devices}{swap})")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form of this config, equal to ``dataclasses.asdict``.

        ``asdict`` walks every field through generic recursive introspection
        and dominates the cost of hashing a scenario fingerprint once the
        replay engine prices thousands of scenarios per second; this
        hand-rolled equivalent produces the identical dictionary an order of
        magnitude faster (``tests/test_sweep.py`` pins the equality).
        """
        host_latency = (asdict(self.host_latency)
                        if is_dataclass(self.host_latency) else self.host_latency)
        return {
            "model": self.model,
            "model_kwargs": dict(self.model_kwargs),
            "dataset": self.dataset,
            "dataset_kwargs": dict(self.dataset_kwargs),
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "optimizer": self.optimizer,
            "device_spec": self.device_spec,
            "dtype": self.dtype,
            "allocator": self.allocator,
            "seed": self.seed,
            "host_latency": host_latency,
            "device_memory_capacity": self.device_memory_capacity,
            "host_dispatch_overhead_ns": self.host_dispatch_overhead_ns,
            "n_devices": self.n_devices,
            "interconnect": self.interconnect,
            "allreduce_algorithm": self.allreduce_algorithm,
            "swap": self.swap,
            "label": self.label,
        }


@dataclass(frozen=True)
class RunStructure:
    """What a run's result reports that no pricing axis moves.

    A session builds one per run (:meth:`SessionResult.structure`); a replay
    template builds one from its ``meta`` and serves every pricing point with
    it.  Both build it with :meth:`of_classes`.  The peaks are per replica;
    the counts cover the merged trace, which keeps every rank's events and
    rank-disjoint block ids, so they are per-rank sums taken without merging.
    """

    peak_allocated_bytes: int
    peak_reserved_bytes: int
    parameter_bytes: int
    parameter_count: int
    num_events: int
    num_blocks: int
    allocator_stats: Dict[str, int]

    @classmethod
    def of_classes(cls, traces: Sequence[MemoryTrace], rank_classes: Sequence[int],
                   allocator_stats: Dict[str, int], **scalars: int) -> "RunStructure":
        """The structure of a run whose ranks record ``traces`` (one per
        replica class, ``rank_classes`` each rank's), given its peaks and
        parameter counts as ``scalars``."""
        events = [len(trace) for trace in traces]
        blocks = [len(trace.block_ids()) for trace in traces]
        return cls(num_events=sum(events[index] for index in rank_classes),
                   num_blocks=sum(blocks[index] for index in rank_classes),
                   allocator_stats={k: int(v) for k, v in allocator_stats.items()},
                   **{name: int(value) for name, value in scalars.items()})

    @property
    def mean_utilization(self) -> float:
        """Allocated over reserved bytes at their peaks (1.0: nothing reserved)."""
        stats = self.allocator_stats
        reserved = stats.get("peak_reserved_bytes", self.peak_reserved_bytes)
        allocated = stats.get("peak_allocated_bytes", self.peak_allocated_bytes)
        return allocated / reserved if reserved else 1.0


@dataclass
class SessionResult:
    """Everything produced by one profiled training run.

    ``class_traces`` holds one recording per replica class and
    ``rank_classes`` each rank's class; ``rank_traces`` (multi-device only)
    is every rank's view of its class recording.  What the result reports is
    measured off them (:func:`~repro.experiments.results.reduce_session`).
    ``trace`` is the rank-merged trace (every event carries its
    ``device_rank``; a single device's is its recording), built on its first
    read.  The peak byte counts are *per-replica* peaks (max across ranks —
    the number that must fit each device), and ``collective`` summarizes the
    gradient allreduces.
    """

    config: TrainingRunConfig
    class_traces: List[MemoryTrace]
    rank_classes: Tuple[int, ...]
    iteration_stats: List[IterationStats]
    parameter_bytes: int
    parameter_count: int
    peak_allocated_bytes: int
    peak_reserved_bytes: int
    allocator_stats: Dict[str, int]
    n_devices: int = 1
    collective: Optional[Dict[str, object]] = None
    rank_traces: Optional[List[MemoryTrace]] = None
    #: Swap-execution outcome (rank-0 replica's summary dict plus the rank
    #: count; replicas are symmetric) — ``None`` when ``config.swap`` is off.
    swap_execution: Optional[Dict[str, object]] = None
    #: The swap-off recording the session was made from (see :class:`Recording`).
    recording: Optional["Recording"] = field(default=None, repr=False, compare=False)

    @property
    def label(self) -> str:
        """Label for reports (falls back to the config description)."""
        return self.config.label or self.config.describe()

    @cached_property
    def trace(self) -> MemoryTrace:
        """The rank-merged trace (:func:`~repro.core.trace.merge_rank_traces`),
        merged on the first read."""
        return merge_rank_traces(self.rank_traces
                                 or [self.class_traces[0].rank_view(0)])

    def structure(self) -> RunStructure:
        """The pricing-independent scalars the per-scenario reduction reports
        (its counts summed over the ranks' class recordings)."""
        return RunStructure.of_classes(
            self.class_traces, self.rank_classes, self.allocator_stats,
            peak_allocated_bytes=self.peak_allocated_bytes,
            peak_reserved_bytes=self.peak_reserved_bytes,
            parameter_bytes=self.parameter_bytes,
            parameter_count=self.parameter_count)


def build_cluster(config: TrainingRunConfig) -> ClusterSpec:
    """Construct the cluster specification described by a run configuration
    (``device_memory_capacity`` shrinks the device and so its allocator)."""
    spec: DeviceSpec = get_device_spec(config.device_spec)
    if config.device_memory_capacity is not None:
        spec = spec.with_memory_capacity(config.device_memory_capacity)
    return ClusterSpec(
        device=spec,
        n_devices=int(config.n_devices),
        interconnect=get_interconnect(config.interconnect),
        allreduce_algorithm=config.allreduce_algorithm,
    )


def _device_kwargs(config: TrainingRunConfig) -> Dict[str, object]:
    kwargs: Dict[str, object] = dict(
        allocator=config.allocator,
        default_dtype=config.dtype,
    )
    if config.host_dispatch_overhead_ns is not None:
        kwargs["host_dispatch_overhead_ns"] = int(config.host_dispatch_overhead_ns)
    return kwargs


def build_device_group(config: TrainingRunConfig) -> DeviceGroup:
    """Construct the replica device group described by a run configuration."""
    classes = replica_classes(config.batch_size, config.n_devices)
    return DeviceGroup(build_cluster(config), rank_classes=classes,
                       **_device_kwargs(config))


def build_device(config: TrainingRunConfig) -> Device:
    """Construct one simulated device described by a run configuration."""
    return Device(build_cluster(config).device, **_device_kwargs(config))


def _build_optimizer(config: TrainingRunConfig, model) -> Optimizer:
    """Construct one replica's optimizer."""
    if config.optimizer == "sgd":
        return SGD(model.parameters(), lr=config.learning_rate,
                   momentum=config.momentum)
    if config.optimizer == "adam":
        return Adam(model.parameters(), lr=config.learning_rate)
    raise ConfigurationError(f"unknown optimizer '{config.optimizer}'")


def swap_off_twin(config: TrainingRunConfig) -> TrainingRunConfig:
    """The configuration a row's recording simulates: the row with swap off.

    Swap execution never changes what the workload asks of memory, and the
    allocator is a pass over the recording, so every swap mode, allocator
    and capacity of one workload shares this twin's front end.
    """
    if config.swap == "off":
        return config
    return replace(config, swap="off")


@dataclass(frozen=True)
class PlacedRun:
    """A :class:`Recording` placed by one allocator in one device's memory.

    ``placements`` and ``traces`` are per replica class, the peaks per
    replica and the counters replica 0's.  ``walk_indexes`` is the overlay's
    memo: one :class:`~repro.swap.executor.WalkIndex` per class trace (its
    per-row arrays and the undisturbed warm-up's learning pass).
    """

    placements: Tuple[Placement, ...]
    traces: Tuple[PlacedTrace, ...]
    iteration_stats: Tuple[IterationStats, ...]
    peak_allocated_bytes: int
    peak_reserved_bytes: int
    allocator_stats: Dict[str, int]
    walk_indexes: List = field(default_factory=list, repr=False, compare=False)


@dataclass(frozen=True)
class Recording:
    """One run of a swap-off front end, ready to be placed and overlaid by
    any row that differs from it only in ``swap``, ``allocator`` and
    ``device_memory_capacity``.

    ``traces`` holds one recording per replica class (behaviors against
    request ids, its malloc rows the requests and, with its free rows, the
    calls a placement serves), ``rank_classes`` maps each rank to its class
    and ``spec`` is the device at its native capacity.  ``atoms`` holds
    each class's logged timing atoms
    (:data:`~repro.device.tape.ATOM_DTYPE` records) and ``mark_spans`` its
    iteration marks' ``(atoms, rows)`` at begin and end, one ``(k, 4)``
    array: what a template prices (:func:`repro.experiments.replay._capture_rank`).
    Only :meth:`placed`'s memo is mutated by a session.
    """

    config: TrainingRunConfig
    traces: Tuple[MemoryTrace, ...]
    rank_classes: Tuple[int, ...]
    spec: DeviceSpec
    parameter_bytes: int
    parameter_count: int
    collective: Optional[Dict[str, object]]
    atoms: Tuple[np.ndarray, ...] = field(repr=False, compare=False)
    mark_spans: Tuple[np.ndarray, ...] = field(repr=False, compare=False)
    placements: Dict[Tuple[str, int], PlacedRun] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def n_devices(self) -> int:
        """Replica count of the recorded run."""
        return len(self.rank_classes)

    def placed(self, config: TrainingRunConfig) -> PlacedRun:
        """The recording placed by ``config``'s allocator — a swap-off row
        under its own capacity, a swap-on row at the native one — made once
        per allocator and capacity; an out-of-memory propagates."""
        allocator, spec = config.allocator, self.spec
        if config.swap == "off" and config.device_memory_capacity is not None:
            spec = spec.with_memory_capacity(config.device_memory_capacity)
        key = (allocator, spec.memory_capacity)
        run = self.placements.get(key)
        if run is None:
            placements = [place(trace, allocator, spec.memory_capacity)
                          for trace in self.traces]
            traces = place_traces(self.traces, placements, spec.cuda_malloc_overhead_ns)
            for placed in traces:
                metadata = placed.trace.metadata
                metadata.update(device=spec.to_dict(), allocator=allocator)
            run = self.placements[key] = PlacedRun(
                placements=tuple(placements),
                traces=tuple(traces),
                iteration_stats=_iteration_stats([placed.trace for placed in traces]),
                peak_allocated_bytes=max(p.stats.peak_allocated_bytes for p in placements),
                peak_reserved_bytes=max(p.stats.peak_reserved_bytes for p in placements),
                allocator_stats=placements[0].stats.to_dict())
        return run


def _iteration_stats(traces: Sequence[MemoryTrace]) -> Tuple[IterationStats, ...]:
    """Each iteration's span on the marks of ``traces``: earliest start, latest end."""
    return tuple(IterationStats(index=marks[0].index,
                                start_ns=min(mark.start_ns for mark in marks),
                                end_ns=max(mark.end_ns for mark in marks))
                 for marks in zip(*(trace.iteration_marks for trace in traces)))


def _swap_policies(config: TrainingRunConfig):
    """The row's swap policy class (``None``: swap off), looked up before
    anything is simulated so that an unknown mode fails first;
    :func:`_execute_swap` makes one instance per replica."""
    if config.swap == "off":
        return None
    from ..swap import POLICIES, SWAP_EXECUTION_MODES
    if config.swap not in SWAP_EXECUTION_MODES:
        raise ConfigurationError(
            f"unknown swap mode '{config.swap}'; known modes: "
            f"{', '.join(SWAP_EXECUTION_MODES)}")
    return POLICIES[config.swap]


def _execute_swap(config: TrainingRunConfig, recording: Recording, placed: PlacedRun,
                  policy, traces: List[MemoryTrace]):
    """Overlay ``policy`` on the placed class recordings: the overlaid
    traces, the iteration statistics re-timed like their marks, and the
    ``swap_execution`` payload (replica 0's summary plus the rank count)."""
    from ..swap.executor import overlay
    policies = [policy.for_run(world_size=recording.n_devices,
                               capacity_bytes=config.device_memory_capacity)
                for _ in traces]
    traces, summaries = overlay(traces, policies, recording.spec,
                                capacity_bytes=config.device_memory_capacity,
                                indexes=placed.walk_indexes)
    swap_execution = summaries[0].to_dict()
    swap_execution["n_ranks"] = recording.n_devices
    return traces, list(_iteration_stats(traces)), swap_execution


def workload_metadata(config: TrainingRunConfig, n_devices: int) -> Dict[str, object]:
    """The workload description every replica's trace metadata carries."""
    metadata: Dict[str, object] = {
        "workload": config.describe(),
        "model": config.model,
        "dataset": config.dataset,
        "batch_size": config.batch_size,
        "iterations": config.iterations,
        "n_devices": n_devices,
    }
    if n_devices > 1:
        metadata["interconnect"] = config.interconnect
        metadata["allreduce_algorithm"] = config.allreduce_algorithm
    if config.swap != "off":
        metadata["swap"] = config.swap
    return metadata


def record_session(config: TrainingRunConfig) -> Recording:
    """Simulate ``config``'s swap-off twin (:func:`swap_off_twin`) once.

    The one recording serves a simulated row and a template alike: each
    class's trace, timing atoms and iteration spans.

    The session's object graph is cyclic (module ↔ children, device ↔
    recorder, storage ↔ device) and all of it is live until the run ends,
    so the cyclic collector is paused while it runs — a young collection
    would mostly rescan objects still in use — and restored on the way
    out, unless the caller had it off.
    """
    if config.iterations <= 0:
        raise ConfigurationError("iterations must be positive")
    if config.n_devices < 1:
        raise ConfigurationError("n_devices must be at least 1")
    if config.batch_size < config.n_devices:
        raise ConfigurationError(
            f"batch_size ({config.batch_size}) must provide at least one sample "
            f"per device ({config.n_devices})")
    config = swap_off_twin(config)
    group = build_device_group(config)
    n_devices = group.n_devices
    base_metadata = workload_metadata(config, n_devices)
    profilers = [
        MemoryProfiler(device, metadata={**base_metadata, "device_rank": ranks[0]})
        for device, ranks in zip(group, group.class_ranks)
    ]

    # The paper instruments the allocator for the whole run, so model and
    # optimizer construction (parameter allocation + initialization) is
    # profiled too — it is what puts the "parameters" bytes in the breakdown.
    # ``group`` iterates the materialised replicas: one per replica class.
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        models = [build_model(config.model, device, **dict(config.model_kwargs))
                  for device in group]
        dataset = build_dataset(config.dataset, **dict(config.dataset_kwargs))
        # A config rebuilt from its ``to_dict()`` carries the model as a dict.
        latency = config.host_latency
        loader = DataLoader(dataset, batch_size=config.batch_size,
                            host_latency=(HostLatencyModel(**latency)
                                          if isinstance(latency, dict) else latency))
        loss_fns = [CrossEntropyLoss(device, name="loss") for device in group]
        optimizers = [_build_optimizer(config, model) for model in models]

        trainer = DataParallelTrainer(group, models, loader, optimizers, loss_fns)
        trainer.train(config.iterations)
    finally:
        if collector_was_enabled:
            gc.enable()
    recorders = [profiler.recorder for profiler in profilers]

    return Recording(
        config=config,
        traces=tuple(recorder.to_trace() for recorder in recorders),
        rank_classes=tuple(group.rank_classes),
        spec=get_device_spec(config.device_spec),
        parameter_bytes=models[0].parameter_bytes(),
        parameter_count=models[0].parameter_count(),
        collective=(trainer.collective_summary() if n_devices > 1 else None),
        atoms=tuple(recorder.atom_log() for recorder in recorders),
        mark_spans=tuple(np.array(recorder.mark_spans, dtype=np.int64).reshape(-1, 4)
                         for recorder in recorders),
    )


def _restamped(trace: MemoryTrace, recorded: Dict[str, object],
               workload: Dict[str, object]) -> MemoryTrace:
    """A view of a class recording whose metadata carries the ``workload``
    metadata in place of the ``recorded`` one, in the order a recorder
    stamps them: the profiler's own entries, the workload, the rank."""
    own = {name: value for name, value in trace.metadata.items()
           if name not in recorded and name != "device_rank"}
    return trace.with_metadata(
        {**own, **workload, "device_rank": trace.metadata["device_rank"]})


def run_training_session(config: TrainingRunConfig,
                         recording: Optional[Recording] = None) -> SessionResult:
    """Run one profiled training session and return its traces and statistics.

    The session is ``recording`` — or a fresh :func:`record_session` of
    ``config`` — placed with ``config``'s allocator
    (:meth:`Recording.placed`; an out-of-memory is raised here), re-stamped with ``config``'s workload
    metadata and, when ``config.swap`` is on, overlaid by its policy
    (:func:`repro.swap.executor.overlay`) under its capacity.  A recording
    serves every row with the same
    :func:`~repro.experiments.grid.recording_token`; the result does not
    depend on whether it was shared.  An unknown swap mode is a
    :class:`~repro.errors.ConfigurationError` raised before anything is
    simulated.  Nothing is merged here: the result keeps each replica
    class's trace and every rank's view of it (:class:`SessionResult`).
    """
    policy = _swap_policies(config)
    if recording is None:
        recording = record_session(config)
    placed = recording.placed(config)
    n_devices = recording.n_devices
    recorded = workload_metadata(recording.config, n_devices)
    workload = workload_metadata(config, n_devices)
    class_traces = [_restamped(trace.trace, recorded, workload) for trace in placed.traces]
    iteration_stats = list(placed.iteration_stats)
    swap_execution: Optional[Dict[str, object]] = None
    if policy is not None:
        class_traces, iteration_stats, swap_execution = _execute_swap(
            config, recording, placed, policy, class_traces)
    rank_traces = [class_traces[index].rank_view(rank)
                   for rank, index in enumerate(recording.rank_classes)]

    return SessionResult(
        config=config,
        class_traces=class_traces,
        rank_classes=recording.rank_classes,
        iteration_stats=iteration_stats,
        parameter_bytes=recording.parameter_bytes,
        parameter_count=recording.parameter_count,
        peak_allocated_bytes=placed.peak_allocated_bytes,
        peak_reserved_bytes=placed.peak_reserved_bytes,
        allocator_stats=dict(placed.allocator_stats),
        n_devices=n_devices,
        collective=(None if recording.collective is None
                    else dict(recording.collective)),
        rank_traces=(rank_traces if n_devices > 1 else None),
        swap_execution=swap_execution,
        recording=recording,
    )
