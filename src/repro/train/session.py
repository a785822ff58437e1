"""Profiled training sessions.

A :class:`TrainingRunConfig` declaratively describes one training workload
(model, dataset, batch size, device, allocator, execution mode, host latency,
replica count) and :func:`run_training_session` builds every piece, attaches
the memory profiler, trains for the requested number of iterations and
returns the recorded trace together with the per-iteration statistics.

This is the single entry point used by the figure experiments, the examples
and the benchmark harness, so every reported number flows through the exact
same code path.

Every session runs on a :class:`~repro.device.cluster.DeviceGroup`:
``n_devices=1`` (the default, and the paper's setting) degenerates to one
replica whose event stream is byte-identical to the historical single-device
path — the golden-figure tests pin that equivalence.  With ``n_devices>1``
the session becomes synchronous data-parallel training: the global batch
sharded across ranks, a gradient allreduce on the configured interconnect
before every optimizer step, and one trace per rank merged (with a
``device_rank`` dimension) into the session trace.  Memory behaviour is
deterministic, so ranks the simulator cannot tell apart — one *replica
class* (:func:`~repro.train.trainer.replica_classes`: equal shard shapes in
symbolic mode, at most two classes; every rank on its own in eager mode) —
share one simulated replica: the session builds one identically seeded
model / optimizer / loss / profiler / swap executor per class, and a rank's
trace is a view of its class's recording that differs only in
``metadata["device_rank"]``.
"""

from __future__ import annotations

import gc
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Dict, List, Optional

from ..core.profiler import MemoryProfiler
from ..core.trace import MemoryTrace, merge_rank_traces
from ..data.datasets import build_dataset
from ..data.loader import DataLoader, HostLatencyModel
from ..device.cluster import ClusterSpec, DeviceGroup, get_interconnect
from ..device.device import Device
from ..device.spec import DeviceSpec, get_device_spec
from ..errors import ConfigurationError
from ..models.registry import build_model
from ..nn.loss import CrossEntropyLoss
from ..nn.optim import SGD, Adam, Optimizer
from ..rng import LazyGenerator
from .trainer import DataParallelTrainer, IterationStats, replica_classes


@dataclass
class TrainingRunConfig:
    """Declarative description of one profiled training run."""

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
    execution_mode: str = "eager"
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
                f"(batch={self.batch_size}, iters={self.iterations}, "
                f"mode={self.execution_mode}{devices}{swap})")

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
            "execution_mode": self.execution_mode,
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
    it.  The peaks are per replica, the counts cover the merged trace.
    """

    peak_allocated_bytes: int
    peak_reserved_bytes: int
    parameter_bytes: int
    parameter_count: int
    num_events: int
    num_blocks: int
    allocator_stats: Dict[str, int]

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

    For multi-device sessions ``trace`` is the rank-merged trace (every event
    carries its ``device_rank``), the peak byte counts are *per-replica*
    peaks (max across ranks — the number that must fit each device), and
    ``collective`` summarizes the gradient allreduces.
    """

    config: TrainingRunConfig
    trace: MemoryTrace
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

    @property
    def label(self) -> str:
        """Label for reports (falls back to the config description)."""
        return self.config.label or self.config.describe()

    def structure(self) -> RunStructure:
        """The pricing-independent scalars the per-scenario reduction reports."""
        return RunStructure(
            peak_allocated_bytes=int(self.peak_allocated_bytes),
            peak_reserved_bytes=int(self.peak_reserved_bytes),
            parameter_bytes=int(self.parameter_bytes),
            parameter_count=int(self.parameter_count),
            num_events=len(self.trace),
            num_blocks=len(self.trace.block_ids()),
            allocator_stats={k: int(v) for k, v in self.allocator_stats.items()},
        )

    def losses(self) -> List[Optional[float]]:
        """Loss per iteration (``None`` entries in symbolic execution)."""
        return [stats.loss for stats in self.iteration_stats]


def build_cluster(config: TrainingRunConfig) -> ClusterSpec:
    """Construct the cluster specification described by a run configuration.

    With the swap engine on, ``device_memory_capacity`` is enforced by the
    executor's capacity governor (forced eviction with stall accounting, a
    structured :class:`~repro.errors.InfeasibleScenarioError` when even full
    eviction cannot fit) rather than by shrinking the allocator — the
    allocator keeps its native capacity so blocks that are merely *swapped
    out* do not trip a raw OOM while their bytes are on the host.
    """
    spec: DeviceSpec = get_device_spec(config.device_spec)
    if config.device_memory_capacity is not None and config.swap == "off":
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
        execution_mode=config.execution_mode,
        default_dtype=config.dtype,
    )
    if config.host_dispatch_overhead_ns is not None:
        kwargs["host_dispatch_overhead_ns"] = int(config.host_dispatch_overhead_ns)
    return kwargs


def build_device_group(config: TrainingRunConfig) -> DeviceGroup:
    """Construct the replica device group described by a run configuration."""
    classes = replica_classes(config.batch_size, config.n_devices,
                              config.execution_mode == "symbolic")
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


def _build_swap_executors(config: TrainingRunConfig, group: DeviceGroup):
    """One closed-loop swap executor per materialised replica (empty when off).

    Executors are attached *before* the profilers so that the stalls they
    insert and the ``swap_in`` events they emit land ahead of the accesses
    that needed them (see :mod:`repro.swap`).
    """
    if config.swap == "off":
        return []
    from ..swap import POLICIES, SWAP_EXECUTION_MODES, SwapExecutor
    if config.swap not in SWAP_EXECUTION_MODES:
        raise ConfigurationError(
            f"unknown swap mode '{config.swap}'; known modes: "
            f"{', '.join(SWAP_EXECUTION_MODES)}")
    executors = []
    for device in group:
        policy = POLICIES[config.swap].for_run(
            world_size=group.n_devices, capacity_bytes=config.device_memory_capacity)
        executor = SwapExecutor(device, policy,
                                capacity_bytes=config.device_memory_capacity)
        device.attach_swap_executor(executor)
        executors.append(executor)
    return executors


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


def run_training_session(config: TrainingRunConfig, capture=None) -> SessionResult:
    """Run one profiled training session and return its trace and statistics.

    ``capture`` is an optional instrumentation hook used by the replay engine
    (:mod:`repro.experiments.replay`): an object with ``attach(group)`` —
    called right after device construction, before any profiled work — and
    ``collect(profilers, traces)`` — called once the session is complete with
    the per-class profilers and their traces.
    Ordinary callers leave it ``None`` and pay nothing.

    The session's object graph is cyclic (block lists, segment ↔ block,
    module ↔ children, device ↔ allocator ↔ listeners) and all of it is live
    until the session returns, so the cyclic collector is paused while it
    runs — a young collection would mostly rescan objects still in use —
    and restored on the way out, unless the caller had it off.
    """
    if config.iterations <= 0:
        raise ConfigurationError("iterations must be positive")
    if config.n_devices < 1:
        raise ConfigurationError("n_devices must be at least 1")
    if config.batch_size < config.n_devices:
        raise ConfigurationError(
            f"batch_size ({config.batch_size}) must provide at least one sample "
            f"per device ({config.n_devices})")
    group = build_device_group(config)
    if capture is not None:
        capture.attach(group)
    n_devices = group.n_devices
    swap_executors = _build_swap_executors(config, group)

    base_metadata = workload_metadata(config, n_devices)
    profilers = [
        MemoryProfiler(device, metadata={**base_metadata, "device_rank": ranks[0]})
        for device, ranks in zip(group, group.class_ranks)
    ]

    # The paper instruments the allocator for the whole run, so model and
    # optimizer construction (parameter allocation + initialization) is
    # profiled too — it is what puts the "parameters" bytes in the breakdown.
    # Every replica initializes from an identically seeded generator, so all
    # ranks start (and, after each allreduce, stay) with the same weights.
    # ``group`` iterates the materialised replicas: one per replica class.
    for profiler in profilers:
        profiler.start()
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        models = [build_model(config.model, device,
                              rng=LazyGenerator(config.seed),
                              **dict(config.model_kwargs))
                  for device in group]
        dataset = build_dataset(config.dataset, seed=config.seed,
                                **dict(config.dataset_kwargs))
        # A config rebuilt from its ``to_dict()`` carries the model as a dict.
        latency = config.host_latency
        loader = DataLoader(dataset, batch_size=config.batch_size,
                            host_latency=(HostLatencyModel(**latency)
                                          if isinstance(latency, dict) else latency),
                            symbolic=config.execution_mode == "symbolic")
        loss_fns = [CrossEntropyLoss(device, name="loss") for device in group]
        optimizers = [_build_optimizer(config, model) for model in models]

        trainer = DataParallelTrainer(group, models, loader, optimizers, loss_fns,
                                      recorders=profilers,
                                      swap_executors=swap_executors or None)
        iteration_stats = trainer.train(config.iterations)
        for executor in swap_executors:
            executor.finalize()
    finally:
        for profiler in profilers:
            profiler.stop()
        if collector_was_enabled:
            gc.enable()
    class_traces = [profiler.trace() for profiler in profilers]
    rank_traces = [class_traces[index].rank_view(rank)
                   for rank, index in enumerate(group.rank_classes)]
    trace = merge_rank_traces(rank_traces)

    swap_execution: Optional[Dict[str, object]] = None
    if swap_executors:
        swap_execution = swap_executors[0].summary().to_dict()
        swap_execution["n_ranks"] = n_devices

    if capture is not None:
        capture.collect(profilers=profilers, traces=class_traces)

    return SessionResult(
        config=config,
        trace=trace,
        iteration_stats=iteration_stats,
        parameter_bytes=models[0].parameter_bytes(),
        parameter_count=models[0].parameter_count(),
        peak_allocated_bytes=max(device.peak_allocated_bytes for device in group),
        peak_reserved_bytes=max(device.peak_reserved_bytes for device in group),
        allocator_stats=group.primary.memory_stats(),
        n_devices=n_devices,
        collective=(trainer.collective_summary() if n_devices > 1 else None),
        rank_traces=(rank_traces if n_devices > 1 else None),
        swap_execution=swap_execution,
    )
