"""Scenario-sweep subsystem: declarative grids, parallel execution, caching.

The paper's methodology is a *characterization*: the same instrumented
training loop is run across models, batch sizes, allocators and devices, and
each run is reduced to a handful of numbers (peak memory, ATI distribution,
swappable fraction, occupation breakdown, step time).  This module makes that
sweep a first-class operation:

* :class:`SweepGrid` declares the cross product of scenario dimensions and
  expands it into concrete :class:`Scenario` objects (a
  :class:`~repro.train.session.TrainingRunConfig` plus a swap policy);
* :func:`run_scenario` executes one scenario and reduces its trace to a
  JSON-serializable :class:`ScenarioResult` (the per-scenario *metrics*, not
  the multi-megabyte trace);
* :class:`SweepRunner` executes many scenarios across a
  ``ProcessPoolExecutor`` with a content-addressed on-disk cache — a repeat
  sweep is served from JSON files in milliseconds;
* :class:`SweepResult` aggregates the scenario results into a tidy summary
  table and into the :class:`~repro.core.breakdown.BreakdownSeries` the
  figure experiments consume.

The figure experiments (``fig6_alexnet``, ``fig7_resnet``), the ablations
and the report generator (``repro report``) are thin wrappers over this
engine, so ``repro sweep`` on the command line, the benchmarks and the tests
all share one execution path.

Sweep axes
----------
``models x batch_sizes x iterations x allocators x device_specs x dtypes x
n_devices x interconnects x swaps x device_memory_capacities x
host_dispatch_overheads_ns x seeds x swap_policies``.  The ``swaps`` axis
turns the closed-loop swap-execution engine (:mod:`repro.swap`) on inside
each scenario (``off``, ``planner``, ``swap_advisor``, ``zero_offload``,
``lru``, ``unified``) — results then carry the engine's measured stall/peak
numbers next to the policy's predictions.  The ``device_memory_capacities``
axis runs each scenario under a hard capacity: with the swap engine on, the
executor's capacity governor enforces it (forced evictions with stall
accounting, a structured :class:`~repro.errors.InfeasibleScenarioError`
when infeasible); with swap off, the allocator itself is shrunk and OOMs
raw — together they trace a feasibility frontier.
The policy axis is backed by the :mod:`repro.baselines`
registry (swapping variants, recomputation, parameter compression); the
dtype axis sets the device's default training precision; the device axis
also selects the Eq.-1 bandwidths unless the runner overrides them
explicitly.  The ``n_devices`` and ``interconnects`` axes make each
scenario a data-parallel cluster (batch sharded across replicas, gradient
allreduce on the named interconnect before every optimizer step); results
then report *per-replica* peaks plus the collective summary.

Per-scenario reduction runs on the trace's column store
(:meth:`~repro.core.trace.MemoryTrace.columns`): ATI pairing via
:func:`~repro.core.ati.compute_interval_arrays`, Eq.-1 screening via
:func:`~repro.core.swap.swappable_fraction` over the interval arrays, and
the occupation breakdown via the vectorized
:func:`~repro.core.breakdown.occupation_breakdown` — the multi-megabyte
Python event objects never cross the process-pool boundary, only the
reduced :class:`ScenarioResult`.

Cache layout
------------
``<cache_dir>/<sha256(fingerprint)>.json`` where the fingerprint is the
canonical JSON of the scenario's configuration plus
:data:`RESULT_SCHEMA_VERSION`.  Bumping the schema version (or changing any
config field) invalidates stale entries by construction; nothing is ever
deleted except by ``repro sweep --clear-cache``.  Run journals
(``journals/``) and the template store (``templates/``) are sub-directories;
every file in the tree is published, read, quarantined (``quarantine/``
beside it) and cleared by one
:class:`~repro.experiments.artifacts.ArtifactStore`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
import traceback as traceback_module
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..baselines.policy import available_policies, get_policy
from ..swap.policies import EXECUTION_POLICIES, SWAP_OFF
from ..core.ati import AtiSummary, compute_interval_arrays, summarize_values_us
from ..core.breakdown import BreakdownSeries, OccupationBreakdown, occupation_breakdown
from ..core.swap import BandwidthConfig, swappable_fraction
from ..core.trace import MemoryTrace
from ..errors import (ConfigurationError, InfeasibleScenarioError,
                      InjectedFaultError, OutOfMemoryError, ReproError,
                      ScenarioTimeoutError, SweepFaultError)
from ..train.session import (RunStructure, SessionResult, TrainingRunConfig,
                             run_training_session)
from ..units import MIB
from .artifacts import ArtifactStore
from .faults import FaultPlan
from .journal import JOURNALS_DIR, RunJournal, clear_journals, run_id_for_keys

#: Version of the cached result schema; bump to invalidate every cache entry.
#: v2: policies generalized to the baselines registry, dtype axis added.
#: v3: data-parallel axes (n_devices, interconnect), collective summaries,
#:     fp32 master weights under half-precision training.
#: v4: symbolic execution mode is the sweep default,
#:     columnar recorder, per-scenario wall time in the summary table.
#: v5: closed-loop swap execution (the ``swaps`` axis / ``--swap`` flag):
#:     scenarios can run the repro.swap engine and results carry the
#:     measured-vs-predicted swap_execution summary.
#: v6: trace-template replay (``--execution replay``): replayed results are
#:     pinned bit-identical to fresh symbolic runs and share their cache
#:     entries; the bump guards against any pre-replay entry produced while
#:     the per-scenario reduction was being factored out.
#: v7: unified keep/swap/recompute policy and real capacity pressure:
#:     ``device_memory_capacity`` became the ``device_memory_capacities``
#:     sweep axis, scenario identities carry the capacity, and swap-execution
#:     summaries gained recompute/pressure counters.
RESULT_SCHEMA_VERSION = 7

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = Path(".repro_cache") / "sweeps"

#: Policies a scenario can be evaluated under (the baselines registry: the
#: historical name is kept although the axis now spans swapping, recompute
#: and parameter-compression baselines).
SWAP_POLICIES = available_policies()

#: Modes of the closed-loop swap-execution axis: ``off`` plus the executable
#: policy registry of :mod:`repro.swap` (the ``--swap`` CLI flag).
SWAP_EXECUTION_MODES = (SWAP_OFF,) + tuple(EXECUTION_POLICIES)


def default_cache_dir() -> Path:
    """The cache directory (``$REPRO_SWEEP_CACHE`` or ``.repro_cache/sweeps``)."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else DEFAULT_CACHE_DIR


# -- scenarios ------------------------------------------------------------------------


@dataclass
class Scenario:
    """One concrete sweep point: a training configuration plus a swap policy."""

    config: TrainingRunConfig
    swap_policy: str = "none"
    #: Route this scenario through the replay engine (``--execution replay``).
    #: Excluded from the fingerprint: replay is pinned bit-identical to a
    #: fresh symbolic run, so both share one cache entry.
    via_replay: bool = False

    def resolve_bandwidths(self,
                           bandwidths: Optional[BandwidthConfig] = None) -> BandwidthConfig:
        """The Eq.-1 bandwidths this scenario is evaluated under.

        An explicit override wins; otherwise the bandwidths come from the
        scenario's own device spec (for the paper's Titan X these are exactly
        the measured 6.3/6.4 GB/s), so the device axis changes the
        swap-feasibility results the way real hardware would.
        """
        if bandwidths is not None:
            return bandwidths
        from ..device.spec import get_device_spec
        return BandwidthConfig.from_device_spec(get_device_spec(self.config.device_spec))

    def fingerprint(self, bandwidths: Optional[BandwidthConfig] = None) -> Dict[str, object]:
        """Canonical JSON-friendly identity of this scenario (cache key input).

        The cosmetic ``label`` is excluded: two scenarios that run the same
        workload hit the same cache entry regardless of how they are named.
        The Eq.-1 bandwidths are *included* (resolved from the device spec
        when unset): they shape ``swappable_fraction`` and every swap-policy
        summary, so results computed under different bandwidths must never
        share a cache entry.
        """
        bandwidths = self.resolve_bandwidths(bandwidths)
        config = self.config.to_dict()
        config.pop("label", None)
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "swap_policy": self.swap_policy,
            "bandwidths": {"h2d_bytes_per_s": bandwidths.h2d_bytes_per_s,
                           "d2h_bytes_per_s": bandwidths.d2h_bytes_per_s},
            "config": config,
        }

    def key(self, bandwidths: Optional[BandwidthConfig] = None) -> str:
        """Content hash of the scenario (the cache file stem)."""
        canonical = json.dumps(self.fingerprint(bandwidths), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line description used by ``repro sweep --dry-run``."""
        c = self.config
        capacity = ("" if c.device_memory_capacity is None
                    else f" cap={c.device_memory_capacity}")
        return (f"{c.model}/{c.dataset} batch={c.batch_size} iters={c.iterations} "
                f"alloc={c.allocator} swap={self.swap_policy} device={c.device_spec} "
                f"dtype={c.dtype} ndev={c.n_devices} link={c.interconnect} "
                f"swap_exec={c.swap}{capacity} mode={c.execution_mode}")


@dataclass
class SweepGrid:
    """Declarative cross product of scenario dimensions.

    Every field that is a sequence is a sweep dimension; the cross product of
    all dimensions is expanded by :meth:`expand`.  Scalar fields are shared
    by every scenario.
    """

    models: Sequence[str] = ("mlp",)
    batch_sizes: Sequence[int] = (64,)
    iterations: Sequence[int] = (2,)
    allocators: Sequence[str] = ("caching",)
    swap_policies: Sequence[str] = ("none",)
    device_specs: Sequence[str] = ("titan_x_pascal",)
    dtypes: Sequence[str] = ("float32",)
    n_devices: Sequence[int] = (1,)
    interconnects: Sequence[str] = ("pcie_gen3",)
    swaps: Sequence[str] = ("off",)
    device_memory_capacities: Sequence[Optional[int]] = (None,)
    host_dispatch_overheads_ns: Sequence[Optional[int]] = (None,)
    seeds: Sequence[int] = (0,)
    # shared scalars
    dataset: str = "two_cluster"
    execution_mode: str = "symbolic"
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    dataset_kwargs: Dict[str, object] = field(default_factory=dict)
    optimizer: str = "sgd"
    allreduce_algorithm: str = "ring"
    host_latency: Optional[object] = None  # HostLatencyModel

    def size(self) -> int:
        """Number of scenarios the grid expands to."""
        return (len(self.models) * len(self.batch_sizes) * len(self.iterations)
                * len(self.allocators) * len(self.swap_policies)
                * len(self.device_specs) * len(self.dtypes)
                * len(self.n_devices) * len(self.interconnects)
                * len(self.swaps) * len(self.device_memory_capacities)
                * len(self.host_dispatch_overheads_ns) * len(self.seeds))

    def expand(self) -> List[Scenario]:
        """Expand the grid into concrete scenarios (deterministic order)."""
        for policy in self.swap_policies:
            if policy not in SWAP_POLICIES:
                raise ValueError(
                    f"unknown swap policy '{policy}'; known policies: {SWAP_POLICIES}")
        for swap in self.swaps:
            if swap not in SWAP_EXECUTION_MODES:
                raise ValueError(
                    f"unknown swap execution mode '{swap}'; known modes: "
                    f"{SWAP_EXECUTION_MODES}")
        # "replay" is a pseudo-mode: the scenarios themselves are plain
        # symbolic (identical fingerprints, identical results), only routed
        # through the template-replay engine by the runner.
        execution_mode = self.execution_mode
        via_replay = execution_mode == "replay"
        if via_replay:
            execution_mode = "symbolic"
        scenarios: List[Scenario] = []
        # Outermost dimension first; the policy varies fastest so that related
        # baselines of one workload sit together in the summary table.
        axes = itertools.product(
            self.models, self.batch_sizes, self.iterations, self.allocators,
            self.device_specs, self.dtypes, self.n_devices, self.interconnects,
            self.swaps, self.device_memory_capacities,
            self.host_dispatch_overheads_ns, self.seeds,
            self.swap_policies,
        )
        for (model, batch_size, iterations, allocator, device_spec, dtype,
             n_devices, interconnect, swap, capacity, overhead, seed,
             policy) in axes:
            config = TrainingRunConfig(
                model=model,
                model_kwargs=dict(self.model_kwargs),
                dataset=self.dataset,
                dataset_kwargs=dict(self.dataset_kwargs),
                batch_size=batch_size,
                iterations=iterations,
                optimizer=self.optimizer,
                device_spec=device_spec,
                dtype=dtype,
                allocator=allocator,
                execution_mode=execution_mode,
                seed=seed,
                host_latency=self.host_latency,
                device_memory_capacity=capacity,
                host_dispatch_overhead_ns=overhead,
                n_devices=n_devices,
                interconnect=interconnect,
                allreduce_algorithm=self.allreduce_algorithm,
                swap=swap,
                label=f"{model}-batch{batch_size}-{allocator}",
            )
            scenarios.append(Scenario(config=config, swap_policy=policy,
                                      via_replay=via_replay))
        return scenarios


# -- per-scenario execution -----------------------------------------------------------


@dataclass
class ScenarioResult:
    """JSON-serializable reduction of one profiled scenario."""

    scenario: Dict[str, object]        # identifying fields (model, batch_size, ...)
    key: str                           # content hash of the scenario
    peak_allocated_bytes: int
    peak_reserved_bytes: int
    peak_live_bytes: int
    parameter_bytes: int
    parameter_count: int
    num_events: int
    num_blocks: int
    step_time_s_mean: float
    step_time_s_total: float
    ati: Dict[str, float]              # AtiSummary.to_dict()
    swappable_fraction: float
    swap: Optional[Dict[str, object]]  # plan/policy summary (None for "none")
    breakdown: Dict[str, object]       # OccupationBreakdown.to_dict()
    allocator_stats: Dict[str, int]
    mean_utilization: float
    wall_time_s: float
    collective: Optional[Dict[str, object]] = None  # allreduce summary (n_devices>1)
    #: Closed-loop swap-execution summary (measured counters + stalls + the
    #: policy's predicted numbers); ``None`` when the scenario ran swap-off.
    swap_execution: Optional[Dict[str, object]] = None
    from_cache: bool = False

    def to_dict(self) -> Dict[str, object]:
        """Serialize for the on-disk cache: every field but ``from_cache``.

        The dict is new, its nested values are the result's own — read-only
        for the caller (``json.dumps`` walks them once; nothing is copied).
        """
        return {name: getattr(self, name) for name in _SERIALIZED_FIELDS}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ScenarioResult":
        """Reconstruct a result from :meth:`to_dict` output."""
        known = {f for f in ScenarioResult.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs.setdefault("from_cache", False)
        return ScenarioResult(**kwargs)

    def occupation(self) -> OccupationBreakdown:
        """The scenario's occupation breakdown as a first-class object."""
        return OccupationBreakdown.from_dict(self.breakdown)

    def row(self) -> Dict[str, object]:
        """One tidy flat row for the aggregate summary table."""
        row: Dict[str, object] = dict(self.scenario)
        collective = self.collective or {}
        iterations = max(1, int(self.scenario.get("iterations", 1)))
        row.update({
            "wall_s": round(self.wall_time_s, 3),
            "peak_alloc_mib": round(self.peak_allocated_bytes / MIB, 2),
            "peak_reserved_mib": round(self.peak_reserved_bytes / MIB, 2),
            "step_time_ms": round(self.step_time_s_mean * 1e3, 3),
            "allreduce_ms": round(
                float(collective.get("total_time_ns", 0.0)) / iterations / 1e6, 3),
            "ati_count": int(self.ati.get("count", 0)),
            "ati_p50_us": round(float(self.ati.get("p50_us", 0.0)), 3),
            "ati_p90_us": round(float(self.ati.get("p90_us", 0.0)), 3),
            "ati_p99_us": round(float(self.ati.get("p99_us", 0.0)), 3),
            "swappable_frac": round(self.swappable_fraction, 4),
            "swap_savings_mib": round(
                float((self.swap or {}).get("savings_bytes", 0)) / MIB, 2),
            "cached": self.from_cache,
        })
        execution = self.swap_execution or {}
        predicted = execution.get("predicted") or {}
        row.update({
            "swap_stall_ms": round(
                float(execution.get("stall_ns_per_iteration", 0.0)) / 1e6, 3),
            "swap_measured_mib": round(
                float(execution.get("measured_savings_bytes", 0)) / MIB, 2),
            "swap_predicted_mib": round(
                float(predicted.get("savings_bytes", 0) or 0) / MIB, 2),
            "recompute_ms": round(
                float(execution.get("recompute_ns_per_iteration", 0.0)) / 1e6, 3),
            "pressure_stall_ms": round(
                float(execution.get("pressure_stall_ns", 0.0)) / 1e6, 3),
            "peak_resident_mib": round(
                float(execution.get("peak_resident_bytes", 0)) / MIB, 2),
        })
        return row


#: What :meth:`ScenarioResult.to_dict` writes, in field order.
_SERIALIZED_FIELDS = tuple(name for name in ScenarioResult.__dataclass_fields__
                           if name != "from_cache")


def scenario_identity(scenario: Scenario) -> Dict[str, object]:
    """The identifying fields shared by result rows and failure records."""
    config = scenario.config
    return {
        "model": config.model,
        "dataset": config.dataset,
        "batch_size": config.batch_size,
        "iterations": config.iterations,
        "allocator": config.allocator,
        "swap_policy": scenario.swap_policy,
        "device_spec": config.device_spec,
        "dtype": config.dtype,
        "n_devices": config.n_devices,
        "interconnect": config.interconnect,
        "swap": config.swap,
        "device_memory_capacity": config.device_memory_capacity,
        "execution_mode": config.execution_mode,
        "seed": config.seed,
    }


def _swap_policy_summary(scenario: Scenario, trace: MemoryTrace,
                         bandwidths: BandwidthConfig) -> Optional[Dict[str, object]]:
    """Evaluate the requested policy (from the baselines registry) on the trace.

    Multi-device sessions evaluate the policy on the rank-0 replica's slice:
    every policy then reports *per-device* peaks and savings, directly
    comparable with the scenario's per-replica ``peak_allocated_bytes``
    (the merged trace would count each replicated parameter/gradient block
    once per rank).  The slice keeps the session metadata, so the rank-aware
    ZeRO-Offload partitioning still sees the cluster size.
    """
    if scenario.config.n_devices > 1:
        trace = trace.for_rank(0)
    return get_policy(scenario.swap_policy).evaluate(trace, bandwidths)


def run_scenario(scenario: Scenario,
                 bandwidths: Optional[BandwidthConfig] = None) -> ScenarioResult:
    """Execute one scenario and reduce its trace to a :class:`ScenarioResult`.

    This is the worker function shipped to the process pool, so it must stay
    importable at module top level and both its argument and its return value
    must pickle.

    Multi-device semantics: ``peak_allocated_bytes`` / ``peak_reserved_bytes``
    and the policy summary are *per replica* (what must fit one device),
    while ``peak_live_bytes``, the event counts, the ATI distribution and
    the occupation breakdown aggregate the merged multi-rank trace
    (cluster-wide totals).
    """
    bandwidths = scenario.resolve_bandwidths(bandwidths)
    started = time.perf_counter()
    session = run_training_session(scenario.config)
    return reduce_session(scenario, bandwidths, session, started)


def reduce_session(scenario: Scenario, bandwidths: BandwidthConfig,
                   session: SessionResult, started: float,
                   key: Optional[str] = None) -> ScenarioResult:
    """Reduce a finished session to a :class:`ScenarioResult`.

    The session hands :func:`reduce_trace` its trace, structure record,
    iteration durations and ``collective`` / ``swap_execution`` blocks.
    ``key`` is the scenario's content hash when the caller already computed it.
    """
    return reduce_trace(
        scenario, bandwidths, session.trace, session.structure(),
        [stats.duration_ns for stats in session.iteration_stats],
        session.collective, session.swap_execution, started, key)


def reduce_trace(scenario: Scenario, bandwidths: BandwidthConfig,
                 trace: MemoryTrace, structure: RunStructure,
                 step_durations_ns: Sequence[int],
                 collective: Optional[Dict[str, object]],
                 swap_execution: Optional[Dict[str, object]],
                 started: float, key: Optional[str] = None) -> ScenarioResult:
    """Measure a trace (ATI summary, Eq.-1 screening, occupation breakdown,
    offline policy) and assemble the result.

    Fed by a fresh session (:func:`reduce_session`) or by a trace the replay
    engine rebuilt for a policy-carrying row; the rebuilt-trace route is also
    the reference the tests diff the columnar replay reduction against.
    """
    arrays = compute_interval_arrays(trace)
    config = scenario.config
    return assemble_result(
        scenario, key if key is not None else scenario.key(bandwidths), structure,
        ati=summarize_values_us(arrays.interval_us),
        swappable=swappable_fraction(arrays, bandwidths),
        breakdown=occupation_breakdown(
            trace, label=config.label or config.describe()).to_dict(),
        step_durations_ns=step_durations_ns,
        swap=_swap_policy_summary(scenario, trace, bandwidths),
        collective=collective, swap_execution=swap_execution, started=started)


def assemble_result(scenario: Scenario, key: str, structure: RunStructure, *,
                    ati: AtiSummary, swappable: float,
                    breakdown: Dict[str, object],
                    step_durations_ns: Sequence[int],
                    swap: Optional[Dict[str, object]],
                    collective: Optional[Dict[str, object]],
                    swap_execution: Optional[Dict[str, object]],
                    started: float) -> ScenarioResult:
    """Build one :class:`ScenarioResult` from a row's measurements.

    The only place a result is put together: :func:`reduce_trace` feeds it
    what it measured on a trace, the replay engine what it read off its time
    matrix, so a result field or a step-time term is added here once.
    ``breakdown`` is ``OccupationBreakdown.to_dict()``; its total is the
    trace's peak live bytes.
    """
    durations_s = [ns / 1e9 for ns in step_durations_ns]
    total_s = float(sum(durations_s))
    return ScenarioResult(
        scenario=scenario_identity(scenario),
        key=key,
        peak_allocated_bytes=structure.peak_allocated_bytes,
        peak_reserved_bytes=structure.peak_reserved_bytes,
        peak_live_bytes=int(breakdown["total_bytes"]),
        parameter_bytes=structure.parameter_bytes,
        parameter_count=structure.parameter_count,
        num_events=structure.num_events,
        num_blocks=structure.num_blocks,
        step_time_s_mean=total_s / len(durations_s) if durations_s else 0.0,
        step_time_s_total=total_s,
        ati=ati.to_dict(),
        swappable_fraction=swappable,
        swap=swap,
        breakdown=breakdown,
        allocator_stats=dict(structure.allocator_stats),
        mean_utilization=float(structure.mean_utilization),
        wall_time_s=time.perf_counter() - started,
        collective=collective,
        swap_execution=swap_execution,
    )


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback across the process boundary."""

    def __init__(self, formatted: str):
        self.formatted = formatted

    def __str__(self) -> str:
        return self.formatted


@dataclass
class _ScenarioFailure:
    """In-band record of one scenario's failure inside a pool worker."""

    error: Exception
    traceback: str

    def unwrap(self) -> Exception:
        """The original exception, chained to the worker's traceback text."""
        self.error.__cause__ = _RemoteTraceback(f"\n{self.traceback}")
        return self.error


# -- failure taxonomy -----------------------------------------------------------------

#: Failure kinds: a *transient* failure describes the harness (retryable
#: under the per-scenario budget), a *deterministic* one describes the
#: scenario itself (recorded once, never retried).
TRANSIENT, DETERMINISTIC = "transient", "deterministic"


def classify_failure(error: BaseException) -> Tuple[str, str]:
    """Map an exception to its ``(reason code, kind)`` taxonomy verdict.

    Transient reasons — a dead worker (``BrokenProcessPool``), an expired
    per-scenario deadline, an injected harness fault, a cache/storage I/O
    error — are properties of the *run*, so retrying the scenario can
    succeed.  Deterministic reasons — an infeasible capacity, a raw OOM, a
    configuration error, and any unrecognized exception (re-running the same
    pure simulation reproduces it) — are properties of the *scenario*:
    they are recorded once in the failure manifest and never retried.
    """
    if isinstance(error, BrokenProcessPool):
        return "worker_crash", TRANSIENT
    if isinstance(error, ScenarioTimeoutError):
        return "timeout", TRANSIENT
    if isinstance(error, InjectedFaultError):
        return "injected_fault", TRANSIENT
    if isinstance(error, SweepFaultError):
        return "fault", TRANSIENT
    if isinstance(error, InfeasibleScenarioError):
        return "infeasible", DETERMINISTIC
    if isinstance(error, OutOfMemoryError):
        return "oom", DETERMINISTIC
    if isinstance(error, ConfigurationError):
        return "config", DETERMINISTIC
    if isinstance(error, OSError):
        return "io_error", TRANSIENT
    return "error", DETERMINISTIC


@dataclass
class FailureRecord:
    """One scenario's terminal entry in the sweep's failure manifest.

    Mirrors :class:`ScenarioResult` for scenarios that did not produce one:
    the identifying fields, the content-hash key, the taxonomy verdict
    (``reason`` code + ``kind``), how many attempts were spent, and the
    final error (message plus the worker traceback when one crossed the
    pool boundary).  ``resumed`` marks failures replayed from a prior run's
    journal under ``--resume`` rather than re-executed.
    """

    scenario: Dict[str, object]
    key: str
    reason: str
    kind: str
    attempts: int
    error: str
    traceback: str = ""
    resumed: bool = False
    #: The live exception (used by strict re-raise); never serialized.
    error_obj: Optional[BaseException] = field(default=None, repr=False,
                                               compare=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (drops the live exception object)."""
        data = asdict(self)
        data.pop("error_obj", None)
        return data

    def describe(self) -> str:
        """One-line rendering for the CLI/report failure footer."""
        s = self.scenario
        resumed = " (resumed)" if self.resumed else ""
        return (f"{s.get('model')}/batch={s.get('batch_size')} "
                f"alloc={s.get('allocator')} device={s.get('device_spec')} "
                f"swap={s.get('swap')}: reason={self.reason} kind={self.kind} "
                f"attempts={self.attempts}{resumed} — {self.error}")


def _run_scenario_chunk(scenarios: List[Scenario],
                        bandwidths: Optional[BandwidthConfig],
                        fault_plan: Optional[FaultPlan] = None,
                        keys: Optional[List[str]] = None,
                        attempts: Optional[List[int]] = None):
    """Pool worker: run several scenarios inside one task submission.

    Chunked submission amortizes the per-task pickling/dispatch overhead of
    the process pool across many scenarios — at symbolic-mode speeds that
    overhead is comparable to a small scenario itself.  Per-scenario failures
    are returned in-band (as a :class:`_ScenarioFailure` carrying the worker
    traceback) instead of failing the whole chunk, so one bad scenario never
    discards its chunk-mates' work.

    ``fault_plan``/``keys``/``attempts`` thread the deterministic
    fault-injection harness into the worker: each scenario's fault decision
    is a pure function of its key and attempt number, so retries across
    rebuilt pools observe the same schedule.
    """
    outcomes: List[object] = []
    for position, scenario in enumerate(scenarios):
        try:
            if fault_plan is not None and keys is not None:
                fault_plan.fire_execution(keys[position],
                                          0 if attempts is None
                                          else attempts[position],
                                          in_worker=True)
            outcomes.append(run_scenario(scenario, bandwidths=bandwidths))
        except Exception as error:  # reported to the parent, with traceback
            outcomes.append(_ScenarioFailure(error, traceback_module.format_exc()))
    return outcomes


# -- the runner -----------------------------------------------------------------------


@dataclass
class SweepResult:
    """Aggregate outcome of one sweep invocation."""

    results: List[ScenarioResult]
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    #: Scenarios priced by template replay (a subset of ``cache_misses``).
    replayed: int = 0
    #: Template *families* that needed a fresh compile this run (one family
    #: per dtype-free structure; store hits do not count).
    templates_compiled: int = 0
    #: Individual compile simulations run (>= ``templates_compiled`` when a
    #: family was widened with extra dtype variants).
    template_variants: int = 0
    #: Replay-eligible scenarios that fell back to fresh simulation, tallied
    #: by :class:`~repro.experiments.replay.TemplateError` reason code.
    replay_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Scenarios that terminally failed this run (the failure manifest);
    #: the partial ``results`` above still carry every scenario that
    #: completed.  Expansion order, like ``results``.
    failures: List[FailureRecord] = field(default_factory=list)
    #: Transient-failure re-submissions performed under the retry budget.
    retries: int = 0
    #: Corrupt artifacts moved aside this run, by kind (``cache_corrupt``,
    #: ``template_corrupt``, ``journal_corrupt``, ``manifest_corrupt``).
    quarantined: Dict[str, int] = field(default_factory=dict)
    #: Scenarios skipped because a prior run's journal already recorded
    #: their deterministic failure (``resume=True``).
    resumed_skipped: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def failure_summary(self) -> str:
        """Multi-line failure footer for the CLI/report (empty when clean)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} scenario(s) failed "
                 f"({self.retries} retries performed)"]
        lines.extend(f"  - {record.describe()}" for record in self.failures)
        if self.quarantined:
            tally = ", ".join(f"{kind}={count}"
                              for kind, count in sorted(self.quarantined.items()))
            lines.append(f"  quarantined artifacts: {tally}")
        return "\n".join(lines)

    def rows(self) -> List[Dict[str, object]]:
        """Tidy flat rows, one per scenario, in expansion order."""
        return [result.row() for result in self.results]

    def summary_table(self, columns: Optional[Sequence[str]] = None) -> str:
        """Fixed-width text table of the tidy rows."""
        from ..viz import render_table
        rows = self.rows()
        if not rows:
            return "(empty sweep)"
        if columns is None:
            columns = ["model", "dataset", "batch_size", "iterations", "allocator",
                       "swap_policy", "device_spec", "dtype", "n_devices",
                       "interconnect", "peak_alloc_mib", "step_time_ms",
                       "allreduce_ms", "ati_p50_us", "ati_p90_us", "swappable_frac",
                       "swap_savings_mib", "wall_s", "cached"]
            if any(row.get("swap", "off") != "off" for row in rows):
                columns[columns.index("swap_savings_mib"):
                        columns.index("swap_savings_mib") + 1] = [
                    "swap", "swap_measured_mib", "swap_predicted_mib",
                    "swap_stall_ms"]
            columns = [c for c in columns if c in rows[0]]
        return render_table(rows, columns=columns)

    def filter(self, **scenario_fields) -> List[ScenarioResult]:
        """Scenario results whose identifying fields match every given value."""
        return [result for result in self.results
                if all(result.scenario.get(k) == v for k, v in scenario_fields.items())]

    def breakdown_series(self, parameter: str) -> BreakdownSeries:
        """Build the figure-style series keyed on one scenario dimension."""
        series = BreakdownSeries(parameter_name=parameter)
        for result in self.results:
            series.add(result.scenario.get(parameter), result.occupation())
        return series

    def total_simulated_time_s(self) -> float:
        """Sum of the simulated training time across scenarios."""
        return float(sum(result.step_time_s_total for result in self.results))


def _parse_cache_entry(data: Dict[str, object]) -> Optional[ScenarioResult]:
    """A cache entry's result; ``None`` when its schema is stale (a plain miss)."""
    if data.get("schema_version") != RESULT_SCHEMA_VERSION:
        return None
    result = ScenarioResult.from_dict(data["result"])
    result.from_cache = True
    return result


@dataclass
class _RunState:
    """Everything one :meth:`SweepRunner.run` accumulates across its phases."""

    scenarios: List[Scenario]
    keys: List[str]
    journal: Optional[RunJournal]
    results: List[Optional[ScenarioResult]] = field(init=False)
    #: Outcomes observed per scenario index (the retry budget's meter).
    attempts: List[int] = field(init=False)
    #: Terminal failures by scenario index (the failure manifest).
    failures: Dict[int, FailureRecord] = field(default_factory=dict)
    retries: int = 0
    resumed_skipped: int = 0
    #: The replay phase's ``SweepResult`` counters (empty when it did not run).
    replay_counts: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.results = [None] * len(self.scenarios)
        self.attempts = [0] * len(self.scenarios)

    def missing(self) -> List[int]:
        """Indices with neither a result nor a terminal failure yet, in order."""
        return [index for index, result in enumerate(self.results)
                if result is None and index not in self.failures]


class SweepRunner:
    """Execute scenario sweeps with caching and optional process parallelism.

    Parameters
    ----------
    cache_dir:
        Directory of the content-addressed JSON cache.  ``None`` disables
        caching entirely (every scenario runs).
    workers:
        Number of worker processes; 1 runs scenarios serially in-process.
    use_cache:
        If false, cached entries are ignored (but fresh results are still
        written back when ``cache_dir`` is set).
    bandwidths:
        Explicit Eq.-1 bandwidth override for every scenario; ``None`` (the
        default) derives the bandwidths from each scenario's device spec.
    chunk_size:
        Scenarios submitted to a pool worker per task; ``None`` picks a size
        that gives every worker a few chunks (load balancing) while keeping
        the per-task dispatch overhead amortized.  A per-scenario
        ``timeout_s`` forces chunks of one (a deadline must map to exactly
        one scenario to kill).
    retries:
        Per-scenario budget of re-submissions after a *transient* failure
        (worker crash, timeout, injected fault, I/O error — see
        :func:`classify_failure`).  Deterministic failures are recorded once
        and never retried.
    backoff_s:
        Base of the deterministic exponential backoff between retry rounds:
        round ``n`` (1-based) sleeps ``backoff_s * 2**(n-1)`` first.
    timeout_s:
        Per-scenario wall-clock deadline.  On the pool path an overdue
        scenario gets its workers killed and the pool rebuilt; on the serial
        path the deadline is checked post-hoc (a pure simulation cannot be
        preempted in-process).
    strict:
        When true (the default, the historical behavior) the first terminal
        failure is re-raised after the run drains.  When false, failures are
        returned in ``SweepResult.failures`` and the partial results stand.
    resume:
        Consult the per-grid run journal (kept whenever a ``cache_dir`` is
        configured): scenarios that already failed
        deterministically in a prior run are skipped (resurfaced as
        ``resumed`` failure records) instead of re-executed.
    fault_plan:
        A deterministic :class:`~repro.experiments.faults.FaultPlan` to
        inject; ``None`` falls back to the ``REPRO_FAULT_PLAN`` environment
        hook (and to no-op when that is unset too).

    The worker pool is created lazily on the first parallel :meth:`run` and
    *reused across runs* — repeated sweeps (the report generator issues
    several) never pay the process-spawn cost twice.  Call :meth:`close` (or
    use the runner as a context manager) to shut the pool down eagerly.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None, workers: int = 1,
                 use_cache: bool = True,
                 bandwidths: Optional[BandwidthConfig] = None,
                 chunk_size: Optional[int] = None,
                 retries: int = 0,
                 backoff_s: float = 0.05,
                 timeout_s: Optional[float] = None,
                 strict: bool = True,
                 resume: bool = False,
                 fault_plan: Optional[FaultPlan] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.workers = max(1, int(workers))
        self.use_cache = bool(use_cache)
        self.bandwidths = bandwidths
        self.chunk_size = chunk_size
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.timeout_s = None if timeout_s is None else float(timeout_s)
        self.strict = bool(strict)
        self.resume = bool(resume)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        #: The cache directory's artifact store (journals and templates are
        #: sub-stores sharing its tallies); ``None`` when caching is off.
        self._artifacts = (ArtifactStore(self.cache_dir, self.fault_plan)
                           if self.cache_dir is not None else None)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer = None
        self._replay_engine = None  # lazy ReplayEngine (replay scenarios only)

    # -- worker pool ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The reusable worker pool (spawned on first use).

        A ``weakref.finalize`` safety net shuts the pool down when the
        runner is garbage-collected, so callers that never call
        :meth:`close` (the pre-context-manager API) do not leak worker
        processes for the rest of the interpreter's lifetime.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pool_finalizer = weakref.finalize(
                self, ProcessPoolExecutor.shutdown, self._pool, wait=False)
        return self._pool

    def close(self) -> None:
        """Shut down the reusable worker pool (idempotent)."""
        if self._pool is not None:
            self._pool_finalizer.detach()
            self._pool.shutdown(wait=True)
            self._pool = None

    def _kill_pool(self) -> None:
        """Forcibly terminate the pool (hung or crashed workers).

        ``shutdown(wait=True)`` would block forever behind a wedged scenario,
        so the timeout path terminates the worker processes directly and
        abandons the executor without waiting; the next round rebuilds a
        fresh pool via :meth:`_ensure_pool`.
        """
        if self._pool is None:
            return
        self._pool_finalizer.detach()
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # already dead — exactly what we wanted
                pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _chunks(self, missing: List[int]) -> List[List[int]]:
        """Split the pending scenario indices into per-task chunks (in order)."""
        if self.chunk_size is not None:
            size = max(1, int(self.chunk_size))
        else:
            # Aim for ~4 chunks per worker so stragglers rebalance, but never
            # less than one scenario per task.
            size = max(1, -(-len(missing) // (self.workers * 4)))
        return [missing[i:i + size] for i in range(0, len(missing), size)]

    # -- cache ------------------------------------------------------------------------

    def cache_load(self, scenario: Scenario,
                   key: Optional[str] = None) -> Optional[ScenarioResult]:
        """Load one scenario's cached result (None on miss or corrupt entry).

        ``key`` is the scenario's content hash when the caller already has it
        (:meth:`run` hashes every scenario exactly once).

        A schema-version mismatch is a legitimate invalidation (the entry is
        simply ignored); an *unparseable* entry is corruption — the artifact
        store quarantines it and tallies ``cache_corrupt`` (surfaced in
        :attr:`SweepResult.quarantined`) before the miss is reported.
        """
        if self._artifacts is None:
            return None
        if key is None:
            key = scenario.key(self.bandwidths)
        return self._artifacts.read_json(f"{key}.json", "cache_corrupt",
                                         _parse_cache_entry)

    def cache_store(self, scenario: Scenario, result: ScenarioResult,
                    key: Optional[str] = None) -> None:
        """Write one scenario result to the cache (atomic publish).

        A failed write is tallied on the artifact store but never fatal:
        losing a cache entry only costs recomputation next run, while
        aborting the sweep would discard finished work.
        """
        if self._artifacts is None:
            return
        if key is None:
            key = scenario.key(self.bandwidths)
        name = f"{key}.json"
        if self._artifacts.publish_json(name, {
                "schema_version": RESULT_SCHEMA_VERSION,
                "fingerprint": scenario.fingerprint(self.bandwidths),
                "result": result.to_dict()}) is not None:
            self._artifacts.inject_fault("cache_corrupt", name)

    def clear_cache(self) -> int:
        """Delete every cache entry; returns the number of results removed.

        Run journals, the template store and quarantined artifacts are wiped
        along with the entries they describe, but are *not* counted: callers
        display the number of results invalidated.
        """
        if self._artifacts is None:
            return 0
        clear_journals(self._artifacts)
        self._template_store().clear()
        return self._artifacts.clear("*.json")

    # -- replay -----------------------------------------------------------------------

    def _template_store(self):
        """The template store beside the result cache (``None`` without one)."""
        if self._artifacts is None:
            return None
        from .template_store import TEMPLATES_DIR, TemplateStore
        return TemplateStore(self._artifacts.sub(TEMPLATES_DIR))

    def _ensure_replay_engine(self):
        """The lazily-built replay engine (persists templates beside the cache)."""
        if self._replay_engine is None:
            from .replay import ReplayEngine
            self._replay_engine = ReplayEngine(store=self._template_store())
        return self._replay_engine

    # -- execution --------------------------------------------------------------------

    def run(self, grid_or_scenarios: Union[SweepGrid, Sequence[Scenario]]) -> SweepResult:
        """Run every scenario (cache-first), preserving expansion order.

        Four phases over one :class:`_RunState`: cache probe, resume skip
        (prior deterministic failures, when ``resume=True``), replay, then
        the guarded retry/timeout execution loop.  Each result is cached and
        journaled the moment it completes, so an interrupt at any instant
        loses at most the work in flight.  With ``strict=True`` (the default)
        the first terminal failure is re-raised after everything drains;
        otherwise failures are returned in :attr:`SweepResult.failures` next
        to the partial results.
        """
        if isinstance(grid_or_scenarios, SweepGrid):
            scenarios = grid_or_scenarios.expand()
        else:
            scenarios = list(grid_or_scenarios)
        started = time.perf_counter()

        keys = [scenario.key(self.bandwidths) for scenario in scenarios]
        journal: Optional[RunJournal] = None
        if self._artifacts is not None:
            self._artifacts.quarantined.clear()  # tallies are per run
            self._artifacts.io_errors.clear()
            if self.resume:
                journal = RunJournal.for_keys(self._artifacts, keys,
                                              RESULT_SCHEMA_VERSION)
            else:
                # A fresh run voids the prior bookkeeping without reading it:
                # an unloaded journal starts its file over at the first record.
                journal = RunJournal(
                    self._artifacts.sub(JOURNALS_DIR),
                    run_id_for_keys(keys, RESULT_SCHEMA_VERSION))
        state = _RunState(scenarios, keys, journal)

        self._probe_cache(state)
        self._skip_resumed(state)
        self._replay(state)
        self._execute(state)

        failures = [state.failures[index] for index in sorted(state.failures)]
        if self.strict and failures:
            first = failures[0]
            if first.error_obj is not None:
                raise first.error_obj
            raise ReproError(first.error)

        cache_hits = sum(1 for result in state.results
                         if result is not None and result.from_cache)
        return SweepResult(
            results=[result for result in state.results if result is not None],
            cache_hits=cache_hits,
            cache_misses=len(scenarios) - cache_hits,
            wall_time_s=time.perf_counter() - started,
            failures=failures,
            retries=state.retries,
            quarantined=(dict(self._artifacts.quarantined)
                         if self._artifacts is not None else {}),
            resumed_skipped=state.resumed_skipped,
            **state.replay_counts,
        )

    def _probe_cache(self, state: _RunState) -> None:
        """Phase 1: serve every scenario the result cache already holds."""
        if not self.use_cache:
            return
        for index, scenario in enumerate(state.scenarios):
            state.results[index] = self.cache_load(scenario, state.keys[index])

    def _skip_resumed(self, state: _RunState) -> None:
        """Phase 2 (``resume=True``): skip prior deterministic failures.

        Re-running them cannot change the outcome, so they are resurfaced in
        the manifest marked ``resumed``.  Transient failures re-run with a
        fresh budget; completed scenarios were already served by the cache
        probe (data wins over bookkeeping).
        """
        if not self.resume or state.journal is None:
            return
        for index in state.missing():
            prior = state.journal.deterministic_failure(state.keys[index])
            if prior is None:
                continue
            reason = str(prior.get("reason", "error"))
            state.failures[index] = FailureRecord(
                scenario=scenario_identity(state.scenarios[index]),
                key=state.keys[index],
                reason=reason,
                kind=DETERMINISTIC,
                attempts=int(prior.get("attempts", 1)),
                error=(f"skipped: a prior run recorded a "
                       f"deterministic '{reason}' failure"),
                resumed=True,
            )
            state.resumed_skipped += 1

    def _replay(self, state: _RunState) -> None:
        """Phase 3: price the ``via_replay`` scenarios from trace templates.

        Replay runs serially in-process: pricing a scenario from a memoized
        template is far cheaper than shipping it to a pool worker.  The
        engine groups the scenarios by structure and prices each group as a
        single broadcast.  Scenarios it declines (no template, structure
        invalid for the target capacity, swap engine on) stay missing and
        take the ordinary simulation path, with the decline reason tallied
        in ``replay_fallbacks`` — a group the engine *crashed* on degrades
        the same way (reason ``engine_error``, traceback logged).
        """
        candidates = [index for index in state.missing()
                      if state.scenarios[index].via_replay]
        if not candidates:
            return
        engine = self._ensure_replay_engine()
        outcomes = engine.price_batch(
            [state.scenarios[index] for index in candidates],
            [state.scenarios[index].resolve_bandwidths(self.bandwidths)
             for index in candidates],
            [state.keys[index] for index in candidates])
        for index, result in zip(candidates, outcomes):
            if result is not None:
                self._record_success(state, index, result)
        state.replay_counts = dict(
            replayed=engine.replayed,
            templates_compiled=engine.templates_compiled,
            template_variants=engine.variants_captured,
            replay_fallbacks=dict(engine.fallback_reasons))

    def _execute(self, state: _RunState) -> None:
        """Phase 4: run what is still missing under the retry policy.

        Scenarios execute in rounds: every pending scenario is submitted,
        outcomes are classified, transient failures within budget re-enter
        the next round (after a deterministic exponential backoff), terminal
        outcomes are recorded.  A scenario whose round died *around* it (the
        pool broke before its chunk was submitted) re-enters without
        spending an attempt — only observed outcomes consume budget, which
        both bounds the loop (the culprit's budget drains) and never charges
        an innocent scenario for its neighbor's crash.
        """
        round_number = 0
        pending = state.missing()
        while pending:
            if round_number > 0 and self.backoff_s > 0:
                time.sleep(self.backoff_s * (2 ** (round_number - 1)))
            run_round = (self._run_pool_round
                         if self.workers > 1 and len(pending) > 1
                         else self._run_serial_round)
            errors = run_round(state, pending)
            round_number += 1
            for index in pending:
                if state.results[index] is not None:
                    continue  # persisted by the round the moment it finished
                outcome = errors.get(index)
                if outcome is None:
                    # Never actually ran this round (unsubmitted when the
                    # pool died): re-enter without consuming an attempt.
                    continue
                state.attempts[index] += 1
                error, trace_text = outcome
                reason, kind = classify_failure(error)
                if kind == TRANSIENT and state.attempts[index] <= self.retries:
                    state.retries += 1
                    continue
                state.failures[index] = FailureRecord(
                    scenario=scenario_identity(state.scenarios[index]),
                    key=state.keys[index],
                    reason=reason,
                    kind=kind,
                    attempts=state.attempts[index],
                    error=str(error),
                    traceback=trace_text,
                    error_obj=error,
                )
                if state.journal is not None:
                    state.journal.record_failed(state.keys[index], reason, kind,
                                                state.attempts[index])
            pending = state.missing()

    def _record_success(self, state: _RunState, index: int,
                        result: ScenarioResult) -> None:
        """Persist one completed scenario *immediately* (crash safety).

        Caching and journaling happen the moment the result lands in the
        parent, not at end-of-round: an interrupt a millisecond later loses
        nothing that already finished.
        """
        state.attempts[index] += 1
        state.results[index] = result
        self.cache_store(state.scenarios[index], result, state.keys[index])
        if state.journal is not None:
            state.journal.record_completed(state.keys[index],
                                           state.attempts[index])

    def _run_serial_round(self, state: _RunState,
                          pending: List[int]) -> Dict[int, Tuple[BaseException, str]]:
        """Serial in-process round (``workers == 1`` or a single scenario).

        Successes are persisted in place as they complete; the return value
        maps the failed indices to their ``(error, traceback_text)``.  The
        per-scenario deadline is checked *post hoc*: a pure in-process
        simulation cannot be preempted, so an overdue scenario's result is
        discarded and replaced with a :class:`ScenarioTimeoutError` — the
        same outcome the pool path produces by killing the worker.
        ``KeyboardInterrupt`` propagates (the journal already holds every
        finished scenario, so Ctrl-C is resumable by construction).
        """
        errors: Dict[int, Tuple[BaseException, str]] = {}
        for index in pending:
            key = state.keys[index]
            scenario_started = time.perf_counter()
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire_execution(key, state.attempts[index],
                                                   in_worker=False)
                result = run_scenario(state.scenarios[index],
                                      bandwidths=self.bandwidths)
                elapsed = time.perf_counter() - scenario_started
                if self.timeout_s is not None and elapsed > self.timeout_s:
                    raise ScenarioTimeoutError(key, elapsed, self.timeout_s)
            except Exception as error:  # not KeyboardInterrupt: see above
                errors[index] = (error, traceback_module.format_exc())
                continue
            self._record_success(state, index, result)
        return errors

    def _run_pool_round(self, state: _RunState,
                        pending: List[int]) -> Dict[int, Tuple[BaseException, str]]:
        """Parallel round over the process pool (same contract as the serial one).

        An index left with neither a result nor an error was not executed
        (the pool died before its chunk was submitted) and is not charged an
        attempt.  Without a deadline this is one shot of chunked submission.
        With ``timeout_s`` set, chunks shrink to a single scenario (the unit a
        deadline can kill), submission is windowed to the worker count so
        every in-flight task's clock starts when it is actually submitted,
        and an overdue task terminates the whole pool (``os.kill`` is the
        only way to preempt a wedged worker) — innocent in-flight scenarios
        are simply not charged and re-run next round on a fresh pool.
        """
        errors: Dict[int, Tuple[BaseException, str]] = {}
        pool = self._ensure_pool()
        timeout = self.timeout_s
        if timeout is not None:
            queue = [[index] for index in pending]
        else:
            queue = self._chunks(pending)
        in_flight: Dict[object, Tuple[List[int], float]] = {}

        def submit(chunk: List[int]) -> None:
            future = pool.submit(
                _run_scenario_chunk,
                [state.scenarios[index] for index in chunk],
                self.bandwidths,
                self.fault_plan,
                [state.keys[index] for index in chunk],
                [state.attempts[index] for index in chunk])
            in_flight[future] = (chunk, time.perf_counter())

        window = self.workers if timeout is not None else len(queue)
        while queue and len(in_flight) < window:
            submit(queue.pop(0))

        pool_lost = False
        while in_flight:
            done, _ = wait(list(in_flight),
                           timeout=None if timeout is None else 0.05,
                           return_when=FIRST_COMPLETED)
            for future in done:
                chunk, _submitted_at = in_flight.pop(future)
                try:
                    chunk_outcomes = future.result()
                except Exception as error:  # pool-level failure (worker died)
                    for index in chunk:
                        errors[index] = (error, "")
                    pool_lost = True
                    continue
                for index, outcome in zip(chunk, chunk_outcomes):
                    if isinstance(outcome, _ScenarioFailure):
                        errors[index] = (outcome.unwrap(), outcome.traceback)
                    else:
                        self._record_success(state, index, outcome)
            if pool_lost:
                # Stop feeding work; drain the remaining in-flight futures
                # (a broken pool fails them fast).  Unsubmitted chunks keep
                # no outcome and re-run next round, attempt-free.
                queue.clear()
                continue
            if timeout is not None:
                now = time.perf_counter()
                overdue = [future for future, (_, submitted_at) in in_flight.items()
                           if now - submitted_at > timeout]
                if overdue:
                    for future in overdue:
                        chunk, submitted_at = in_flight.pop(future)
                        for index in chunk:
                            errors[index] = (
                                ScenarioTimeoutError(state.keys[index],
                                                     now - submitted_at,
                                                     timeout), "")
                    self._kill_pool()
                    return errors
            while queue and len(in_flight) < window:
                submit(queue.pop(0))
        if pool_lost:
            # Dispose of the broken executor so the next round (or the next
            # run()) starts from a fresh pool instead of failing fast.
            self.close()
        return errors


def run_sweep(grid: SweepGrid, cache_dir: Optional[Union[str, Path]] = None,
              workers: int = 1, use_cache: bool = True) -> SweepResult:
    """Convenience wrapper: expand ``grid`` and run it with a :class:`SweepRunner`.

    The runner (and its worker pool, if one was spawned) is shut down before
    returning; hold a :class:`SweepRunner` yourself to reuse workers across
    several sweeps.
    """
    with SweepRunner(cache_dir=cache_dir, workers=workers,
                     use_cache=use_cache) as runner:
        return runner.run(grid)
