"""Per-scenario execution and reduction: one scenario in, one result out.

:func:`run_scenario` executes one scenario and reduces its trace to a
JSON-serializable :class:`ScenarioResult` — the per-scenario *metrics*, not
the multi-megabyte trace.  The reduction runs on the trace's column store
(:meth:`~repro.core.trace.MemoryTrace.columns`): ATI pairing via
:func:`~repro.core.ati.compute_interval_arrays`, Eq.-1 screening via
:func:`~repro.core.swap.swappable_fraction` over the interval arrays, and
the occupation breakdown via the vectorized
:func:`~repro.core.breakdown.occupation_breakdown` — the multi-megabyte
Python event objects never cross the process-pool boundary, only the
reduced :class:`ScenarioResult`.  Every result is put together by
:func:`assemble_result`, fed by a trace (:func:`reduce_trace`) or by the
replay engine's time matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.ati import AtiSummary, compute_interval_arrays, summarize_values_us
from ..core.breakdown import OccupationBreakdown, occupation_breakdown
from ..core.swap import BandwidthConfig, swappable_fraction
from ..core.trace import MemoryTrace
from ..errors import ConfigurationError
from ..swap.policies import SWAP_POLICIES, MemoryPolicy, get_policy
from ..train.session import RunStructure, SessionResult, run_training_session
from ..units import MIB
from .grid import Scenario


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


def _offline_policy(name: str) -> MemoryPolicy:
    """The registered policy ``name``, which must have an offline estimate."""
    if name not in SWAP_POLICIES:
        raise ConfigurationError(
            f"unknown swap policy '{name}'; known policies: {', '.join(SWAP_POLICIES)}")
    return get_policy(name)


def _swap_policy_summary(scenario: Scenario, trace: MemoryTrace,
                         bandwidths: BandwidthConfig) -> Optional[Dict[str, object]]:
    """Evaluate the requested offline policy on the trace.

    Multi-device sessions evaluate the policy on the rank-0 replica's slice:
    every policy then reports *per-device* peaks and savings, directly
    comparable with the scenario's per-replica ``peak_allocated_bytes``
    (the merged trace would count each replicated parameter/gradient block
    once per rank).  The slice keeps the session metadata, so the rank-aware
    ZeRO-Offload partitioning still sees the cluster size.
    """
    if scenario.config.n_devices > 1:
        trace = trace.for_rank(0)
    return _offline_policy(scenario.swap_policy).evaluate(trace, bandwidths)


def run_scenario(scenario: Scenario,
                 bandwidths: Optional[BandwidthConfig] = None) -> ScenarioResult:
    """Execute one scenario and reduce its trace to a :class:`ScenarioResult`.

    This is the worker function shipped to the process pool, so it must stay
    importable at module top level and both its argument and its return value
    must pickle.  An unknown offline policy is a
    :class:`~repro.errors.ConfigurationError` raised before the simulation
    starts, like an unknown swap mode.

    Multi-device semantics: ``peak_allocated_bytes`` / ``peak_reserved_bytes``
    and the policy summary are *per replica* (what must fit one device),
    while ``peak_live_bytes``, the event counts, the ATI distribution and
    the occupation breakdown aggregate the merged multi-rank trace
    (cluster-wide totals).
    """
    bandwidths = scenario.resolve_bandwidths(bandwidths)
    _offline_policy(scenario.swap_policy)
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
    return assemble_result(
        scenario, key if key is not None else scenario.key(bandwidths), structure,
        ati=summarize_values_us(arrays.interval_us),
        swappable=swappable_fraction(arrays, bandwidths),
        breakdown=occupation_breakdown(trace, label=scenario.label).to_dict(),
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
