"""Per-scenario execution and reduction: one scenario in, one result out.

:func:`run_scenario` executes one scenario and reduces it to a
JSON-serializable :class:`ScenarioResult` — the per-scenario *metrics*, not
the multi-megabyte trace; :func:`run_scenario_on` does the same on a
swap-off recording an earlier row already made.  :func:`reduce_trace` is the
one reduction of recordings: a session hands it one recording per replica
class and each rank's class (:func:`reduce_session`), and it measures the
merged trace those ranks record without building it — ATI pairing via
:func:`~repro.core.ati.compute_interval_arrays` once per class
(:func:`measure_class`, as the replay template measures a class), Eq.-1
screening via :func:`~repro.core.swap.swappable_fractions` and the
occupation breakdown via :func:`~repro.core.breakdown.occupation_from_columns`
over the pairs and malloc / free rows put in merged order.  A merged trace is
its one-recording case.  Only the reduced :class:`ScenarioResult` crosses
the process-pool boundary.  Every result is put together by
:func:`assemble_result`, fed by :func:`reduce_trace` or by the replay
engine's priced points; either way a row's offline policy is
:func:`evaluate_policy` on rank 0's own recording.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.ati import (AtiSummary, IntervalArrays, compute_interval_arrays,
                        summarize_values_us)
from ..core.breakdown import OccupationBreakdown, occupation_from_columns
from ..core.swap import BandwidthConfig, swappable_fractions
from ..core.trace import MemoryTrace, merge_order, require_merge_order
from ..errors import ConfigurationError
from ..swap.policies import SWAP_POLICIES, MemoryPolicy, get_policy
from ..train.session import (Recording, RunStructure, SessionResult,
                             run_training_session)
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
        """Reconstruct a result from :meth:`to_dict` output.

        One constructor call: a missing or unknown field (``from_cache``
        included, which ``to_dict`` never writes) is a ``TypeError``, so a
        cache entry that raises it is malformed and gets quarantined.  Passing
        ``from_cache`` rather than leaving it to its default keeps the
        instance as compact as one built by :func:`assemble_result` (measured
        on CPython 3.11: 256 vs 456 bytes per result).
        """
        return ScenarioResult(**data, from_cache=False)

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
        "seed": config.seed,
    }


def _offline_policy(name: str) -> MemoryPolicy:
    """The registered policy ``name``, which must have an offline estimate."""
    if name not in SWAP_POLICIES:
        raise ConfigurationError(
            f"unknown swap policy '{name}'; known policies: {', '.join(SWAP_POLICIES)}")
    return get_policy(name)


def evaluate_policy(name: str, trace: MemoryTrace,
                    bandwidths: BandwidthConfig) -> Optional[Dict[str, object]]:
    """The registered offline policy ``name`` evaluated on ``trace``.

    A sweep row hands it rank 0's own recording (a session's
    ``rank_traces[0]``, or replay's rank-0 trace under the row's clocks), so
    every policy reports *per-device* peaks and savings, comparable with the
    per-replica ``peak_allocated_bytes`` (the merged trace would count each
    replicated block once per rank).  The recording carries the session
    metadata, so ZeRO-Offload's partitioning still sees the cluster size.
    """
    return _offline_policy(name).evaluate(trace, bandwidths)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario and reduce its trace to a :class:`ScenarioResult`.

    :func:`run_scenario_on` with a fresh recording, the recording dropped.
    """
    return run_scenario_on(scenario)[0]


def run_scenario_on(scenario: Scenario, key: Optional[str] = None,
                    recording: Optional[Recording] = None
                    ) -> Tuple[ScenarioResult, Recording]:
    """Execute one scenario on ``recording`` (``None``: simulate one) and
    reduce its trace; returns the result and the recording it overlaid.

    ``key`` is the scenario's content hash when the caller already has it
    (the execution rounds pass the runner's).  ``recording`` must be one
    :func:`~repro.train.session.record_session` made for a row with the same
    :func:`~repro.experiments.grid.recording_token`; the result is the same
    either way, so the execution rounds hand the returned recording to the
    next row with that token.  It runs inside the process-pool workers, so
    ``scenario`` and the result must pickle; a recording never leaves the
    process that made it.  An unknown offline policy is a
    :class:`~repro.errors.ConfigurationError` raised before the simulation
    starts, like an unknown swap mode.

    Multi-device semantics: ``peak_allocated_bytes`` / ``peak_reserved_bytes``
    and the policy summary are *per replica* (what must fit one device),
    while ``peak_live_bytes``, the event counts, the ATI distribution and
    the occupation breakdown aggregate the merged multi-rank trace
    (cluster-wide totals).
    """
    bandwidths = scenario.resolve_bandwidths()
    _offline_policy(scenario.swap_policy)
    started = time.perf_counter()
    session = run_training_session(scenario.config, recording=recording)
    return (reduce_session(scenario, bandwidths, session, started, key),
            session.recording)


def reduce_session(scenario: Scenario, bandwidths: BandwidthConfig,
                   session: SessionResult, started: float,
                   key: Optional[str] = None) -> ScenarioResult:
    """Reduce a finished session to a :class:`ScenarioResult`.

    The session hands :func:`reduce_trace` its replica classes' recordings
    and ``rank_classes`` — no merged trace is built — with its structure
    record, iteration durations, policy summary and ``collective`` /
    ``swap_execution`` blocks.  ``key`` is the scenario's content hash when
    the caller already computed it.
    """
    rank0 = session.rank_traces[0] if session.rank_traces else session.class_traces[0]
    return reduce_trace(
        scenario, bandwidths, session.class_traces, session.rank_classes,
        session.structure(), [stats.duration_ns for stats in session.iteration_stats],
        evaluate_policy(scenario.swap_policy, rank0, bandwidths),
        session.collective, session.swap_execution, started, key)


class ClassMeasure(NamedTuple):
    """One replica class's recording as a row measures it, clocks aside: its
    ATI pairs and its malloc / free rows with their live-bytes deltas and
    category codes.  A simulated row reads them with the recording's
    timestamps (:func:`reduce_trace`), a replayed one with its priced clocks."""

    pairs: IntervalArrays
    life: np.ndarray
    life_delta: np.ndarray
    life_category: np.ndarray


def measure_class(trace: MemoryTrace) -> ClassMeasure:
    """The :class:`ClassMeasure` of one class recording ``trace``."""
    cols = trace.columns()
    life = np.flatnonzero(cols.is_malloc | cols.is_free)
    return ClassMeasure(compute_interval_arrays(trace), life,
                        cols.live_deltas()[life], cols.category_code[life])


def reduce_trace(scenario: Scenario, bandwidths: BandwidthConfig,
                 traces: Sequence[MemoryTrace], rank_classes: Sequence[int],
                 structure: RunStructure, step_durations_ns: Sequence[int],
                 swap: Optional[Dict[str, object]],
                 collective: Optional[Dict[str, object]],
                 swap_execution: Optional[Dict[str, object]],
                 started: float, key: Optional[str] = None) -> ScenarioResult:
    """Measure the merged trace of ranks that record ``traces`` (ATI summary,
    Eq.-1 screening, occupation breakdown) without building it, and assemble
    the result with the row's policy summary.

    ``traces`` holds one recording per replica class and ``rank_classes``
    each rank's class, as a session keeps them (:func:`reduce_session`).
    One recording — a single device, or a trace already merged — is the call
    with ``[trace]`` and ``(0,)``, measured as it stands; the tests feed it a
    trace the replay engine rebuilt (``TraceTemplate.replay_trace``), the
    reference the columnar replay reduction is diffed against.

    :func:`~repro.core.trace.merge_rank_traces` keeps block ids rank-disjoint,
    so the merged ATI pairs are each rank's own as long as every rank's rows
    keep their recorded order in the merge, which is checked once per class
    (:func:`~repro.core.trace.require_merge_order`; a
    :class:`~repro.errors.TraceInvariantError` otherwise).  The pairs and the
    malloc / free rows are then measured once per class
    (:func:`measure_class`) and put in merged order by one
    :func:`~repro.core.trace.merge_order` each.
    """
    measured = []
    for trace in traces:
        pairs, life, deltas, categories = measure_class(trace)
        measured.append(((pairs.end_index, pairs.interval_ns, pairs.size),
                         (life, deltas, categories, trace.columns().timestamp_ns[life])))

    def merged(part: int) -> Sequence[np.ndarray]:
        """The ranks' values of ``part`` (0: the ATI pairs, 1: the malloc /
        free rows), concatenated in merged row order."""
        per_rank = [measured[index][part] for index in rank_classes]
        if len(per_rank) == 1:
            return per_rank[0][1:]
        rows, *columns = zip(*per_rank)
        order = merge_order([traces[index].columns() for index in rank_classes], rows)
        return [np.concatenate(column)[order] for column in columns]

    if len(rank_classes) > 1:
        for trace in traces:
            require_merge_order(trace)
    interval_ns, sizes = merged(0)
    return assemble_result(
        scenario, key if key is not None else scenario.key(), structure,
        ati=summarize_values_us(interval_ns / 1_000.0),
        swappable=float(swappable_fractions(
            interval_ns[None, :], sizes, [bandwidths.round_trip_s_per_byte])[0]),
        breakdown=occupation_from_columns(*merged(1), label=scenario.label).to_dict(),
        step_durations_ns=step_durations_ns, swap=swap,
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
    what it measured on a trace, the replay engine what it read off its
    priced points, so a result field or a step-time term is added here once.
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
