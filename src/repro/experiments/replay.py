"""Trace-template replay: compile one structure, re-price thousands of scenarios.

A symbolic run's *event structure* — which blocks are allocated, accessed and
freed, in which order, at which addresses — is a pure function of the
workload (model, batch size, allocator, replica count); simulated *time* is
that structure priced under the timing axes (:data:`PRICING_FIELDS`).  This
module splits the two:

* :meth:`TemplateFamily.capture` runs the simulation **once** per structure
  with a :class:`~repro.device.tape.TimingTape` on every replica clock and
  keeps a :class:`TraceTemplate`: per replica the trace's event columns and
  tag / op lists as recorded, the timing atoms behind every clock advance,
  the event→atom correspondence and iteration spans, plus the structural
  scalars (peaks, parameter bytes, allocator counters).
* :meth:`TraceTemplate._price_points` prices each distinct pricing point of
  a batch once, at zero host dispatch, in one ``(points × atoms)`` int64
  broadcast per rank; collectives are resolved with barrier semantics in a
  loop over the sync points, not over scenarios.  A row's clocks are then
  *affine* in its dispatch cost ``d``: every reading is ``T0[point] + d · K``
  with ``K`` the kernels launched before that column.  This is exact, not an
  approximation: ``d`` enters each kernel atom as an integer added after
  rounding, and every rank launches the same number of kernels before each
  sync (checked at construction), so a barrier shifts all arrivals by the
  same ``d · K``.  :meth:`TraceTemplate._price_times` builds the full
  ``(S, width)`` rows from the points — bit-identical to what a fresh
  simulation advances its clocks by — for the callers that rebuild a trace.
* :meth:`TraceTemplate.replay_batch` reduces each row to the exact
  :class:`~repro.experiments.sweep.ScenarioResult` a fresh simulation would
  produce, through the one reduction
  (:func:`~repro.experiments.sweep.assemble_result`) with two feeders.
  Policy-free rows are **fed by the priced points**: ATI pairing, block
  sizes, live-bytes deltas and categories are structural
  (``merge_rank_traces`` keeps block ids rank-disjoint and per-rank clocks
  are monotone, so the merged trace's ATI pairs are the union of the
  rank-local ones) and are precomputed per template (:class:`_MergedColumns`);
  per row only the gaps (``base_gap[point] + d · kgap``) and the few clock
  columns a reduction reads are gathered — no ``(S, width)`` time matrix is
  built — and, for multi-rank templates, whose merged event *order* depends
  on the pricing point, ordered by one stable argsort.  Rows with a
  ``swap_policy`` are **fed by a rebuilt trace**: the offline baselines walk
  a real trace, so the row's clocks re-time the captured columns
  (:meth:`RankTemplate.trace`) and the real ``merge_rank_traces`` and
  :func:`~repro.experiments.sweep.reduce_trace` take over.
* ``dtype`` is a *generalized* axis: one :class:`TemplateFamily` (one
  structural key, one ``.npz``) holds a lazily captured variant per dtype,
  because AMP master-weight allocations give fp16 a different event stream.
* :class:`ReplayEngine` memoizes families in memory and, given a
  :class:`~repro.experiments.template_store.TemplateStore`, as
  content-addressed archives beside the sweep cache; it declines — with a
  reason code the sweep CLI prints — whatever a template cannot serve
  (swap engine on, eager numerics, a capacity that changed allocator
  behaviour, an inconsistent capture, an engine crash on a structure group).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ati import compute_interval_arrays, summarize_rows_us
from ..core.breakdown import occupation_from_columns
from ..core.events import IterationMark, MemoryEventKind
from ..core.swap import BandwidthConfig, swappable_fractions
from ..core.trace import KIND_CODES, EventColumns, MemoryTrace, merge_rank_traces
from ..device.cluster import ClusterSpec
from ..device.collective import collective_summary
from ..device.spec import get_device_spec
from ..device.tape import (
    SYNC_KINDS,
    atom_index_table,
    TAPE_ALLOC_OVERHEAD,
    TAPE_ALLREDUCE,
    TAPE_CONST,
    TAPE_KERNEL,
    TAPE_MEMCPY_D2H,
    TAPE_MEMCPY_H2D,
    TAPE_SEGMENT_OVERHEAD,
    TimingTape,
)
from ..device.timing import KernelTimingModel
from ..train.session import (
    RunStructure,
    TrainingRunConfig,
    build_cluster,
    run_training_session,
    workload_metadata,
)
from ..units import US
from .artifacts import ArtifactStore
from .results import assemble_result, reduce_trace

logger = logging.getLogger(__name__)

#: Version of the persisted template format; bump to invalidate stored templates.
#: v2: dtype-generalized families — ``dtype`` left the structural fingerprint
#: and one ``.npz`` holds every captured per-dtype variant (shared arrays
#: stored once, dtype-specific deltas stored against the base variant).
#: v3: no lifetime table — lifetimes are derived from the event columns.
TEMPLATE_SCHEMA_VERSION = 3

_SEGMENT_FREE_CODE = KIND_CODES[MemoryEventKind.SEGMENT_FREE]

#: Config fields that price a run without changing its structure.  They are
#: excluded from the template identity, so one compiled structure serves
#: every combination of them.
PRICING_FIELDS = ("label", "device_spec", "host_dispatch_overhead_ns",
                  "interconnect", "allreduce_algorithm", "device_memory_capacity")

#: The pricing fields that select no pricing *point* in ``_price_points``: the
#: label prices nothing, the dispatch override is applied per row.
PER_ROW_PRICING_FIELDS = ("label", "host_dispatch_overhead_ns")
_POINT_KEY = attrgetter(*(name for name in PRICING_FIELDS
                          if name not in PER_ROW_PRICING_FIELDS))

#: Config fields that *do* change the event structure but are generalized
#: within one :class:`TemplateFamily` instead of splitting the template key:
#: each value gets its own captured variant under the shared key (for
#: ``dtype``, the AMP master-weight allocations are a structural delta worth
#: one extra capture — not a reason to compile a whole new family).
GENERALIZED_FIELDS = ("dtype",)

#: Rows of one structure group priced per ``replay_batch`` call.  Rows are
#: independent, so blocking changes no result; it bounds the point table
#: (at most one ``width``-long clock row per distinct point of the block) and
#: the block's two ``(rows × ATIs)`` buffers by the block instead of by the grid.
PRICE_BLOCK_ROWS = 64


class TemplateError(Exception):
    """A capture cannot be turned into (or served as) a replayable template.

    ``reason`` is a stable machine-readable code (``swap_execution``,
    ``eager_mode``, ``capture_inconsistent``, ``capacity_mismatch``,
    ``compile_failed``) surfaced by the sweep CLI so fallbacks to fresh
    simulation are explained, not silent.
    """

    def __init__(self, message: str, reason: str = "not_replayable"):
        super().__init__(message)
        self.reason = reason


# -- template identity ----------------------------------------------------------------


def template_fingerprint(config: TrainingRunConfig) -> Dict[str, object]:
    """Canonical JSON-friendly *structural* identity of a training config.

    Everything that shapes the event stream stays — the host-latency model
    included: its pause is a constant atom on the tape, so each model is its
    own structure.  The pricing axes (:data:`PRICING_FIELDS`) are dropped,
    and so are the generalized axes (:data:`GENERALIZED_FIELDS` — served by
    per-value variants within one :class:`TemplateFamily`).  An absent model
    leaves no entry, which keeps the keys of latency-free configs (and the
    template stores written under them) what they were.
    """
    if config.swap != "off":
        raise TemplateError("swap-execution runs are not replayable",
                            reason="swap_execution")
    structural = config.to_dict()
    for name in PRICING_FIELDS + GENERALIZED_FIELDS:
        structural.pop(name, None)
    if structural["host_latency"] is None:
        del structural["host_latency"]
    return {"template_schema": TEMPLATE_SCHEMA_VERSION, "config": structural}


def template_key(config: TrainingRunConfig) -> str:
    """Content hash of the structural fingerprint (the template file stem)."""
    import hashlib

    canonical = json.dumps(template_fingerprint(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- capture --------------------------------------------------------------------------


class _TemplateCapture:
    """Session hook that attaches one timing tape per materialised replica
    clock (one per replica class) and notes which class each rank is in."""

    def __init__(self) -> None:
        self.tapes: List[TimingTape] = []
        self.rank_classes: Sequence[int] = ()
        self.profilers = None
        self.traces = None

    def attach(self, group) -> None:
        self.tapes = [TimingTape(device.clock) for device in group]
        self.rank_classes = group.rank_classes

    def collect(self, profilers, traces) -> None:
        self.profilers = profilers
        self.traces = traces

    def detach(self) -> None:
        for tape in self.tapes:
            tape.detach()


@dataclass
class RankTemplate:
    """One replica's captured structure: its trace's events, tape atoms, mark spans."""

    # timing tape (one entry per clock advance)
    tape_kind: np.ndarray          # int64
    tape_duration_ns: np.ndarray   # int64 (verbatim for CONST; ignored otherwise)
    tape_nbytes: np.ndarray        # int64 (memcpy / allreduce payloads)
    tape_flops: np.ndarray         # float64 (kernel roofline inputs)
    tape_bytes_moved: np.ndarray   # float64
    #: The replica trace's own column record and string lists, shared not
    #: copied; ``timestamp_ns`` is never read (every replay re-derives it).
    columns: EventColumns
    event_tags: List[str]
    event_ops: List[str]
    event_tape_pos: np.ndarray     # int64: atoms preceding each event
    # iteration marks: index plus [begin, end] tape positions
    mark_indices: List[int]
    mark_spans: np.ndarray         # int64 (k, 2)
    #: Pre-attach clock time as whole segment reservations (best-fit arena).
    preamble_segments: int

    def trace(self, timestamp_ns: Optional[np.ndarray] = None,
              **trace_fields) -> MemoryTrace:
        """This replica's trace, re-timed to ``timestamp_ns`` when given.

        The string lists (and every column but the timestamps) are shared
        with the template, as :meth:`MemoryTrace.rank_view` shares them.
        """
        columns = (self.columns if timestamp_ns is None
                   else replace(self.columns, timestamp_ns=timestamp_ns))
        return MemoryTrace(columns=columns, event_tags=self.event_tags,
                           event_ops=self.event_ops, **trace_fields)


def _capture_rank(recorder, trace: MemoryTrace, tape: TimingTape) -> RankTemplate:
    """Freeze one replica's recorder + tape into a :class:`RankTemplate`."""
    if not tape.consistent:
        raise TemplateError("timing tape saw unannotated or mismatched advances",
                            reason="capture_inconsistent")
    cols = trace.columns()
    tags, ops = trace.event_strings()
    positions = np.asarray(recorder.event_tape_positions, dtype=np.int64)
    if positions.size != len(cols):
        raise TemplateError("event/tape correspondence is incomplete",
                            reason="capture_inconsistent")
    spans = recorder.mark_tape_spans
    if len(spans) != len(trace.iteration_marks) or any(e < 0 for _, e in spans):
        raise TemplateError("iteration mark spans are incomplete",
                            reason="capture_inconsistent")

    return RankTemplate(
        tape_kind=np.asarray(tape.kind, dtype=np.int64),
        tape_duration_ns=np.asarray(tape.duration_ns, dtype=np.int64),
        tape_nbytes=np.asarray(tape.nbytes, dtype=np.int64),
        tape_flops=np.asarray(tape.flops, dtype=np.float64),
        tape_bytes_moved=np.asarray(tape.bytes_moved, dtype=np.float64),
        columns=cols,
        event_tags=tags,
        event_ops=ops,
        event_tape_pos=positions,
        mark_indices=[mark.index for mark in trace.iteration_marks],
        mark_spans=np.asarray(spans, dtype=np.int64).reshape(len(spans), 2),
        preamble_segments=-1,  # filled by the caller (needs the compile spec)
    )

# -- the template ---------------------------------------------------------------------


@dataclass
class _RankAtoms:
    """One rank's gather tables for the batched ``(S × atoms)`` repricing.

    Per-kind atom positions (so a batch prices each kind with one
    fancy-indexed assignment instead of a boolean mask per scenario) and the
    pre-scaled roofline numerators.  ``base`` is the column of the rank's
    clock-start entry in the batch's time matrix, whose rows concatenate
    every rank's ``n_atoms + 1`` clock readings rank-major.
    """

    base: int
    n_atoms: int
    preamble_segments: int
    sync_pos: np.ndarray
    const_idx: np.ndarray
    const_dur: np.ndarray
    kernel_idx: np.ndarray
    kernel_flops9: np.ndarray      # 1e9 * flops (roofline numerator), float64
    kernel_flops_nz: np.ndarray    # bool: flops != 0
    kernel_moved9: np.ndarray
    kernel_moved_nz: np.ndarray
    h2d_idx: np.ndarray
    h2d_bytes9: np.ndarray
    h2d_nz: np.ndarray
    d2h_idx: np.ndarray
    d2h_bytes9: np.ndarray
    d2h_nz: np.ndarray
    alloc_idx: np.ndarray
    segment_idx: np.ndarray


@dataclass
class _MergedColumns:
    """The timestamp-free structure of the merged trace, as time-matrix columns.

    :func:`~repro.core.trace.merge_rank_traces` keeps block ids rank-disjoint
    and every rank's clock is monotone, so the ATI pairs of the merged trace
    are exactly the union of the rank-local pairs and every per-event column
    is known up front; only the merged event *order* depends on the pricing
    point.  Everything is stored rank-major / event-id-minor, so a stable
    argsort of re-priced timestamps reproduces the merge's
    ``(timestamp, rank, event_id)`` order on any subset of events.  Events
    are addressed by the clock column holding their timestamp, so reductions
    gather straight from the priced points and never materialize a
    per-scenario event vector.
    """

    ati_start_col: np.ndarray      # endpoints of each ATI pair
    ati_end_col: np.ndarray
    ati_size: np.ndarray           # block bytes behind each ATI pair (Eq. 1)
    life_col: np.ndarray           # the malloc/free events ...
    life_delta: np.ndarray         # ... their live-bytes deltas ...
    life_category: np.ndarray      # ... and category codes
    span_begin: np.ndarray         # (ranks, iterations) iteration-span columns
    span_end: np.ndarray
    #: Single rank only (the event order is then timestamp-free too): the
    #: occupation breakdown and the column of its peak event (-1: none).
    breakdown_base: Optional[Dict[str, object]]
    peak_col: int


@dataclass
class _BatchArrays:
    """Per-template tables behind :meth:`TraceTemplate.replay_batch`."""

    atoms: List[_RankAtoms]
    width: int                          # columns of the time matrix
    #: (width,) int64: kernel atoms of the column's rank before the column —
    #: the coefficient of the dispatch cost in every clock reading.
    kernels_before: np.ndarray
    merged: Optional[_MergedColumns]    # None: results need a rebuilt trace
    structure: RunStructure             # what every row of this template reports


@dataclass
class _PricedPoints:
    """A batch's distinct pricing points, each priced once at zero dispatch.

    Row ``j`` reads every clock column ``c`` as ``times[point_of[j], c] +
    dispatch[j] * kernels_before[c]``.
    """

    times: np.ndarray              # (points, width) int64 clock readings
    sync_costs: np.ndarray         # (points, syncs) int64 resolved collective costs
    clusters: List[ClusterSpec]    # per point
    point_of: np.ndarray           # (rows,) intp: each row's point
    dispatch: np.ndarray           # (rows,) int64: each row's host dispatch cost


def _kernels_before(rank: RankTemplate) -> np.ndarray:
    """``(n_atoms + 1,)`` int64: kernel atoms among the rank's first ``i`` atoms."""
    counts = np.zeros(rank.tape_kind.size + 1, dtype=np.int64)
    np.cumsum(rank.tape_kind == TAPE_KERNEL, out=counts[1:])
    return counts


def _rank_atoms(rank: RankTemplate, sync_pos: np.ndarray, base: int) -> _RankAtoms:
    table = atom_index_table(rank.tape_kind)
    empty = np.empty(0, dtype=np.int64)
    const_idx = table.get(TAPE_CONST, empty)
    kernel_idx = table.get(TAPE_KERNEL, empty)
    h2d_idx = table.get(TAPE_MEMCPY_H2D, empty)
    d2h_idx = table.get(TAPE_MEMCPY_D2H, empty)
    kernel_flops = rank.tape_flops[kernel_idx]
    kernel_moved = rank.tape_bytes_moved[kernel_idx]
    h2d_bytes = rank.tape_nbytes[h2d_idx]
    d2h_bytes = rank.tape_nbytes[d2h_idx]
    return _RankAtoms(
        base=base,
        n_atoms=int(rank.tape_kind.size),
        preamble_segments=int(rank.preamble_segments),
        sync_pos=sync_pos,
        const_idx=const_idx,
        const_dur=rank.tape_duration_ns[const_idx],
        kernel_idx=kernel_idx,
        kernel_flops9=1e9 * kernel_flops,
        kernel_flops_nz=kernel_flops != 0.0,
        kernel_moved9=1e9 * kernel_moved,
        kernel_moved_nz=kernel_moved != 0.0,
        h2d_idx=h2d_idx,
        h2d_bytes9=1e9 * h2d_bytes,
        h2d_nz=h2d_bytes != 0,
        d2h_idx=d2h_idx,
        d2h_bytes9=1e9 * d2h_bytes,
        d2h_nz=d2h_bytes != 0,
        alloc_idx=table.get(TAPE_ALLOC_OVERHEAD, empty),
        segment_idx=table.get(TAPE_SEGMENT_OVERHEAD, empty),
    )


class TraceTemplate:
    """One compiled structure: everything needed to re-price it in bulk.

    ``meta`` carries the structural scalars (allocator name, capacities,
    peaks, parameter bytes, allocator counters, iteration indices);
    ``ranks`` carries the per-replica arrays.  Construction validates the
    capture (consistent tapes, matching cross-rank sync sequences and kernel
    counts before each sync); the
    timestamp-free tables behind batched repricing are built on first use.
    """

    def __init__(self, key: str, meta: Dict[str, object],
                 ranks: Sequence[RankTemplate]):
        self.key = key
        self.meta = dict(meta)
        self.ranks = list(ranks)
        if not self.ranks:
            raise TemplateError("a template needs at least one rank",
                                reason="capture_inconsistent")
        self._validate_syncs()
        #: Iteration indices of the capture's step statistics, in step order.
        self.iteration_indices = [int(entry["index"])
                                  for entry in self.meta["iteration_stats"]]
        self._batch: Optional[_BatchArrays] = None  # built on first replay_batch

    @property
    def dtype(self) -> str:
        """Training precision this variant was captured under."""
        return str(self.meta.get("dtype", "float32"))

    # -- validation -------------------------------------------------------------------

    def _validate_syncs(self) -> None:
        """Cross-rank sync atoms must agree in kind and payload, rank by rank,
        and every rank must launch the same number of kernels before each —
        the condition under which a barrier keeps the clocks affine in the
        dispatch cost (:class:`_PricedPoints`)."""
        sync_mask = [np.isin(rank.tape_kind, SYNC_KINDS) for rank in self.ranks]
        self.sync_pos = [np.flatnonzero(mask) for mask in sync_mask]
        kinds = [rank.tape_kind[pos] for rank, pos in zip(self.ranks, self.sync_pos)]
        payloads = [rank.tape_nbytes[pos] for rank, pos in zip(self.ranks, self.sync_pos)]
        first_kinds, first_payloads = kinds[0], payloads[0]
        for other_kinds, other_payloads in zip(kinds[1:], payloads[1:]):
            if (other_kinds.size != first_kinds.size
                    or not np.array_equal(other_kinds, first_kinds)
                    or not np.array_equal(other_payloads, first_payloads)):
                raise TemplateError("ranks disagree on the collective sequence",
                                    reason="capture_inconsistent")
        launched = [_kernels_before(rank)[pos]
                    for rank, pos in zip(self.ranks, self.sync_pos)]
        if any(not np.array_equal(other, launched[0]) for other in launched[1:]):
            raise TemplateError("ranks launch different kernel counts before a "
                                "collective", reason="capture_inconsistent")
        self.sync_kinds = first_kinds
        self.sync_nbytes = first_payloads

    def valid_for(self, config: TrainingRunConfig) -> bool:
        """Whether this structure also holds under ``config``'s memory capacity.

        Capacity is the one pricing axis that can feed back into structure
        (allocator OOM handling, best-fit arena sizing), so a template is
        only served when the target capacity provably cannot have changed
        the capture:

        * ``caching``: same capacity, or the capture never released a
          segment (no cache-flush pressure) and its reserved peak fits;
        * ``bump``: same capacity, or the reserved peak fits (its segments
          mirror allocation sizes, independent of the headroom);
        * ``best_fit`` (and anything unknown): same capacity only — the
          arena layout is itself a function of the capacity.
        """
        spec = get_device_spec(config.device_spec)
        capacity = (config.device_memory_capacity
                    if config.device_memory_capacity is not None
                    else spec.memory_capacity)
        compile_capacity = int(self.meta["compile_capacity"])
        if capacity == compile_capacity:
            return True
        allocator = self.meta["allocator"]
        fits = capacity >= int(self.meta["peak_reserved_bytes"])
        if allocator == "caching":
            return fits and not self.meta["has_segment_free"]
        if allocator == "bump":
            return fits
        return False

    # -- timestamp-free precompute ----------------------------------------------------

    def _batch_arrays(self) -> _BatchArrays:
        """Build (once) the tables behind :meth:`replay_batch`."""
        if self._batch is None:
            atoms: List[_RankAtoms] = []
            base = 0
            for rank, sync_pos in zip(self.ranks, self.sync_pos):
                atoms.append(_rank_atoms(rank, sync_pos, base))
                base += atoms[-1].n_atoms + 1
            traces = [rank.trace() for rank in self.ranks]
            # merge_rank_traces keeps every event and keeps block ids
            # rank-disjoint, so the merged counts are the per-rank sums.
            structure = RunStructure(
                peak_allocated_bytes=int(self.meta["peak_allocated_bytes"]),
                peak_reserved_bytes=int(self.meta["peak_reserved_bytes"]),
                parameter_bytes=int(self.meta["parameter_bytes"]),
                parameter_count=int(self.meta["parameter_count"]),
                num_events=sum(len(trace) for trace in traces),
                num_blocks=sum(len(trace.block_ids()) for trace in traces),
                allocator_stats={k: int(v)
                                 for k, v in self.meta["allocator_stats"].items()},
            )
            self._batch = _BatchArrays(
                atoms=atoms, width=base,
                kernels_before=np.concatenate([_kernels_before(rank)
                                               for rank in self.ranks]),
                merged=self._merged_columns(atoms, traces),
                structure=structure)
        return self._batch

    def _merged_columns(self, atoms: Sequence[_RankAtoms],
                        traces: Sequence[MemoryTrace]) -> Optional[_MergedColumns]:
        """The merged trace's structure, or ``None`` when a result cannot be
        reduced without the trace itself (an empty rank, marks the ranks
        disagree on)."""
        if (any(len(rank.columns) == 0 for rank in self.ranks)
                or any(rank.mark_indices != self.iteration_indices
                       for rank in self.ranks)):
            return None

        per_rank: Dict[str, List[np.ndarray]] = {
            name: [] for name in ("ati_start_col", "ati_end_col", "ati_size",
                                  "life_col", "life_delta", "life_category")}
        for rank, tables, trace in zip(self.ranks, atoms, traces):
            cols = trace.columns()
            event_col = tables.base + rank.event_tape_pos
            pairs = compute_interval_arrays(trace)
            lifecycle = np.flatnonzero(cols.is_malloc | cols.is_free)
            per_rank["ati_start_col"].append(event_col[pairs.start_index])
            per_rank["ati_end_col"].append(event_col[pairs.end_index])
            per_rank["ati_size"].append(pairs.size)
            per_rank["life_col"].append(event_col[lifecycle])
            per_rank["life_delta"].append(cols.live_deltas()[lifecycle])
            per_rank["life_category"].append(cols.category_code[lifecycle])
        columns = {name: np.concatenate(parts) for name, parts in per_rank.items()}

        breakdown_base, peak_col = None, -1
        if len(self.ranks) == 1:
            breakdown_base = occupation_from_columns(
                columns["life_delta"], columns["life_category"],
                columns["life_col"]).to_dict()
            if columns["life_col"].size:
                peak_col = int(columns["life_col"][
                    int(np.argmax(np.cumsum(columns["life_delta"])))])
        return _MergedColumns(
            span_begin=np.stack([tables.base + rank.mark_spans[:, 0]
                                 for rank, tables in zip(self.ranks, atoms)]),
            span_end=np.stack([tables.base + rank.mark_spans[:, 1]
                               for rank, tables in zip(self.ranks, atoms)]),
            breakdown_base=breakdown_base,
            peak_col=peak_col,
            **columns,
        )

    # -- re-pricing -------------------------------------------------------------------

    def _price_points(self, configs: Sequence[TrainingRunConfig]) -> _PricedPoints:
        """Every clock reading of every rank at each distinct pricing point.

        The ``(points, width)`` int64 clock table — rank ``r`` owns columns
        ``[base, base + n_atoms]``, entry ``base + i`` being its clock right
        after atom ``i - 1`` (``base`` itself the post-preamble start), so an
        event at tape position ``p`` happened at column ``base + p`` — is
        priced at zero host dispatch, once per point (:data:`_POINT_KEY`);
        each config contributes only its point and its dispatch cost.

        Durations reproduce :class:`~repro.device.timing.KernelTimingModel`
        exactly: the roofline rates and the default dispatch overhead are
        read off the model a fresh device would build, and ``np.rint``
        matches Python's banker's ``round`` on the same float expressions,
        broadcast along axis 0.  The dispatch cost is an integer the model
        adds to a kernel *after* rounding, so it adds ``d · K`` to a clock
        that ``K`` kernels precede.  Collectives are resolved with barrier
        semantics in a loop over the sync points (not over points): all ranks
        leave a sync at the latest arrival plus the point's allreduce cost.
        Every rank launches the same ``K`` before a sync
        (:meth:`_validate_syncs`), so every arrival — and hence the departure
        — carries the same ``d · K`` and the affine form survives the barrier.
        """
        batch = self._batch_arrays()
        allreduce = (self.sync_kinds == TAPE_ALLREDUCE).tolist()
        sync_nbytes = self.sync_nbytes.tolist()

        # Everything derived from the cluster (the only Python-object work)
        # is computed once per distinct point.
        points: Dict[Tuple, int] = {}
        clusters: List[ClusterSpec] = []
        rates: List[tuple] = []        # per point: the four float divisors
        overheads: List[tuple] = []    # per point: the four fixed ns costs
        default_dispatch: List[int] = []   # per point: the model's host dispatch cost
        costs: List[List[int]] = []    # per point: every sync's collective cost
        point_of = np.empty(len(configs), dtype=np.intp)
        dispatch = np.empty(len(configs), dtype=np.int64)
        for j, config in enumerate(configs):
            point_key = _POINT_KEY(config)
            point = points.get(point_key)
            if point is None:
                point = points[point_key] = len(clusters)
                cluster = build_cluster(config)
                spec = cluster.device
                timing = KernelTimingModel(spec)
                clusters.append(cluster)
                rates.append((timing.effective_flops, timing.effective_bandwidth,
                              spec.h2d_bandwidth, spec.d2h_bandwidth))
                overheads.append((spec.kernel_launch_overhead_ns,
                                  spec.memcpy_launch_overhead_ns,
                                  spec.allocator_overhead_ns,
                                  spec.cuda_malloc_overhead_ns))
                default_dispatch.append(timing.host_dispatch_overhead_ns)
                costs.append([
                    cluster.allreduce_time_ns(nbytes) if is_allreduce else 0
                    for nbytes, is_allreduce in zip(sync_nbytes, allreduce)])
            point_of[j] = point
            dispatch[j] = (default_dispatch[point]
                           if config.host_dispatch_overhead_ns is None
                           else config.host_dispatch_overhead_ns)
        n_points = len(clusters)
        eff_flops, eff_bw, h2d_bw, d2h_bw = np.array(rates, dtype=np.float64).T
        launch, memcpy_launch, alloc_overhead, segment_overhead = \
            np.array(overheads, dtype=np.int64).T
        sync_costs = np.array(costs, dtype=np.int64).reshape(n_points,
                                                             len(sync_nbytes))

        times = np.empty((n_points, batch.width), dtype=np.int64)
        clocks: List[np.ndarray] = []      # per-rank views into ``times``
        offsets: List[np.ndarray] = []     # per-rank clock offset of the open segment
        for atoms in batch.atoms:
            durations = np.zeros((n_points, atoms.n_atoms), dtype=np.int64)
            if atoms.const_idx.size:
                durations[:, atoms.const_idx] = atoms.const_dur[None, :]
            if atoms.kernel_idx.size:
                compute_ns = np.where(
                    atoms.kernel_flops_nz[None, :],
                    atoms.kernel_flops9[None, :] / eff_flops[:, None], 0.0)
                memory_ns = np.where(
                    atoms.kernel_moved_nz[None, :],
                    atoms.kernel_moved9[None, :] / eff_bw[:, None], 0.0)
                busy = np.maximum(compute_ns, memory_ns)
                durations[:, atoms.kernel_idx] = np.rint(launch[:, None] + busy)
            for idx, nonzero, bytes9, bandwidth in (
                    (atoms.h2d_idx, atoms.h2d_nz, atoms.h2d_bytes9, h2d_bw),
                    (atoms.d2h_idx, atoms.d2h_nz, atoms.d2h_bytes9, d2h_bw)):
                if idx.size:
                    transfer = np.where(nonzero[None, :],
                                        bytes9[None, :] / bandwidth[:, None], 0.0)
                    durations[:, idx] = np.rint(memcpy_launch[:, None] + transfer)
            if atoms.alloc_idx.size:
                durations[:, atoms.alloc_idx] = alloc_overhead[:, None]
            if atoms.segment_idx.size:
                durations[:, atoms.segment_idx] = segment_overhead[:, None]
            # sync atoms stay 0; their cost enters through the offsets below

            clock = times[:, atoms.base:atoms.base + atoms.n_atoms + 1]
            clock[:, 0] = 0
            np.cumsum(durations, axis=1, out=clock[:, 1:])
            clocks.append(clock)
            offsets.append(atoms.preamble_segments * segment_overhead)

        # Each sync splits a rank's timeline; between two syncs the clock is
        # the prefix sum plus the segment's offset, added in place once the
        # segment's closing sync has read the raw prefix.
        segment_begin = [0] * len(clocks)
        for j in range(len(sync_nbytes)):
            prefixes = [clock[:, atoms.sync_pos[j]]
                        for clock, atoms in zip(clocks, batch.atoms)]
            arrivals = [offset + prefix
                        for offset, prefix in zip(offsets, prefixes)]
            end = np.maximum.reduce(arrivals) + sync_costs[:, j]
            reopened = [end - prefix for prefix in prefixes]
            for r, (clock, atoms) in enumerate(zip(clocks, batch.atoms)):
                stop = int(atoms.sync_pos[j]) + 1
                clock[:, segment_begin[r]:stop] += offsets[r][:, None]
                segment_begin[r] = stop
            offsets = reopened
        for clock, begin, offset in zip(clocks, segment_begin, offsets):
            clock[:, begin:] += offset[:, None]
        return _PricedPoints(times=times, sync_costs=sync_costs,
                             clusters=clusters, point_of=point_of,
                             dispatch=dispatch)

    def _materialise_rows(self, priced: _PricedPoints,
                          rows: Sequence[int]) -> np.ndarray:
        """The ``(len(rows), width)`` time matrix of ``rows``, built from their
        points: only a caller that rebuilds a trace needs one."""
        return (priced.times[priced.point_of[rows]]
                + priced.dispatch[rows, None] * self._batch_arrays().kernels_before)

    def _price_times(self, configs: Sequence[TrainingRunConfig]
                     ) -> Tuple[np.ndarray, np.ndarray, List[ClusterSpec]]:
        """Every clock reading of every rank under every config.

        Returns the ``(S, width)`` int64 time matrix (columns as in
        :meth:`_price_points`), the ``(S, syncs)`` resolved collective costs
        and each row's cluster — every row bit-identical to what a fresh
        simulation advances its clocks by.
        """
        priced = self._price_points(configs)
        point_of = priced.point_of
        return (self._materialise_rows(priced, np.arange(len(configs))),
                priced.sync_costs[point_of],
                [priced.clusters[point] for point in point_of.tolist()])

    def _rank_times(self, row: np.ndarray) -> List[np.ndarray]:
        """Split one row of the time matrix into per-rank clock arrays."""
        return [row[atoms.base:atoms.base + atoms.n_atoms + 1]
                for atoms in self._batch_arrays().atoms]

    # -- replay -----------------------------------------------------------------------

    def replay_batch(self, scenarios: Sequence[object],
                     bandwidths_list: Sequence[BandwidthConfig],
                     started: Optional[float] = None,
                     keys: Optional[Sequence[str]] = None) -> List[object]:
        """Price a whole grid of scenarios of this structure in one pass.

        Each distinct pricing point of the batch is priced once
        (:meth:`_price_points`).  Policy-free rows (``swap_policy == "none"``)
        — single- and multi-rank alike — are then measured column-wise off
        the points, no row's time matrix ever built: ATI gaps read as
        ``base_gap[point] + d · kgap`` (``kgap`` the kernels launched inside
        the interval), summarized and Eq.-1 screened by the row forms of the
        trace recipes, peak, span and lifecycle clocks gathered the same way,
        and for multi-rank templates one stable argsort per row to recover
        the merged event order behind the ATI mean and the occupancy peak.
        The ``(rows × ATIs)`` steps write into two buffers the block
        allocates — the int64 gaps, and one float64 matrix for the Eq.-1
        limits and then the µs values — not into a fresh array per step.
        Policy-carrying rows need a real trace for the baselines to walk, so
        their row of the time matrix (:meth:`_materialise_rows`) feeds
        :meth:`_rebuild_trace` and :func:`~repro.experiments.sweep.reduce_trace`.
        Either way the row ends in :func:`~repro.experiments.sweep.assemble_result`.

        The returned list is parallel to ``scenarios`` and bit-identical to
        what a fresh symbolic simulation would produce (``wall_time_s``
        aside).  ``keys`` optionally carries the scenarios' precomputed
        content hashes.
        """
        if started is None:
            started = time.perf_counter()
        if keys is None:
            keys = [scenario.key(bandwidths)
                    for scenario, bandwidths in zip(scenarios, bandwidths_list)]
        batch = self._batch_arrays()
        merged, structure = batch.merged, batch.structure
        priced = self._price_points([scenario.config for scenario in scenarios])
        point_of = priced.point_of.tolist()
        allreduce_ns = priced.sync_costs[:, self.sync_kinds == TAPE_ALLREDUCE
                                         ].sum(axis=1).tolist()
        collectives = [self._collective_summary(priced.clusters[point],
                                                allreduce_ns[point])
                       for point in point_of]
        results: List[object] = [None] * len(scenarios)
        rows = []
        for index, scenario in enumerate(scenarios):
            if merged is not None and scenario.swap_policy == "none":
                rows.append(index)
                continue
            times = self._materialise_rows(priced, [index])[0]
            trace = self._rebuild_trace(scenario.config,
                                        priced.clusters[point_of[index]].device,
                                        self._rank_times(times))
            marks = {mark.index: mark for mark in trace.iteration_marks}
            results[index] = reduce_trace(
                scenario, bandwidths_list[index], trace, structure,
                [marks[i].end_ns - marks[i].start_ns
                 for i in self.iteration_indices],
                collectives[index], None, time.perf_counter(), keys[index])
        if not rows:
            return results

        # Rows are independent, so they are reduced grouped by point: each
        # point's rows are then one slice of every per-row array.
        rows.sort(key=point_of.__getitem__)
        n_ranks = len(self.ranks)
        row_dispatch = priced.dispatch[rows]
        bounds = np.searchsorted(priced.point_of[rows],
                                 np.arange(len(priced.clusters) + 1)).tolist()
        kernels = batch.kernels_before

        def from_points(table, coefficient):
            """``table[point] + d · coefficient`` for every row, in the one
            array the dispatch product allocates: each point's entry of
            ``table`` is added in place to its rows' slice."""
            out = np.multiply.outer(row_dispatch, coefficient)
            for point, (begin, end) in enumerate(zip(bounds, bounds[1:])):
                out[begin:end] += table[point]
            return out

        def clock_at(columns):
            """The rows' clock readings at ``columns`` (any shape)."""
            return from_points(priced.times[:, columns], kernels[columns])

        # The block's two buffers: the int64 gaps, and a float64 matrix that
        # holds first the Eq.-1 limits, then the gaps in µs, which the
        # summary sorts in place.  A multi-rank block adds its two clock
        # gathers, their argsorts and the gaps in closing-event order.
        gaps = from_points(priced.times[:, merged.ati_end_col]
                           - priced.times[:, merged.ati_start_col],
                           kernels[merged.ati_end_col] - kernels[merged.ati_start_col])
        work = np.empty(gaps.shape)
        fractions = swappable_fractions(
            gaps, merged.ati_size,
            [bandwidths_list[i].round_trip_s_per_byte for i in rows], out=work).tolist()
        if n_ranks > 1:
            # The ATI mean sums in closing-event order of the merged trace.
            # Re-priced times are nearly sorted, where the stable timsort wins:
            # 64 x 4,500 rows 1.3 ms, against 3.5 ms for the default argsort of
            # a unique composite key (``make kernel-probe``) — these stay stable.
            gaps = np.take_along_axis(
                gaps, np.argsort(clock_at(merged.ati_end_col), axis=1,
                                 kind="stable"), axis=1)
            life_times = clock_at(merged.life_col)
            life_order = np.argsort(life_times, axis=1, kind="stable")
        else:
            peak_times = (clock_at(merged.peak_col).tolist()
                          if merged.peak_col >= 0 else [0] * len(rows))
        summaries = summarize_rows_us(np.divide(gaps, US, out=work))
        step_ns = (clock_at(merged.span_end).max(axis=1)
                   - clock_at(merged.span_begin).min(axis=1)).tolist()

        for j, i in enumerate(rows):
            label = scenarios[i].label
            if n_ranks > 1:
                order = life_order[j]
                breakdown = occupation_from_columns(
                    merged.life_delta[order], merged.life_category[order],
                    life_times[j][order], label=label).to_dict()
            else:
                breakdown = dict(merged.breakdown_base)
                breakdown["label"] = label
                breakdown["peak_time_ns"] = peak_times[j]
            results[i] = assemble_result(
                scenarios[i], keys[i], structure, ati=summaries[j],
                swappable=fractions[j], breakdown=breakdown,
                step_durations_ns=step_ns[j],
                swap=None,  # the "none" policy evaluates to None by definition
                collective=collectives[i], swap_execution=None, started=started)
        return results

    def _collective_summary(self, cluster: ClusterSpec,
                            total_ns: int) -> Optional[Dict[str, object]]:
        """The session's ``collective`` block (``None`` on a single device)."""
        if len(self.ranks) == 1:
            return None
        allreduce = self.sync_kinds == TAPE_ALLREDUCE
        return collective_summary(cluster, len(self.ranks), int(allreduce.sum()),
                                  int(self.sync_nbytes[allreduce].sum()), total_ns)

    # -- full trace rebuild (policy evaluation) ---------------------------------------

    def _rebuild_trace(self, config: TrainingRunConfig, spec,
                       times: List[np.ndarray]) -> MemoryTrace:
        """Reconstruct the merged trace a fresh run would have recorded.

        Per-rank traces are rebuilt with replayed timestamps and merged with
        the *real* :func:`~repro.core.trace.merge_rank_traces` (the merged
        event order is timestamp-dependent, so it must be recomputed).
        """
        base_metadata = workload_metadata(config, len(self.ranks))
        rank_traces: List[MemoryTrace] = []
        for rank_index, rank in enumerate(self.ranks):
            absolute = times[rank_index]
            marks = [IterationMark(index=index,
                                   start_ns=int(absolute[span[0]]),
                                   end_ns=int(absolute[span[1]]))
                     for index, span in zip(rank.mark_indices, rank.mark_spans)]
            metadata = {
                "device": spec.to_dict(),
                "allocator": self.meta["allocator_name"],
                "execution_mode": config.execution_mode,
                **base_metadata,
                "device_rank": rank_index,
            }
            rank_traces.append(rank.trace(
                absolute[rank.event_tape_pos], iteration_marks=marks,
                metadata=metadata, end_ns=int(absolute[-1])))
        return merge_rank_traces(rank_traces)

    def replay_trace(self, config: TrainingRunConfig) -> MemoryTrace:
        """The merged trace a fresh run of ``config`` records, bit for bit:
        the captured structure under ``config``'s pricing (callers check
        :meth:`valid_for` first)."""
        times, _, clusters = self._price_times([config])
        return self._rebuild_trace(config, clusters[0].device,
                                   self._rank_times(times[0]))


# -- compilation ----------------------------------------------------------------------


def check_replay_envelope(config: TrainingRunConfig) -> None:
    """Raise a reason-coded :class:`TemplateError` for un-replayable configs."""
    if config.swap != "off":
        raise TemplateError("swap-execution runs are not replayable",
                            reason="swap_execution")
    if config.execution_mode != "symbolic":
        raise TemplateError("only symbolic runs can be captured",
                            reason="eager_mode")


def _compile_template_checked(config: TrainingRunConfig) -> TraceTemplate:
    """Run the simulation once and capture its structure as a template.

    Raises a reason-coded :class:`TemplateError` when the configuration is
    outside the replay envelope (swap execution on, eager numerics) or when
    the capture turns out not to be replayable (a timing atom the tape could
    not attribute, ranks disagreeing on the collective sequence).
    """
    check_replay_envelope(config)
    key = template_key(config)
    capture = _TemplateCapture()
    try:
        session = run_training_session(config, capture=capture)
    finally:
        capture.detach()

    spec = build_cluster(config).device
    classes = []
    for profiler, trace, tape in zip(capture.profilers, capture.traces,
                                     capture.tapes):
        rank = _capture_rank(profiler.recorder, trace, tape)
        preamble = tape.preamble_segments(spec.cuda_malloc_overhead_ns)
        if preamble < 0:
            raise TemplateError("pre-attach clock time is not whole segments",
                                reason="capture_inconsistent")
        rank.preamble_segments = preamble
        classes.append(rank)
    # Ranks of one replica class reference the one captured RankTemplate.
    ranks = [classes[index] for index in capture.rank_classes]
    allocator_stats = {k: int(v) for k, v in session.allocator_stats.items()}
    has_segment_free = (
        allocator_stats.get("segment_frees", 0) > 0
        or any(bool((rank.columns.kind_code == _SEGMENT_FREE_CODE).any())
               for rank in ranks))
    meta = {
        "schema": TEMPLATE_SCHEMA_VERSION,
        "allocator": config.allocator,
        "allocator_name": session.trace.metadata.get("allocator",
                                                     config.allocator),
        "dtype": config.dtype,
        "n_ranks": len(ranks),
        "compile_capacity": int(spec.memory_capacity),
        "has_segment_free": bool(has_segment_free),
        "peak_allocated_bytes": int(session.peak_allocated_bytes),
        "peak_reserved_bytes": int(session.peak_reserved_bytes),
        "parameter_bytes": int(session.parameter_bytes),
        "parameter_count": int(session.parameter_count),
        "allocator_stats": allocator_stats,
        "iteration_stats": [{"index": stats.index}
                            for stats in session.iteration_stats],
    }
    return TraceTemplate(key, meta, ranks)


# -- dtype-generalized families -------------------------------------------------------


class TemplateFamily:
    """Per-dtype :class:`TraceTemplate` variants sharing one structural key.

    ``dtype`` changes the event stream (half-precision tensors allocate
    half-width activations and AMP keeps fp32 master weights), so each dtype
    needs its own captured variant — but the *family* identity, the
    persisted ``.npz`` and the compile accounting are shared: a family is
    compiled once, then widened lazily by one extra capture per new dtype,
    and variants whose arrays match the base variant are persisted as
    references rather than copies.

    ``variants`` maps dtype name to the captured :class:`TraceTemplate`, or
    to ``None`` for a dtype whose capture failed (memoized so a sweep pays
    the failed attempt only once).
    """

    def __init__(self, key: str,
                 variants: Optional[Dict[str, Optional[TraceTemplate]]] = None):
        self.key = key
        self.variants: Dict[str, Optional[TraceTemplate]] = dict(variants or {})
        #: Whether this engine/process ran a fresh capture for the family
        #: (as opposed to loading every variant from the store).
        self.compiled_fresh = False

    def get(self, dtype: str) -> Optional[TraceTemplate]:
        """The captured variant for ``dtype`` (``None`` if absent or failed)."""
        return self.variants.get(dtype)

    def captured_dtypes(self) -> List[str]:
        """Dtypes with a successfully captured variant, sorted."""
        return sorted(dtype for dtype, template in self.variants.items()
                      if template is not None)

    def capture(self, config: TrainingRunConfig) -> TraceTemplate:
        """Capture (and memoize) the variant for ``config.dtype``.

        Raises the capture's reason-coded :class:`TemplateError` on failure
        after memoizing the failure, so repeated requests for a broken dtype
        do not re-run the simulation.
        """
        dtype = config.dtype
        try:
            template = _compile_template_checked(config)
        except TemplateError:
            self.variants[dtype] = None
            raise
        self.variants[dtype] = template
        self.compiled_fresh = True
        return template


# -- persistence ----------------------------------------------------------------------

#: (column group, members) pairs that must agree in length for a persisted
#: rank to be loadable — the torn-write / corruption screen on load.
_TAPE_COLUMNS = ("tape_kind", "tape_duration_ns", "tape_nbytes", "tape_flops",
                 "tape_bytes_moved")
#: Archive array name -> the :class:`EventColumns` field a rank holds it in.
_EVENT_FIELDS = {"event_kind": "kind_code", "event_block": "block_id",
                 "event_address": "address", "event_size": "size",
                 "event_category": "category_code", "event_iteration": "iteration"}
_EVENT_COLUMNS = (*_EVENT_FIELDS, "event_tape_pos")

#: Every per-rank array of the archive, in stored order.
_RANK_ARRAYS = (*_TAPE_COLUMNS, *_EVENT_COLUMNS, "mark_spans")


def _rank_array(rank: RankTemplate, name: str) -> np.ndarray:
    """The array ``rank`` holds under archive name ``name``."""
    field = _EVENT_FIELDS.get(name)
    return np.asarray(getattr(rank, name) if field is None
                      else getattr(rank.columns, field))


def _validate_rank_columns(columns: Dict[str, np.ndarray], info: dict) -> None:
    """Raise when a persisted rank's arrays are mutually inconsistent."""
    tape_len = len(columns["tape_kind"])
    for name in _TAPE_COLUMNS:
        if len(columns[name]) != tape_len:
            raise ValueError(f"tape column {name} length mismatch")
    event_len = len(columns["event_kind"])
    for name in _EVENT_COLUMNS:
        if len(columns[name]) != event_len:
            raise ValueError(f"event column {name} length mismatch")
    if len(info["event_tags"]) != event_len or len(info["event_ops"]) != event_len:
        raise ValueError("event annotation length mismatch")
    tape_pos = columns["event_tape_pos"]
    if event_len and (int(tape_pos.min()) < -1 or int(tape_pos.max()) >= tape_len):
        raise ValueError("event tape position out of range")
    if columns["mark_spans"].ndim != 2 or columns["mark_spans"].shape[1] != 2:
        raise ValueError("mark span table malformed")


def save_family(family: TemplateFamily, path: Path) -> None:
    """Persist a family atomically as a single ``.npz``.

    Arrays are namespaced ``v{variant}_r{rank}_{column}``; any array of a
    later variant that is byte-identical to the base variant's same-rank
    column is recorded in the header's ``aliased_arrays`` list instead of
    being written again, so a dtype variant costs only its structural delta.
    The file is published atomically through the directory's
    :class:`~repro.experiments.artifacts.ArtifactStore`, so a parallel
    reader never sees a torn template.
    """
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    variant_items = sorted((dtype, template)
                           for dtype, template in family.variants.items()
                           if template is not None)
    base = variant_items[0][1] if variant_items else None
    variants_header = []
    for j, (dtype, template) in enumerate(variant_items):
        ranks_header = []
        for i, rank in enumerate(template.ranks):
            aliased = []
            for name in _RANK_ARRAYS:
                column = _rank_array(rank, name)
                if j > 0 and i < len(base.ranks):
                    base_column = _rank_array(base.ranks[i], name)
                    if (column.dtype == base_column.dtype
                            and column.shape == base_column.shape
                            and np.array_equal(column, base_column)):
                        aliased.append(name)
                        continue
                arrays[f"v{j}_r{i}_{name}"] = column
            ranks_header.append({
                "event_tags": rank.event_tags,
                "event_ops": rank.event_ops,
                "mark_indices": rank.mark_indices,
                "preamble_segments": rank.preamble_segments,
                "aliased_arrays": aliased,
            })
        variants_header.append({"dtype": dtype, "meta": template.meta,
                                "ranks": ranks_header})
    header = {
        "schema": TEMPLATE_SCHEMA_VERSION,
        "key": family.key,
        "variants": variants_header,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)

    def write(temporary: Path) -> None:
        with open(temporary, "wb") as handle:  # a handle: savez would append ".npz"
            np.savez(handle, **arrays)

    ArtifactStore(path.parent).publish(path.name, write)


def load_family(path: Path, key: Optional[str] = None) -> Optional[TemplateFamily]:
    """Load a persisted family; ``None`` on any mismatch or corruption.

    Every rank's arrays are cross-validated (column lengths, tape-position
    range, span table shape) so a torn or hand-edited file is rejected rather
    than replayed — with the reason logged; another schema or key is a plain
    miss and says nothing.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("schema") != TEMPLATE_SCHEMA_VERSION:
                return None
            if key is not None and header.get("key") != key:
                return None
            family = TemplateFamily(str(header["key"]))
            base_columns: List[Dict[str, np.ndarray]] = []
            for j, variant_info in enumerate(header["variants"]):
                ranks = []
                for i, info in enumerate(variant_info["ranks"]):
                    aliased = set(info.get("aliased_arrays", ()))
                    columns = {}
                    for name in _RANK_ARRAYS:
                        if name in aliased:
                            columns[name] = base_columns[i][name]
                        else:
                            columns[name] = np.array(data[f"v{j}_r{i}_{name}"])
                    _validate_rank_columns(columns, info)
                    n_events = len(columns["event_kind"])
                    ranks.append(RankTemplate(
                        columns=EventColumns(
                            event_id=np.arange(n_events, dtype=np.int64),
                            timestamp_ns=np.zeros(n_events, dtype=np.int64),
                            device_rank=np.zeros(n_events, dtype=np.int64),
                            **{field: columns[name]
                               for name, field in _EVENT_FIELDS.items()}),
                        event_tags=[str(tag) for tag in info["event_tags"]],
                        event_ops=[str(op) for op in info["event_ops"]],
                        mark_indices=[int(x) for x in info["mark_indices"]],
                        preamble_segments=int(info["preamble_segments"]),
                        **{name: columns[name] for name in _RANK_ARRAYS
                           if name not in _EVENT_FIELDS},
                    ))
                    if j == 0:
                        base_columns.append(columns)
                family.variants[str(variant_info["dtype"])] = TraceTemplate(
                    str(header["key"]), variant_info["meta"], ranks)
            return family
    except Exception:  # whatever a damaged archive raises: the caller recompiles
        logger.warning("template file %s (key %s) is unreadable; treating it "
                       "as a miss", path, key, exc_info=True)
        return None


# -- the engine -----------------------------------------------------------------------


def _freeze(value):
    """Hashable mirror of a JSON-ish config value (for grouping tokens)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


# The grouping token's fields: every config field that is not a pricing axis.
# The ones that may hold a dict (the kwargs, and the one optional field: a
# latency model given in its plain-dict form) are frozen to stay hashable.
_TOKEN_FIELDS = [f for f in fields(TrainingRunConfig)
                 if f.name not in PRICING_FIELDS]
_TOKEN_DICTS = tuple(f.name for f in _TOKEN_FIELDS
                     if f.default_factory is dict or f.default is None)
_TOKEN_SCALARS = attrgetter(*(f.name for f in _TOKEN_FIELDS
                              if f.name not in _TOKEN_DICTS))


class ReplayEngine:
    """Compile-once / replay-many scenario pricer.

    Template *families* (one per dtype-free structural key, holding one
    captured variant per dtype) are memoized in memory; given a ``store``
    (the sweep runner builds one next to its result cache) they are also
    published through that
    :class:`~repro.experiments.template_store.TemplateStore` — a directory
    of content-addressed ``.npz`` files — so later processes skip
    compilation entirely.  A memoized ``None`` variant
    marks a dtype whose capture failed, so the sweep only pays the
    attempted compilation once.

    Every scenario that cannot be replay-priced bumps
    ``fallback_reasons[<TemplateError reason>]``; the sweep CLI surfaces the
    tally so fallbacks to fresh simulation are explained, not silent.
    """

    def __init__(self, store: Optional["TemplateStore"] = None):
        self.store = store
        self._families: Dict[str, TemplateFamily] = {}
        #: Families that required at least one fresh capture this process
        #: (store hits do not count, matching the pre-family semantics).
        self.templates_compiled = 0
        #: Individual compile simulations run (>= ``templates_compiled``
        #: when families were widened with extra dtypes).
        self.variants_captured = 0
        self.replayed = 0
        self.fallback_reasons: Dict[str, int] = {}

    # -- family/variant resolution ----------------------------------------------

    def _family_for(self, key: str) -> TemplateFamily:
        family = self._families.get(key)
        if family is None:
            if self.store is not None:
                family = self.store.load(key)
            if family is None:
                family = TemplateFamily(key)
            self._families[key] = family
        return family

    def _variant_for(self, config: TrainingRunConfig) -> TraceTemplate:
        """The captured variant serving ``config``; raises on any fallback."""
        check_replay_envelope(config)
        key = template_key(config)
        family = self._family_for(key)
        dtype = config.dtype
        if dtype in family.variants:
            template = family.variants[dtype]
            if template is None:
                raise TemplateError(
                    f"dtype {dtype} previously failed to compile",
                    reason="compile_failed")
            return template
        freshly_compiled_family = not family.compiled_fresh
        template = family.capture(config)
        self.variants_captured += 1
        if freshly_compiled_family:
            self.templates_compiled += 1
        if self.store is not None:
            self.store.publish(family)
        return template

    def template_for(self, config: TrainingRunConfig) -> Optional[TraceTemplate]:
        """The (possibly cached) template variant for ``config`` (or ``None``)."""
        try:
            return self._variant_for(config)
        except TemplateError:
            return None

    # -- pricing -----------------------------------------------------------------

    def _count_fallback(self, reason: str, count: int = 1) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + count

    @staticmethod
    def _structural_token(config: TrainingRunConfig) -> Tuple:
        """Cheap hashable grouping token: every non-pricing config field.

        Two configs with equal tokens share a :func:`template_key` and a
        dtype variant; the token spares the batch dispatcher one sha256+JSON
        fingerprint per scenario (the key is computed once per group
        instead).  The field list is derived from the config dataclass, so
        a new field splits groups unless it is declared a pricing axis.
        """
        return (_TOKEN_SCALARS(config),
                tuple(_freeze(getattr(config, name)) for name in _TOKEN_DICTS))

    def price_batch(self, scenarios: Sequence,
                    bandwidths_list: Sequence[BandwidthConfig],
                    keys: Optional[Sequence[str]] = None) -> List:
        """Replay-price a grid of scenarios, batching within each structure.

        Returns one entry per scenario: the priced
        :class:`~repro.experiments.sweep.ScenarioResult`, or ``None`` for
        scenarios that must be simulated fresh (with the reason tallied in
        ``fallback_reasons``).  A structure group the engine crashes on is
        declined as a whole (reason ``engine_error``, traceback logged); the
        other groups are unaffected.  ``keys`` optionally carries the
        scenarios' precomputed content hashes.
        """
        results: List = [None] * len(scenarios)
        groups: Dict[Tuple, List[int]] = {}
        for i, scenario in enumerate(scenarios):
            token = self._structural_token(scenario.config)
            groups.setdefault(token, []).append(i)
        for indices in groups.values():
            try:
                template = self._variant_for(scenarios[indices[0]].config)
                eligible = [i for i in indices
                            if template.valid_for(scenarios[i].config)]
                priced: List = []
                for block in range(0, len(eligible), PRICE_BLOCK_ROWS):
                    rows = eligible[block:block + PRICE_BLOCK_ROWS]
                    priced += template.replay_batch(
                        [scenarios[i] for i in rows],
                        [bandwidths_list[i] for i in rows],
                        time.perf_counter(),
                        None if keys is None else [keys[i] for i in rows])
            except TemplateError as exc:
                self._count_fallback(exc.reason, len(indices))
                continue
            except Exception:  # degrade this group to fresh simulation
                logger.warning(
                    "replay engine failed on %d scenario(s) like [%s]; "
                    "falling back to simulation", len(indices),
                    scenarios[indices[0]].describe(), exc_info=True)
                self._count_fallback("engine_error", len(indices))
                continue
            if len(eligible) < len(indices):
                self._count_fallback("capacity_mismatch",
                                     len(indices) - len(eligible))
            for i, result in zip(eligible, priced):
                results[i] = result
            self.replayed += len(eligible)
        return results
