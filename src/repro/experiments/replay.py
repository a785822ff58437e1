"""Trace-template replay: compile one structure, re-price thousands of scenarios.

A symbolic run's *event structure* — which blocks are allocated, accessed and
freed, in which order, at which addresses — is a pure function of the
workload (model, batch size, allocator, replica count); simulated *time* is
that structure priced under the timing axes (:data:`PRICING_FIELDS`).  This
module splits the two:

* :meth:`TemplateFamily.capture` records the simulation **once** per
  structure — a plain :func:`~repro.train.session.record_session`, the run
  a simulated row places: every device's recorder logs the timing atoms it
  moves the clock by (:mod:`repro.device.tape`), each with the rows before
  it — places it, and keeps a :class:`TraceTemplate`: per replica *class*
  (``rank_classes`` maps each rank to its class, as the
  :class:`~repro.train.session.Recording` does) the trace's event columns
  and tag / op lists as recorded, the clock's atoms (those the malloc and
  free rows and the placement's segments imply spliced in,
  :func:`_capture_rank`), the event→atom correspondence (atoms preceding
  each event) and iteration spans, plus the structural scalars (peaks,
  parameter bytes, allocator counters).  ``dtype`` is structural like any
  field outside :data:`PRICING_FIELDS`: fp16's activations and AMP master
  weights are another event stream, so another key and another capture.
* :meth:`TraceTemplate._price_points` prices each distinct pricing point of
  a batch once, at zero host dispatch, in one ``(points × atoms)`` int64
  broadcast per replica class; collectives are resolved with barrier
  semantics in a loop over the sync points, not over scenarios.  A row's
  clocks are then *affine* in its dispatch cost ``d``: every reading is
  ``T0[point] + d · K`` with ``K`` the kernels launched before that column.
  This is exact, not an approximation: ``d`` enters each kernel atom as an
  integer added after rounding, and every class launches the same number of
  kernels before each sync (checked at construction), so a barrier shifts
  all arrivals by the same ``d · K``.  :meth:`TraceTemplate._price_times`
  builds the full ``(S, width)`` rows from the points — bit-identical to
  what a fresh simulation advances its clocks by — for the one caller that
  rebuilds a merged trace (:meth:`TraceTemplate.replay_trace`).
* :meth:`TraceTemplate.replay_batch` reduces every row one way, to the exact
  :class:`~repro.experiments.sweep.ScenarioResult` a fresh simulation would
  produce (:func:`~repro.experiments.sweep.assemble_result`), **fed by the
  priced points**: ATI pairing, block sizes, live-bytes deltas and
  categories are structural (``merge_rank_traces`` keeps block ids
  rank-disjoint and per-rank clocks are monotone, so the merged trace's ATI
  pairs are the union of the rank-local ones), measured once per class
  (:func:`~repro.experiments.results.measure_class`, as a simulated row
  measures it) and laid out per rank on its class's clock columns
  (:class:`_MergedColumns`); per row only the gaps
  (``base_gap[point] + d · kgap``) and the few clock columns a reduction
  reads are gathered — no ``(S, width)`` time matrix is built.  A
  multi-rank template's merged event *order* depends on the pricing: the
  rows of one point share their point's stable order whenever it is the
  same at their smallest and largest dispatch cost (every sort key is affine
  in it, so two events swap at most once — :func:`shared_stable_order`),
  and sort their own clocks otherwise.  A row with a ``swap_policy``
  additionally evaluates it on rank 0's own recording — the captured
  columns re-timed to the row's rank-0 clocks (:meth:`TraceTemplate._rank_trace`),
  as a fresh session hands the policy its ``rank_traces[0]``.
* :class:`ReplayEngine` memoizes one :class:`TemplateFamily` — one capture —
  per key in memory and, given a
  :class:`~repro.experiments.template_store.TemplateStore`, as
  content-addressed archives beside the sweep cache; it declines — with a
  reason code the sweep CLI prints — whatever a template cannot serve
  (swap engine on, a capacity that changed allocator behaviour, an
  inconsistent capture, an engine crash on a structure group).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ati import summarize_rows_us
from ..core.breakdown import occupation_from_columns
from ..core.events import IterationMark, MemoryEventKind
from ..core.swap import BandwidthConfig, swappable_fractions
from ..core.trace import KIND_CODES, EventColumns, MemoryTrace, merge_rank_traces
from ..device.cluster import ClusterSpec
from ..device.collective import collective_summary
from ..device.spec import get_device_spec
from ..device.tape import (
    atom_index_table,
    TAPE_ALLOC_OVERHEAD,
    TAPE_ALLREDUCE,
    TAPE_CONST,
    TAPE_KERNEL,
    TAPE_MEMCPY_D2H,
    TAPE_MEMCPY_H2D,
    TAPE_SEGMENT_OVERHEAD,
)
from ..device.timing import KernelTimingModel
from ..core.recorder import PlacedTrace
from ..train.session import (
    RunStructure,
    TrainingRunConfig,
    build_cluster,
    record_session,
    workload_metadata,
)
from ..units import US
from .artifacts import ArtifactStore
from .failures import DETERMINISTIC, classify_failure
from .grid import PRICING_FIELDS, structure_token
from .results import assemble_result, evaluate_policy, measure_class

logger = logging.getLogger(__name__)

#: Version of the persisted template format; bump to invalidate stored templates.
#: v2: dtype-generalized families — ``dtype`` left the structural fingerprint
#: and one ``.npz`` holds every captured per-dtype variant (shared arrays
#: stored once, dtype-specific deltas stored against the base variant).
#: v3: no lifetime table — lifetimes are derived from the event columns.
#: v4: one execution mode — ``execution_mode`` left the config, so the
#: structural fingerprint (and every template key) changed.
#: v5: one capture per archive — ``dtype`` is back in the fingerprint — and
#: one entry per replica class, with the ranks' ``rank_classes``.
TEMPLATE_SCHEMA_VERSION = 5

_SEGMENT_FREE_CODE = KIND_CODES[MemoryEventKind.SEGMENT_FREE]

#: The pricing fields that select no pricing *point* in ``_price_points``: the
#: label prices nothing, the dispatch override is applied per row.
PER_ROW_PRICING_FIELDS = ("label", "host_dispatch_overhead_ns")
_POINT_KEY = attrgetter(*(name for name in PRICING_FIELDS
                          if name not in PER_ROW_PRICING_FIELDS))

#: The :class:`RunStructure` scalars a template's ``meta`` carries.
_STRUCTURE_SCALARS = ("peak_allocated_bytes", "peak_reserved_bytes",
                      "parameter_bytes", "parameter_count")

#: Rows of one structure group priced per ``replay_batch`` call.  Rows are
#: independent, so blocking changes no result; it bounds the point table
#: (at most one ``width``-long clock row per distinct point of the block) and
#: the block's two ``(rows × ATIs)`` buffers by the block instead of by the grid.
PRICE_BLOCK_ROWS = 64


class TemplateError(Exception):
    """A capture cannot be turned into (or served as) a replayable template.

    ``reason`` is a stable machine-readable code (``swap_execution``,
    ``capture_inconsistent``, ``capacity_mismatch``, ``compile_failed``,
    ``capture_failed``) surfaced by the sweep CLI so fallbacks to fresh
    simulation are explained, not silent.  A ``capture_failed`` error is
    raised from the deterministic error the capture's simulation raised.
    """

    def __init__(self, message: str, reason: str = "not_replayable"):
        super().__init__(message)
        self.reason = reason


# -- template identity ----------------------------------------------------------------


def template_fingerprint(config: TrainingRunConfig) -> Dict[str, object]:
    """Canonical JSON-friendly *structural* identity of a training config.

    Everything that shapes the event stream stays — ``dtype`` and the
    host-latency model included: the latter's pause is a constant atom on
    the tape, so each model is its own structure.  The pricing axes
    (:data:`PRICING_FIELDS`) are dropped.  An absent latency model leaves no
    entry.
    """
    if config.swap != "off":
        raise TemplateError("swap-execution runs are not replayable",
                            reason="swap_execution")
    structural = config.to_dict()
    for name in PRICING_FIELDS:
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


@dataclass
class RankTemplate:
    """One replica class's captured structure: its trace's events, tape
    atoms, mark spans."""

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
        """This class's trace, re-timed to ``timestamp_ns`` when given.

        The string lists (and every column but the timestamps) are shared
        with the template, as :meth:`MemoryTrace.rank_view` shares them.
        """
        columns = (self.columns if timestamp_ns is None
                   else replace(self.columns, timestamp_ns=timestamp_ns))
        return MemoryTrace(columns=columns, event_tags=self.event_tags,
                           event_ops=self.event_ops, **trace_fields)


def _capture_rank(placed: PlacedTrace, atoms: np.ndarray, spans: np.ndarray,
                  alloc_ns: int, segment_ns: int, preamble_segments: int) -> RankTemplate:
    """Lay one replica class's ``placed`` recording out as a
    :class:`RankTemplate`: its logged ``atoms`` and iteration ``spans``
    (:class:`~repro.train.session.Recording`), with the atoms the rows imply
    spliced in.

    Every malloc and free is preceded by its bookkeeping atom (``alloc_ns``
    long), after every atom logged with as many rows before it, and a call
    the placement reserves or releases segments for is followed by a
    segment atom (``segment_ns`` long) per segment, in front of its row.  A
    gradient barrier's atom is the replica's wait there, which the
    placement lengthens by its ``waits``.
    """
    trace = placed.trace
    cols = trace.columns()
    tags, ops = trace.event_strings()
    if (spans[:, 2:] < 0).any():
        raise TemplateError("iteration mark spans are incomplete",
                            reason="capture_inconsistent")
    calls = placed.calls
    logged = atoms["rows"]
    # The atoms, logged or implied, before each recorded row: those logged
    # with at most as many rows before them, and one per call up to the row.
    n = len(placed.columns)
    recorded = np.cumsum(np.bincount(logged, minlength=n + 1)[:n]
                         + np.bincount(calls, minlength=n))
    at = recorded[placed.anchors]
    positions = np.empty(len(cols), dtype=np.int64)
    positions[placed.rows] = recorded + np.searchsorted(at, recorded, side="right")
    positions[placed.segment_rows] = at + np.arange(1, at.size + 1)
    mark_spans = np.stack([spans[:, 0] + np.searchsorted(calls, spans[:, 1]),
                           spans[:, 2] + np.searchsorted(calls, spans[:, 3])], axis=1)
    # Each call's bookkeeping atom sits in front of the call's row, after the
    # logged atoms with as many rows before them.
    before_call = np.searchsorted(logged, calls, side="right")

    def spliced(name, call_value, segment_value):
        """Tape column ``name``: the logged atoms', the calls' and the segments'."""
        return np.insert(np.insert(atoms[name], before_call, call_value), at, segment_value)

    kind = spliced("kind", TAPE_ALLOC_OVERHEAD, TAPE_SEGMENT_OVERHEAD)
    duration = spliced("duration_ns", alloc_ns, segment_ns)
    if placed.waits:
        duration[kind == TAPE_ALLREDUCE] += placed.waits

    return RankTemplate(
        tape_kind=kind,
        tape_duration_ns=duration,
        tape_nbytes=spliced("nbytes", 0, 0),
        tape_flops=spliced("flops", 0.0, 0.0),
        tape_bytes_moved=spliced("bytes_moved", 0.0, 0.0),
        columns=cols,
        event_tags=tags,
        event_ops=ops,
        event_tape_pos=positions,
        mark_indices=[mark.index for mark in trace.iteration_marks],
        mark_spans=mark_spans + np.searchsorted(at, mark_spans, side="right"),
        preamble_segments=preamble_segments,
    )

# -- the template ---------------------------------------------------------------------


@dataclass
class _ClassAtoms:
    """One replica class's gather tables for the batched ``(S × atoms)``
    repricing.

    Per-kind atom positions (so a batch prices each kind with one
    fancy-indexed assignment instead of a boolean mask per scenario) and the
    pre-scaled roofline numerators.  ``base`` is the column of the class's
    clock-start entry in the batch's time matrix, whose rows concatenate
    every class's ``n_atoms + 1`` clock readings class-major; every rank of
    the class reads its clocks there.
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
    point.  Everything is stored rank-major / event-id-minor, each rank's
    entries its class's measure on its class's clock columns, so a stable
    argsort of re-priced timestamps reproduces the merge's
    ``(timestamp, rank, event_id)`` order on any subset of events (two ranks
    of one class tie, and keep rank order).  Events are addressed by the
    clock column holding their timestamp, so reductions gather straight from
    the priced points and never materialize a per-scenario event vector.
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

    atoms: List[_ClassAtoms]
    width: int                          # columns of the time matrix
    #: (width,) int64: kernel atoms of the column's class before the column —
    #: the coefficient of the dispatch cost in every clock reading.
    kernels_before: np.ndarray
    merged: _MergedColumns
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


def shared_stable_order(base: np.ndarray, slope: np.ndarray, low: int,
                        high: int) -> Optional[np.ndarray]:
    """The stable argsort of ``base + d · slope`` for every ``d`` in
    ``[low, high]``, or ``None`` when the order moves inside that range.

    Exact from the two ends alone: the relation between two entries (``a``
    before ``b``: ``base_a + d · slope_a <= base_b + d · slope_b``, strict
    when ``b`` comes first in index order) is affine in ``d``, so the ``d``
    where it holds form a half-line and it flips at most once.  When the
    stable orders at ``low`` and ``high`` agree, every pair relates the same
    way at both ends, hence at every ``d`` between them.
    """
    order = np.argsort(base + low * slope, kind="stable")
    if high != low and not np.array_equal(
            order, np.argsort(base + high * slope, kind="stable")):
        return None
    return order


def _column_breakdown(deltas: np.ndarray, categories: np.ndarray,
                      columns: np.ndarray) -> Tuple[Dict[str, object], int]:
    """The occupation breakdown of malloc/free events in this order, timed by
    their clock columns, and the column of its peak event (-1: no event).

    Rows that share the order share all of it but the peak instant, which
    each reads off its own clock at that column.
    """
    breakdown = occupation_from_columns(deltas, categories, columns).to_dict()
    return breakdown, (int(breakdown["peak_time_ns"]) if columns.size else -1)


def _kernels_before(rank: RankTemplate) -> np.ndarray:
    """``(n_atoms + 1,)`` int64: kernel atoms among the class's first ``i`` atoms."""
    counts = np.zeros(rank.tape_kind.size + 1, dtype=np.int64)
    np.cumsum(rank.tape_kind == TAPE_KERNEL, out=counts[1:])
    return counts


def _class_atoms(rank: RankTemplate, sync_pos: np.ndarray, base: int) -> _ClassAtoms:
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
    return _ClassAtoms(
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
    ``classes`` carries one :class:`RankTemplate` per replica class and
    ``rank_classes`` each rank's class, as a
    :class:`~repro.train.session.Recording` keeps them.  Construction
    validates the capture (matching sync sequences and kernel counts before
    each sync across the classes, events and the capture's iteration marks
    in every class); the timestamp-free tables behind batched repricing are
    built on first use.  A class is validated, priced and measured once;
    only the merged views (:class:`_MergedColumns`, :meth:`_rank_trace`,
    :meth:`_rebuild_trace`, :meth:`_collective_summary`) walk the ranks,
    each rank reading its class's clock columns.
    """

    def __init__(self, key: str, meta: Dict[str, object],
                 classes: Sequence[RankTemplate], rank_classes: Sequence[int]):
        self.key = key
        self.meta = dict(meta)
        self.classes = list(classes)
        self.rank_classes = tuple(int(index) for index in rank_classes)
        if not self.classes:
            raise TemplateError("a template needs at least one replica class",
                                reason="capture_inconsistent")
        self._validate_syncs()
        #: Iteration indices of the capture's step statistics, in step order.
        self.iteration_indices = [int(entry["index"])
                                  for entry in self.meta["iteration_stats"]]
        # Every row is reduced off each class's events and iteration spans
        # (:class:`_MergedColumns`), so a class must have both.
        if any(len(rank.columns) == 0 or rank.mark_indices != self.iteration_indices
               for rank in self.classes):
            raise TemplateError("a replica class recorded no events or other "
                                "iteration marks", reason="capture_inconsistent")
        self._batch: Optional[_BatchArrays] = None  # built on first replay_batch

    # -- validation -------------------------------------------------------------------

    def _validate_syncs(self) -> None:
        """Cross-rank allreduce atoms must agree in payload, class by class,
        and every class must launch the same number of kernels before each —
        the condition under which a barrier keeps the clocks affine in the
        dispatch cost (:class:`_PricedPoints`)."""
        self.sync_pos = [np.flatnonzero(rank.tape_kind == TAPE_ALLREDUCE)
                         for rank in self.classes]
        payloads = [rank.tape_nbytes[pos] for rank, pos in zip(self.classes, self.sync_pos)]
        if any(not np.array_equal(other, payloads[0]) for other in payloads[1:]):
            raise TemplateError("ranks disagree on the collective sequence",
                                reason="capture_inconsistent")
        launched = [_kernels_before(rank)[pos]
                    for rank, pos in zip(self.classes, self.sync_pos)]
        if any(not np.array_equal(other, launched[0]) for other in launched[1:]):
            raise TemplateError("ranks launch different kernel counts before a "
                                "collective", reason="capture_inconsistent")
        self.sync_nbytes = payloads[0]

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
        capacity = memory_capacity(config)
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
            atoms: List[_ClassAtoms] = []
            base = 0
            for rank, sync_pos in zip(self.classes, self.sync_pos):
                atoms.append(_class_atoms(rank, sync_pos, base))
                base += atoms[-1].n_atoms + 1
            traces = [rank.trace() for rank in self.classes]
            self._batch = _BatchArrays(
                atoms=atoms, width=base,
                kernels_before=np.concatenate([_kernels_before(rank)
                                               for rank in self.classes]),
                merged=self._merged_columns(atoms, traces),
                structure=RunStructure.of_classes(
                    traces, self.rank_classes, self.meta["allocator_stats"],
                    **{name: self.meta[name] for name in _STRUCTURE_SCALARS}))
        return self._batch

    def _merged_columns(self, atoms: Sequence[_ClassAtoms],
                        traces: Sequence[MemoryTrace]) -> _MergedColumns:
        """The merged trace's structure, addressed by time-matrix column:
        each class measured once (:func:`measure_class`), each rank its
        class's measure on its class's clock columns."""
        per_class = []
        for rank, tables, trace in zip(self.classes, atoms, traces):
            event_col = tables.base + rank.event_tape_pos
            measure = measure_class(trace)
            pairs = measure.pairs
            per_class.append({
                "ati_start_col": event_col[pairs.start_index],
                "ati_end_col": event_col[pairs.end_index],
                "ati_size": pairs.size,
                "life_col": event_col[measure.life],
                "life_delta": measure.life_delta,
                "life_category": measure.life_category,
            })
        columns = {name: np.concatenate([per_class[index][name]
                                         for index in self.rank_classes])
                   for name in per_class[0]}
        # (ranks, iterations, 2): every rank's spans on its class's columns
        spans = np.stack([self.classes[index].mark_spans + atoms[index].base
                          for index in self.rank_classes])

        breakdown_base, peak_col = None, -1
        if len(self.rank_classes) == 1:
            breakdown_base, peak_col = _column_breakdown(
                columns["life_delta"], columns["life_category"], columns["life_col"])
        return _MergedColumns(
            span_begin=spans[:, :, 0],
            span_end=spans[:, :, 1],
            breakdown_base=breakdown_base,
            peak_col=peak_col,
            **columns,
        )

    # -- re-pricing -------------------------------------------------------------------

    def _price_points(self, configs: Sequence[TrainingRunConfig]) -> _PricedPoints:
        """Every clock reading of every replica class at each distinct
        pricing point.

        The ``(points, width)`` int64 clock table — class ``c`` owns columns
        ``[base, base + n_atoms]``, entry ``base + i`` being its clock right
        after atom ``i - 1`` (``base`` itself the post-preamble start), so an
        event at tape position ``p`` happened at column ``base + p`` on every
        rank of the class — is
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
        leave a sync at the latest arrival plus the point's allreduce cost,
        and the ranks of a class arrive together, so the latest arrival is
        the latest class's.  Every class launches the same ``K`` before a sync
        (:meth:`_validate_syncs`), so every arrival — and hence the departure
        — carries the same ``d · K`` and the affine form survives the barrier.
        """
        batch = self._batch_arrays()
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
                costs.append([cluster.allreduce_time_ns(nbytes)
                              for nbytes in sync_nbytes])
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
        clocks: List[np.ndarray] = []      # per-class views into ``times``
        offsets: List[np.ndarray] = []     # per-class clock offset of the open segment
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

        # Each sync splits a class's timeline; between two syncs the clock is
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

    def _price_times(self, configs: Sequence[TrainingRunConfig]
                     ) -> Tuple[np.ndarray, np.ndarray, List[ClusterSpec]]:
        """Every clock reading of every replica class under every config.

        Returns the ``(S, width)`` int64 time matrix (columns as in
        :meth:`_price_points`, each row its point's clocks plus dispatch ×
        kernels launched), the ``(S, syncs)`` resolved collective costs and
        each row's cluster — every row bit-identical to what a fresh
        simulation advances its clocks by.  Only a caller that rebuilds a
        merged trace needs the matrix.
        """
        priced = self._price_points(configs)
        point_of = priced.point_of
        return (priced.times[point_of]
                + priced.dispatch[:, None] * self._batch_arrays().kernels_before,
                priced.sync_costs[point_of],
                [priced.clusters[point] for point in point_of.tolist()])

    def _class_times(self, row: np.ndarray) -> List[np.ndarray]:
        """Split one row of the time matrix into per-class clock arrays."""
        return [row[atoms.base:atoms.base + atoms.n_atoms + 1]
                for atoms in self._batch_arrays().atoms]

    # -- replay -----------------------------------------------------------------------

    def replay_batch(self, scenarios: Sequence[object],
                     bandwidths_list: Sequence[BandwidthConfig],
                     started: Optional[float] = None,
                     keys: Optional[Sequence[str]] = None) -> List[object]:
        """Price a whole grid of scenarios of this structure in one pass.

        Each distinct pricing point of the batch is priced once
        (:meth:`_price_points`).  Every row — single- and multi-rank alike —
        is then measured column-wise off the points, no row's time matrix
        ever built: ATI gaps read as ``base_gap[point] + d · kgap``
        (``kgap`` the kernels launched inside the interval), summarized and
        Eq.-1 screened by the row forms of the trace recipes, peak, span and
        lifecycle clocks gathered the same way.  A multi-rank template's
        merged event order, behind the ATI mean and the occupancy peak, is
        one stable argsort per point when the point's rows share it (one
        gather of their gaps, one breakdown, a peak instant per row — as
        single-rank rows always do), else one per row.  The ``(rows × ATIs)`` steps
        write into two buffers the block allocates — the int64 gaps, and one
        float64 matrix for the Eq.-1 limits and then the µs values — not
        into a fresh array per step.  A row whose ``swap_policy`` is not
        ``"none"`` also gets the policy's summary
        (:func:`~repro.experiments.results.evaluate_policy`) on rank 0's own
        trace re-timed to the row's rank-0 clocks (:meth:`_rank_trace`) —
        the recording a fresh session hands the policy.  Every row ends in
        :func:`~repro.experiments.sweep.assemble_result`.

        The returned list is parallel to ``scenarios`` and bit-identical to
        what a fresh symbolic simulation would produce (``wall_time_s``
        aside).  ``keys`` optionally carries the scenarios' precomputed
        content hashes.
        """
        if started is None:
            started = time.perf_counter()
        if keys is None:
            keys = [scenario.key() for scenario in scenarios]
        batch = self._batch_arrays()
        merged, structure = batch.merged, batch.structure
        priced = self._price_points([scenario.config for scenario in scenarios])
        point_of = priced.point_of.tolist()
        allreduce_ns = priced.sync_costs.sum(axis=1).tolist()
        # Rows are independent, so they are reduced grouped by point: each
        # point's rows are then one slice of every per-row array.
        rows = sorted(range(len(scenarios)), key=point_of.__getitem__)
        n_ranks = len(self.rank_classes)
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
        # summary sorts in place.  A multi-rank block adds, per point, its
        # gaps in closing-event order and, where the rows sort their own
        # order, their two clock gathers and argsorts.
        gaps = from_points(priced.times[:, merged.ati_end_col]
                           - priced.times[:, merged.ati_start_col],
                           kernels[merged.ati_end_col] - kernels[merged.ati_start_col])
        work = np.empty(gaps.shape)
        fractions = swappable_fractions(
            gaps, merged.ati_size,
            [bandwidths_list[i].round_trip_s_per_byte for i in rows], out=work).tolist()
        own_breakdown: Dict[int, Dict[str, object]] = {}

        def order_point(point, begin, end):
            """Put the gaps of the point's rows ``begin:end`` into the merged
            trace's closing-event order (the ATI mean sums in it), in place,
            and return the breakdown of the merged malloc/free order the rows
            share, with its peak column (:func:`_column_breakdown`).  The
            order at the rows' smallest and largest dispatch cost decides
            (:func:`shared_stable_order`): shared, it is one gather and one
            breakdown; otherwise each row sorts its own clocks, gets its own
            breakdown in ``own_breakdown``, and ``None`` is returned.
            Re-priced times are nearly sorted, where the stable timsort wins:
            64 x 4,500 rows 1.3 ms, against 3.5 ms for the default argsort
            of a unique composite key (``make kernel-probe``)."""
            dispatch = row_dispatch[begin:end]
            low, high = int(dispatch.min()), int(dispatch.max())

            def order_of(columns):
                """The rows' shared order, else each row's order and clocks."""
                order = shared_stable_order(priced.times[point, columns],
                                            kernels[columns], low, high)
                if order is not None:
                    return order, None
                clocks = priced.times[point, columns] + np.multiply.outer(
                    dispatch, kernels[columns])
                return np.argsort(clocks, axis=1, kind="stable"), clocks

            block = gaps[begin:end]
            order, _ = order_of(merged.ati_end_col)
            block[...] = (block[:, order] if order.ndim == 1
                          else np.take_along_axis(block, order, axis=1))
            order, clocks = order_of(merged.life_col)
            if clocks is None:
                return _column_breakdown(merged.life_delta[order],
                                         merged.life_category[order],
                                         merged.life_col[order])
            for j, row_order, row_clocks in zip(range(begin, end), order, clocks):
                own_breakdown[j] = occupation_from_columns(
                    merged.life_delta[row_order], merged.life_category[row_order],
                    row_clocks[row_order], label=scenarios[rows[j]].label).to_dict()
            return None

        # Per point, the breakdown its rows share and its peak event's
        # column (``None``: each row has its own).  One rank's event order
        # is its tape order, the same at every point.
        if n_ranks > 1:
            shared = [order_point(point, begin, end)
                      for point, (begin, end) in enumerate(zip(bounds, bounds[1:]))]
        else:
            shared = [(merged.breakdown_base, merged.peak_col)] * len(priced.clusters)
        summaries = summarize_rows_us(np.divide(gaps, US, out=work))
        step_ns = (clock_at(merged.span_end).max(axis=1)
                   - clock_at(merged.span_begin).min(axis=1)).tolist()
        peak_col = np.repeat([-1 if entry is None else entry[1] for entry in shared],
                             np.diff(bounds))
        peak_times = np.where(peak_col >= 0,
                              priced.times[priced.point_of[rows], peak_col]
                              + row_dispatch * kernels[peak_col], 0).tolist()

        first = batch.atoms[self.rank_classes[0]]
        rank0 = slice(first.base, first.base + first.n_atoms + 1)  # rank 0's clock columns
        results: List[object] = [None] * len(scenarios)
        for j, i in enumerate(rows):
            scenario, point = scenarios[i], point_of[i]
            cluster = priced.clusters[point]
            if shared[point] is None:
                breakdown = own_breakdown[j]
            else:
                breakdown = dict(shared[point][0])
                breakdown["label"] = scenario.label
                breakdown["peak_time_ns"] = peak_times[j]
            swap = None   # the "none" policy evaluates to None by definition
            if scenario.swap_policy != "none":
                clock = priced.times[point, rank0] + priced.dispatch[i] * kernels[rank0]
                swap = evaluate_policy(
                    scenario.swap_policy,
                    self._rank_trace(0, scenario.config, cluster.device, clock),
                    bandwidths_list[i])
            results[i] = assemble_result(
                scenario, keys[i], structure, ati=summaries[j],
                swappable=fractions[j], breakdown=breakdown,
                step_durations_ns=step_ns[j], swap=swap,
                collective=self._collective_summary(cluster, allreduce_ns[point]),
                swap_execution=None, started=started)
        return results

    def _collective_summary(self, cluster: ClusterSpec,
                            total_ns: int) -> Optional[Dict[str, object]]:
        """The session's ``collective`` block (``None`` on a single device)."""
        n_ranks = len(self.rank_classes)
        if n_ranks == 1:
            return None
        return collective_summary(cluster, n_ranks, len(self.sync_nbytes),
                                  int(self.sync_nbytes.sum()), total_ns)

    # -- trace rebuild ----------------------------------------------------------------

    def _rank_trace(self, rank_index: int, config: TrainingRunConfig, spec,
                    clock: np.ndarray) -> MemoryTrace:
        """The trace rank ``rank_index`` of a fresh run would have recorded.

        ``clock`` is the ``n_atoms + 1`` clock readings of the rank's class:
        the class's captured columns are re-timed to them, with the iteration
        marks and the metadata the rank's profiler gives its recording.
        """
        rank = self.classes[self.rank_classes[rank_index]]
        marks = [IterationMark(index=index,
                               start_ns=int(clock[span[0]]),
                               end_ns=int(clock[span[1]]))
                 for index, span in zip(rank.mark_indices, rank.mark_spans)]
        metadata = {
            "device": spec.to_dict(),
            "allocator": self.meta["allocator"],
            **workload_metadata(config, len(self.rank_classes)),
            "device_rank": rank_index,
        }
        return rank.trace(clock[rank.event_tape_pos], iteration_marks=marks,
                          metadata=metadata, end_ns=int(clock[-1]))

    def _rebuild_trace(self, config: TrainingRunConfig, spec,
                       times: List[np.ndarray]) -> MemoryTrace:
        """Reconstruct the merged trace a fresh run would have recorded.

        Every rank's trace (:meth:`_rank_trace` under its class's clock array
        in ``times``) is merged with the *real*
        :func:`~repro.core.trace.merge_rank_traces` (the merged event order
        is timestamp-dependent, so it must be recomputed).
        """
        return merge_rank_traces([self._rank_trace(rank_index, config, spec, times[index])
                                  for rank_index, index in enumerate(self.rank_classes)])

    def replay_trace(self, config: TrainingRunConfig) -> MemoryTrace:
        """The merged trace a fresh run of ``config`` records, bit for bit:
        the captured structure under ``config``'s pricing (callers check
        :meth:`valid_for` first)."""
        times, _, clusters = self._price_times([config])
        return self._rebuild_trace(config, clusters[0].device,
                                   self._class_times(times[0]))


# -- compilation ----------------------------------------------------------------------


def memory_capacity(config: TrainingRunConfig) -> int:
    """The device memory ``config`` runs in: its capacity, else its spec's."""
    if config.device_memory_capacity is not None:
        return config.device_memory_capacity
    return get_device_spec(config.device_spec).memory_capacity


def _compile_template_checked(config: TrainingRunConfig) -> TraceTemplate:
    """Record the front end once, place it, and capture its structure as a template.

    Raises a reason-coded :class:`TemplateError` when the configuration is
    outside the replay envelope (swap execution on: :func:`template_key`
    refuses it) or when the capture turns out not to be replayable (ranks
    disagreeing on the collective sequence).  The recording is a plain
    :func:`~repro.train.session.record_session`: its atoms and iteration
    spans are all a template needs besides the placement.  No merged trace
    is built: the template prices rows from the replicas' own recordings.
    """
    key = template_key(config)
    recording = record_session(config)
    spec = build_cluster(config).device
    placed = recording.placed(config)
    classes = [_capture_rank(trace, atoms, spans, spec.allocator_overhead_ns,
                             spec.cuda_malloc_overhead_ns, placement.preamble_segments)
               for atoms, spans, trace, placement in zip(
                   recording.atoms, recording.mark_spans, placed.traces,
                   placed.placements)]
    allocator_stats = {k: int(v) for k, v in placed.allocator_stats.items()}
    has_segment_free = (
        allocator_stats.get("segment_frees", 0) > 0
        or any(bool((rank.columns.kind_code == _SEGMENT_FREE_CODE).any())
               for rank in classes))
    meta = {
        "schema": TEMPLATE_SCHEMA_VERSION,
        "allocator": config.allocator,
        "n_ranks": recording.n_devices,
        "compile_capacity": int(spec.memory_capacity),
        "has_segment_free": bool(has_segment_free),
        "peak_allocated_bytes": int(placed.peak_allocated_bytes),
        "peak_reserved_bytes": int(placed.peak_reserved_bytes),
        "parameter_bytes": int(recording.parameter_bytes),
        "parameter_count": int(recording.parameter_count),
        "allocator_stats": allocator_stats,
        "iteration_stats": [{"index": mark.index}
                            for mark in recording.traces[0].iteration_marks],
    }
    return TraceTemplate(key, meta, classes, recording.rank_classes)


# -- the per-key memo -----------------------------------------------------------------


def _capture_failed(error: Exception) -> TemplateError:
    """The ``capture_failed`` decline of a row whose capture raised ``error``."""
    return TemplateError(f"capture failed: {error}", reason="capture_failed")


class TemplateFamily:
    """The per-key memo of one capture.

    ``template`` is the key's captured :class:`TraceTemplate` (``None``
    until it is captured or loaded).  ``declined`` memoizes a capture that
    is not replayable, so a sweep pays the failed attempt only once.  A
    capture whose simulation failed (``capture_failed``: an out-of-memory,
    say) failed at its capacity, a pricing field, so ``failed_captures``
    memoizes its error per capacity: a later row there fails with it, and a
    row at another capacity captures again.
    """

    def __init__(self, key: str, template: Optional[TraceTemplate] = None):
        self.key = key
        self.template = template
        self.declined = False
        self.failed_captures: Dict[int, Exception] = {}

    def capture(self, config: TrainingRunConfig) -> TraceTemplate:
        """Capture (and memoize) the template of ``config``'s structure.

        Raises the capture's reason-coded :class:`TemplateError` on failure
        after memoizing the decline, so repeated requests for a broken
        structure do not re-run the simulation.  A simulation error
        :func:`~repro.experiments.failures.classify_failure` calls
        deterministic is the scenario's own failure: it is memoized under
        ``config``'s capacity and raised as the cause of a ``capture_failed``
        :class:`TemplateError`.
        """
        try:
            self.template = _compile_template_checked(config)
        except TemplateError:
            self.declined = True
            raise
        except Exception as error:
            if classify_failure(error)[1] != DETERMINISTIC:
                raise
            self.failed_captures[memory_capacity(config)] = error
            raise _capture_failed(error) from error
        return self.template


# -- persistence ----------------------------------------------------------------------

#: (column group, members) pairs that must agree in length for a persisted
#: class to be loadable — the torn-write / corruption screen on load.
_TAPE_COLUMNS = ("tape_kind", "tape_duration_ns", "tape_nbytes", "tape_flops",
                 "tape_bytes_moved")
#: Archive array name -> the :class:`EventColumns` field a class holds it in.
_EVENT_FIELDS = {"event_kind": "kind_code", "event_block": "block_id",
                 "event_address": "address", "event_size": "size",
                 "event_category": "category_code", "event_iteration": "iteration"}
_EVENT_COLUMNS = (*_EVENT_FIELDS, "event_tape_pos")

#: Every per-class array of the archive, in stored order.
_CLASS_ARRAYS = (*_TAPE_COLUMNS, *_EVENT_COLUMNS, "mark_spans")


def _rank_array(rank: RankTemplate, name: str) -> np.ndarray:
    """The array ``rank`` holds under archive name ``name``."""
    field = _EVENT_FIELDS.get(name)
    return np.asarray(getattr(rank, name) if field is None
                      else getattr(rank.columns, field))


def _validate_rank_columns(columns: Dict[str, np.ndarray], info: dict) -> None:
    """Raise when a persisted class's arrays are mutually inconsistent."""
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
    if event_len and (int(tape_pos.min()) < 0 or int(tape_pos.max()) >= tape_len):
        raise ValueError("event tape position out of range")
    if (np.diff(tape_pos) < 0).any():
        raise ValueError("event tape positions decrease")
    spans = columns["mark_spans"]
    if spans.ndim != 2 or spans.shape[1] != 2:
        raise ValueError("mark span table malformed")
    if spans.size and (int(spans.min()) < 0 or int(spans.max()) > tape_len):
        raise ValueError("mark span outside the tape")
    if (spans[:, 0] > spans[:, 1]).any():
        raise ValueError("mark span begins after it ends")


def _validate_rank_classes(rank_classes: List[int], n_classes: int,
                           n_ranks: int) -> None:
    """Raise unless ``rank_classes`` maps ``n_ranks`` ranks onto exactly the
    ``n_classes`` stored classes."""
    if len(rank_classes) != n_ranks:
        raise ValueError(f"rank_classes names {len(rank_classes)} ranks, "
                         f"the template {n_ranks}")
    named = set(rank_classes)
    if not named <= set(range(n_classes)):
        raise ValueError("rank_classes names a class the archive lacks")
    if len(named) != n_classes:
        raise ValueError("a stored class serves no rank")


def save_family(family: TemplateFamily, path: Path) -> None:
    """Persist a family's template atomically as a single ``.npz``.

    Arrays are stored once per replica class, namespaced
    ``c{class}_{column}``; the header carries the template's ``meta``, its
    ``rank_classes`` and each class's string lists, iteration indices and
    preamble.  The file is published atomically through the directory's
    :class:`~repro.experiments.artifacts.ArtifactStore`, so a parallel
    reader never sees a torn template.
    """
    path = Path(path)
    template = family.template
    arrays: Dict[str, np.ndarray] = {
        f"c{i}_{name}": _rank_array(rank, name)
        for i, rank in enumerate(template.classes) for name in _CLASS_ARRAYS}
    header = {
        "schema": TEMPLATE_SCHEMA_VERSION,
        "key": family.key,
        "meta": template.meta,
        "rank_classes": list(template.rank_classes),
        "classes": [{"event_tags": rank.event_tags,
                     "event_ops": rank.event_ops,
                     "mark_indices": rank.mark_indices,
                     "preamble_segments": rank.preamble_segments}
                    for rank in template.classes],
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)

    def write(temporary: str) -> None:
        with open(temporary, "wb") as handle:  # a handle: savez would append ".npz"
            np.savez(handle, **arrays)

    ArtifactStore(path.parent).publish(path.name, write)


def _load_class(data, i: int, info: dict) -> RankTemplate:
    """Stored class ``i`` of the archive ``data``, its arrays screened."""
    columns = {name: np.array(data[f"c{i}_{name}"]) for name in _CLASS_ARRAYS}
    _validate_rank_columns(columns, info)
    n_events = len(columns["event_kind"])
    return RankTemplate(
        columns=EventColumns(
            event_id=np.arange(n_events, dtype=np.int64),
            timestamp_ns=np.zeros(n_events, dtype=np.int64),
            device_rank=np.zeros(n_events, dtype=np.int64),
            **{field: columns[name] for name, field in _EVENT_FIELDS.items()}),
        event_tags=[str(tag) for tag in info["event_tags"]],
        event_ops=[str(op) for op in info["event_ops"]],
        mark_indices=[int(x) for x in info["mark_indices"]],
        preamble_segments=int(info["preamble_segments"]),
        **{name: columns[name] for name in _CLASS_ARRAYS if name not in _EVENT_FIELDS},
    )


def load_family(path: Path, key: Optional[str] = None) -> Optional[TemplateFamily]:
    """Load a persisted family; ``None`` on any mismatch or corruption.

    Every class's arrays are cross-validated (column lengths, event tape
    positions non-decreasing inside the tape, iteration spans ordered inside
    ``[0, tape length]``) and ``rank_classes`` must map ``meta["n_ranks"]``
    ranks onto exactly the stored classes, so a torn or hand-edited file is
    rejected rather than replayed — with the reason logged; another schema
    or key is a plain miss and says nothing.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("schema") != TEMPLATE_SCHEMA_VERSION:
                return None
            if key is not None and header.get("key") != key:
                return None
            meta = header["meta"]
            classes = [_load_class(data, i, info)
                       for i, info in enumerate(header["classes"])]
            rank_classes = [int(index) for index in header["rank_classes"]]
            _validate_rank_classes(rank_classes, len(classes), int(meta["n_ranks"]))
            family_key = str(header["key"])
            return TemplateFamily(family_key, TraceTemplate(family_key, meta, classes,
                                                            rank_classes))
    except Exception:  # whatever a damaged archive raises: the caller recompiles
        logger.warning("template file %s (key %s) is unreadable; treating it "
                       "as a miss", path, key, exc_info=True)
        return None


# -- the engine -----------------------------------------------------------------------


class ReplayEngine:
    """Compile-once / replay-many scenario pricer.

    One :class:`TemplateFamily` per structural key — one capture — is
    memoized in memory; given a ``store`` (the sweep runner builds one next
    to its result cache) each captured template is also published, once,
    through that :class:`~repro.experiments.template_store.TemplateStore` —
    a directory of content-addressed ``.npz`` files — so later processes
    skip compilation entirely.  A family's memoized decline means the sweep
    only pays an attempted compilation once.

    Every scenario that cannot be replay-priced bumps
    ``fallback_reasons[<TemplateError reason>]``; the sweep CLI surfaces the
    tally so fallbacks to fresh simulation are explained, not silent.
    """

    def __init__(self, store: Optional["TemplateStore"] = None):
        self.store = store
        self._families: Dict[str, TemplateFamily] = {}
        #: Templates captured this process (store hits do not count).
        self.templates_compiled = 0
        self.replayed = 0
        self.fallback_reasons: Dict[str, int] = {}

    # -- template resolution ------------------------------------------------------

    def _family_for(self, key: str) -> TemplateFamily:
        family = self._families.get(key)
        if family is None:
            if self.store is not None:
                family = self.store.load(key)
            if family is None:
                family = TemplateFamily(key)
            self._families[key] = family
        return family

    def _template(self, config: TrainingRunConfig) -> TraceTemplate:
        """The captured template serving ``config``; raises on any fallback."""
        family = self._family_for(template_key(config))
        if family.template is not None:
            return family.template
        if family.declined:
            raise TemplateError("the structure previously failed to compile",
                                reason="compile_failed")
        failed = family.failed_captures.get(memory_capacity(config))
        if failed is not None:
            raise _capture_failed(failed) from failed
        template = family.capture(config)
        self.templates_compiled += 1
        if self.store is not None:
            self.store.publish(family)
        return template

    def template_for(self, config: TrainingRunConfig) -> Optional[TraceTemplate]:
        """The (possibly cached) template for ``config`` (or ``None``).

        A capture that fails deterministically raises its simulation's error:
        that run is ``config``'s outcome, so no caller simulates it again.
        """
        try:
            return self._template(config)
        except TemplateError as error:
            if error.reason == "capture_failed":
                raise error.__cause__
            return None

    # -- pricing -----------------------------------------------------------------

    def _count_fallback(self, reason: str, count: int = 1) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + count

    def price_batch(self, scenarios: Sequence,
                    bandwidths_list: Sequence[BandwidthConfig],
                    keys: Optional[Sequence[str]] = None,
                    tokens: Optional[Sequence[Tuple]] = None) -> List:
        """Replay-price a grid of scenarios, batching within each structure.

        Returns one entry per scenario: the priced
        :class:`~repro.experiments.sweep.ScenarioResult`, ``None`` for
        scenarios that must be simulated fresh (with the reason tallied in
        ``fallback_reasons``), or — for the rows of a structure group whose
        capture failed deterministically (``capture_failed``) — the error the
        capture's simulation raised: it is the outcome of every row of the
        group at the capture's capacity, and none of them is simulated
        again.  The group's rows at other capacities are priced from a
        capture at the next one's capacity.  A
        structure group the engine crashes on is
        declined as a whole (reason ``engine_error``, traceback logged); the
        other groups are unaffected.  Scenarios are grouped by
        :func:`~repro.experiments.grid.structure_token`: equal tokens share a
        :func:`template_key`, so the key is hashed once per group.  ``keys``
        and ``tokens`` optionally carry the scenarios' precomputed content
        hashes and tokens.
        """
        if tokens is None:
            tokens = [structure_token(scenario.config) for scenario in scenarios]
        results: List = [None] * len(scenarios)
        groups: Dict[Tuple, List[int]] = {}
        for i, token in enumerate(tokens):
            groups.setdefault(token, []).append(i)
        for indices in groups.values():
            while indices:
                indices = self._price_group(scenarios, indices, bandwidths_list, keys,
                                            results)
        return results

    def _price_group(self, scenarios: Sequence, indices: List[int],
                     bandwidths_list: Sequence[BandwidthConfig],
                     keys: Optional[Sequence[str]], results: List) -> List[int]:
        """Price one structure group's rows ``indices`` into ``results``.

        Returns the rows left to price: after a ``capture_failed``, which
        fails every row at the capture's capacity with its error, those at
        another capacity; otherwise none.
        """
        try:
            template = self._template(scenarios[indices[0]].config)
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
            if exc.reason != "capture_failed":
                self._count_fallback(exc.reason, len(indices))
                return []
            capacity = memory_capacity(scenarios[indices[0]].config)
            rest = []
            for i in indices:
                if memory_capacity(scenarios[i].config) == capacity:
                    results[i] = exc.__cause__
                else:
                    rest.append(i)
            self._count_fallback(exc.reason, len(indices) - len(rest))
            return rest
        except Exception:  # degrade this group to fresh simulation
            logger.warning(
                "replay engine failed on %d scenario(s) like [%s]; "
                "falling back to simulation", len(indices),
                scenarios[indices[0]].describe(), exc_info=True)
            self._count_fallback("engine_error", len(indices))
            return []
        if len(eligible) < len(indices):
            self._count_fallback("capacity_mismatch",
                                 len(indices) - len(eligible))
        for i, result in zip(eligible, priced):
            results[i] = result
        self.replayed += len(eligible)
        return []
