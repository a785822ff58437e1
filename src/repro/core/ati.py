"""Access-time-interval (ATI) analysis.

The ATI is the elapsed time between two adjacent memory accesses to the same
device memory block (Section III of the paper).  Figures 3 and 4 are built
from the collection of per-block ATIs:

* Figure 3a is the CDF of all ATIs;
* Figure 3b is the violin plot of ATIs grouped by behavior kind;
* Figure 4 plots each behavior's ATI together with the size of the block it
  touches, revealing the high-ATI / large-block outliers.

Two API levels share one vectorized core built on the trace's column store
(:meth:`~repro.core.trace.MemoryTrace.columns`):

* :func:`compute_interval_arrays` sorts the access events by
  ``(block_id, timestamp_ns)`` once and differences adjacent timestamps in
  bulk, producing an :class:`IntervalArrays` record of parallel NumPy
  columns (``block_id``, ``size``, ``category_code``, ``interval_ns``,
  ``start_index``/``end_index`` into ``trace.events``).  The sweep engine
  and the Eq.-1 feasibility screening consume these arrays directly.
* :func:`compute_access_intervals` materializes the same pairing as
  object-level :class:`AccessInterval` records for consumers that need tags,
  kinds or per-interval inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..units import ns_to_us
from .events import MemoryCategory, MemoryEvent, MemoryEventKind
from .stats import percentiles_of_sorted
from .trace import CATEGORY_FROM_CODE, KIND_FROM_CODE, MemoryTrace, stable_block_order


@dataclass(frozen=True)
class AccessInterval:
    """One ATI sample: the gap between two adjacent accesses to the same block."""

    block_id: int
    size: int
    category: MemoryCategory
    tag: str
    interval_ns: int
    start_event_id: int
    end_event_id: int
    start_kind: MemoryEventKind
    end_kind: MemoryEventKind
    iteration: int

    @property
    def interval_us(self) -> float:
        """The ATI in microseconds (the unit the paper reports)."""
        return ns_to_us(self.interval_ns)

    def to_dict(self) -> Dict[str, object]:
        """Serialize for CSV/JSON export."""
        return {
            "block_id": self.block_id,
            "size": self.size,
            "category": self.category.value,
            "tag": self.tag,
            "interval_ns": self.interval_ns,
            "interval_us": self.interval_us,
            "start_event_id": self.start_event_id,
            "end_event_id": self.end_event_id,
            "start_kind": self.start_kind.value,
            "end_kind": self.end_kind.value,
            "iteration": self.iteration,
        }


@dataclass
class AtiSummary:
    """Distribution summary of a set of ATIs (all durations in microseconds)."""

    count: int
    mean_us: float
    p50_us: float
    p90_us: float
    p99_us: float
    min_us: float
    max_us: float

    def to_dict(self) -> Dict[str, float]:
        """Serialize the summary."""
        return {
            "count": self.count,
            "mean_us": self.mean_us,
            "p50_us": self.p50_us,
            "p90_us": self.p90_us,
            "p99_us": self.p99_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
        }


@dataclass(frozen=True)
class IntervalArrays:
    """Column-oriented ATI samples (one entry per adjacent access pair).

    This is the vectorized core of the ATI analysis: pairing, gap
    computation and filtering are NumPy bulk operations over the trace's
    column store.  ``start_index``/``end_index`` are positions into
    ``trace.events`` so that object-level consumers (:func:`compute_access_intervals`)
    can materialize :class:`AccessInterval` records without re-deriving the
    pairing, while array-level consumers (the sweep engine, Eq.-1 feasibility
    screening) never touch Python objects at all.
    """

    block_id: np.ndarray       # int64
    size: np.ndarray           # int64 (bytes touched by the closing access)
    category_code: np.ndarray  # int64
    interval_ns: np.ndarray    # int64
    start_event_id: np.ndarray  # int64
    end_event_id: np.ndarray   # int64
    start_kind_code: np.ndarray  # int64
    end_kind_code: np.ndarray  # int64
    iteration: np.ndarray      # int64
    start_index: np.ndarray    # int64, positions into trace.events
    end_index: np.ndarray      # int64, positions into trace.events

    def __len__(self) -> int:
        return int(self.interval_ns.size)

    @property
    def interval_us(self) -> np.ndarray:
        """The ATIs in microseconds (the unit the paper reports)."""
        return self.interval_ns / 1_000.0


def compute_interval_arrays(trace: MemoryTrace, include_lifecycle: bool = False,
                            min_interval_ns: int = 0) -> IntervalArrays:
    """Vectorized ATI extraction: every adjacent same-block access pair.

    Pairs are formed per block in event order (a stable sort by block id
    preserves the stream order within each block), gaps below
    ``min_interval_ns`` are dropped and the result is ordered by the closing
    event's id — identical semantics to the historical per-block Python loop,
    at NumPy speed.
    """
    trace.require_events()
    cols = trace.columns()
    if include_lifecycle:
        mask = cols.is_block_behavior
    else:
        mask = cols.is_access
    mask = mask & (cols.block_id > 0)
    positions = np.flatnonzero(mask)

    empty = np.array([], dtype=np.int64)
    if positions.size < 2:
        return IntervalArrays(*(empty.copy() for _ in range(11)))

    blocks = cols.block_id[positions]
    order = stable_block_order(blocks)
    sorted_positions = positions[order]
    sorted_blocks = blocks[order]

    adjacent = sorted_blocks[1:] == sorted_blocks[:-1]
    start_pos = sorted_positions[:-1][adjacent]
    end_pos = sorted_positions[1:][adjacent]
    gaps = cols.timestamp_ns[end_pos] - cols.timestamp_ns[start_pos]
    if min_interval_ns > 0:
        keep = gaps >= min_interval_ns
        start_pos, end_pos, gaps = start_pos[keep], end_pos[keep], gaps[keep]

    final = np.argsort(cols.event_id[end_pos])  # event ids are unique: no ties to keep
    start_pos, end_pos, gaps = start_pos[final], end_pos[final], gaps[final]
    return IntervalArrays(
        block_id=cols.block_id[end_pos],
        size=cols.size[end_pos],
        category_code=cols.category_code[end_pos],
        interval_ns=gaps,
        start_event_id=cols.event_id[start_pos],
        end_event_id=cols.event_id[end_pos],
        start_kind_code=cols.kind_code[start_pos],
        end_kind_code=cols.kind_code[end_pos],
        iteration=cols.iteration[end_pos],
        start_index=start_pos,
        end_index=end_pos,
    )


def compute_access_intervals(trace: MemoryTrace, include_lifecycle: bool = False,
                             min_interval_ns: int = 0,
                             min_size: int = 0) -> List[AccessInterval]:
    """Compute every ATI in a trace.

    Parameters
    ----------
    trace:
        The recorded memory trace.
    include_lifecycle:
        If true, ``malloc``/``free`` events also count as accesses when
        forming adjacent pairs (the paper's instrumentation tracks all four
        behaviors; accesses alone are the default because only they move
        data).
    min_interval_ns:
        Drop intervals shorter than this (0 keeps everything).
    min_size:
        Drop intervals whose block is smaller than this many bytes (0 keeps
        everything).  The floor is applied to the interval *columns*, before
        any :class:`AccessInterval` is built, and keeps the order — the swap
        planner passes its candidate floor and gets exactly the intervals it
        would have kept from the full list.
    """
    arrays = compute_interval_arrays(trace, include_lifecycle=include_lifecycle,
                                     min_interval_ns=min_interval_ns)
    keep = np.flatnonzero(arrays.size >= min_size)
    if keep.size == 0:
        return []
    tags, _ops = trace.event_strings()
    columns = (arrays.block_id, arrays.size, arrays.category_code, arrays.end_index,
               arrays.interval_ns, arrays.start_event_id, arrays.end_event_id,
               arrays.start_kind_code, arrays.end_kind_code, arrays.iteration)
    rows = np.stack([column[keep] for column in columns], axis=1).tolist()
    return [AccessInterval(block_id, size, CATEGORY_FROM_CODE[category], tags[end],
                           interval_ns, start_id, end_id, KIND_FROM_CODE[start_kind],
                           KIND_FROM_CODE[end_kind], iteration)
            for (block_id, size, category, end, interval_ns, start_id, end_id,
                 start_kind, end_kind, iteration) in rows]


def intervals_by_kind(intervals: Sequence[AccessInterval]) -> Dict[str, List[AccessInterval]]:
    """Group intervals by the kind of the access that closes them (Figure 3b groups)."""
    grouped: Dict[str, List[AccessInterval]] = {}
    for interval in intervals:
        grouped.setdefault(interval.end_kind.value, []).append(interval)
    return grouped


def intervals_by_category(intervals: Sequence[AccessInterval]) -> Dict[str, List[AccessInterval]]:
    """Group intervals by the memory category of the block."""
    grouped: Dict[str, List[AccessInterval]] = {}
    for interval in intervals:
        grouped.setdefault(interval.category.value, []).append(interval)
    return grouped


def summarize_rows_us(values: np.ndarray) -> List[AtiSummary]:
    """One distribution summary per row of an ``(S, n)`` matrix of ATIs in microseconds.

    The only implementation of the summary recipe: a single trace is the
    one-row case (:func:`summarize_values_us`), a replayed grid passes one
    row per policy-free scenario.  The mean sums each row in the order
    given; then one sort per row hands out the minimum, the maximum and the
    percentiles (:func:`~repro.core.stats.percentiles_of_sorted`).

    ``values`` is consumed: a C-contiguous float64 matrix (the replay
    block's own buffer) is sorted in place, anything else is copied once.
    """
    # C-contiguous rows: reduced along the last axis each row is one pairwise
    # sum, bit for bit the 1-D ``mean()`` of that row; a Fortran-ordered
    # matrix is summed in another blocking and can differ in the last ulp.
    values = np.ascontiguousarray(values, dtype=np.float64)
    n_rows, count = values.shape
    if count == 0:
        return [AtiSummary(count=0, mean_us=0.0, p50_us=0.0, p90_us=0.0, p99_us=0.0,
                           min_us=0.0, max_us=0.0) for _ in range(n_rows)]
    means = values.mean(axis=1).tolist()
    values.sort(axis=1)
    p50, p90, p99 = percentiles_of_sorted(values, (50, 90, 99)).tolist()
    mins, maxs = values[:, 0].tolist(), values[:, -1].tolist()
    return [AtiSummary(count=count, mean_us=means[i],
                       p50_us=p50[i], p90_us=p90[i], p99_us=p99[i],
                       min_us=mins[i], max_us=maxs[i])
            for i in range(n_rows)]


def summarize_values_us(values: np.ndarray) -> AtiSummary:
    """Distribution summary of raw ATI values in microseconds (one percentile pass).

    Summarizes a copy: ``values`` is left as it was.
    """
    return summarize_rows_us(np.array(values, dtype=np.float64)[None, :])[0]


def summarize_intervals(intervals) -> AtiSummary:
    """Distribution summary (mean / percentiles) of a set of ATIs.

    Accepts either a sequence of :class:`AccessInterval` objects or an
    :class:`IntervalArrays` column set.
    """
    return summarize_values_us(interval_values_us(intervals))


def fraction_below(intervals, threshold_us: float) -> float:
    """Fraction of ATIs below ``threshold_us`` (the paper's "90% below 25us" claim)."""
    values = interval_values_us(intervals)
    if values.size == 0:
        return 0.0
    return float(np.mean(values <= threshold_us))


def interval_values_us(intervals) -> np.ndarray:
    """The raw ATI values in microseconds as a NumPy array.

    Accepts either a sequence of :class:`AccessInterval` objects or an
    :class:`IntervalArrays` column set (returned as-is, no copy).
    """
    if isinstance(intervals, IntervalArrays):
        return intervals.interval_us
    return np.array([interval.interval_us for interval in intervals], dtype=np.float64)
