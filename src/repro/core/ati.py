"""Access-time-interval (ATI) analysis.

The ATI is the elapsed time between two adjacent memory accesses to the same
device memory block (Section III of the paper).  Figures 3 and 4 are built
from the collection of per-block ATIs:

* Figure 3a is the CDF of all ATIs;
* Figure 3b is the violin plot of ATIs grouped by behavior kind;
* Figure 4 plots each behavior's ATI together with the size of the block it
  touches, revealing the high-ATI / large-block outliers.

One record holds them: :func:`compute_interval_arrays` sorts the access
events of the trace's column store
(:meth:`~repro.core.trace.MemoryTrace.columns`) by ``(block_id,
timestamp_ns)`` once and differences adjacent timestamps in bulk, producing
an :class:`IntervalArrays` of parallel NumPy columns, one row per ATI.
Every consumer — the sweep reduction, Eq.-1 screening, the figures, the
outlier report and the swap planner — reads those columns and keeps row
indices into them.  Strings stay off the record: a consumer that prints a
row reads its tag from ``trace.event_strings()`` at the row's ``end_index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .stats import percentiles_of_sorted
from .trace import MemoryTrace, stable_block_order


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
    """Column-oriented ATI samples: one row per adjacent same-block access pair.

    ``start_index`` / ``end_index`` are the pair's rows in the trace's
    columns (:meth:`~repro.core.trace.MemoryTrace.columns`) and in its
    ``event_strings()``: a consumer reads a row's fields off the columns.  ``size``, ``category_code`` and
    ``iteration`` are the closing access's.
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
    start_index: np.ndarray    # int64, row of the opening access in trace.columns()
    end_index: np.ndarray      # int64, row of the closing access in trace.columns()

    def __len__(self) -> int:
        return int(self.interval_ns.size)

    @property
    def interval_us(self) -> np.ndarray:
        """The ATIs in microseconds (the unit the paper reports)."""
        return self.interval_ns / 1_000.0


def compute_interval_arrays(trace: MemoryTrace,
                            include_lifecycle: bool = False) -> IntervalArrays:
    """Every adjacent same-block access pair of ``trace``, ordered by the
    closing event's id.

    Pairs are formed per block in event order (a stable sort by block id
    preserves the stream order within each block).  With
    ``include_lifecycle`` a block's ``malloc`` and ``free`` pair as accesses
    too (the paper's instrumentation tracks all four behaviors; accesses
    alone are the default because only they move data).
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
