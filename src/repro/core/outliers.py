"""Outlier memory behaviors (Figure 4).

Most ATIs are tiny, but the paper highlights a handful of behaviors whose ATI
exceeds 0.8 s *and* whose block is larger than 600 MB (the red-marked example
is 840 211 us on a 1200 MB block).  Those outliers are the only behaviors for
which host↔device swapping can hide its transfer cost, so they are "the focus
of attention" for memory-pressure reduction.

Every function here reads one :class:`~repro.core.ati.IntervalArrays` and
answers with row indices into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..units import MIB, format_bytes, format_duration, ns_to_us, s_to_ns
from .ati import IntervalArrays
from .trace import CATEGORY_FROM_CODE, KIND_FROM_CODE

#: The paper's outlier thresholds.
DEFAULT_ATI_THRESHOLD_NS = s_to_ns(0.8)
DEFAULT_SIZE_THRESHOLD_BYTES = 600 * MIB


def _by_ati_times_size(arrays: IntervalArrays, rows: np.ndarray) -> List[int]:
    """``rows`` ranked by (ATI x size), largest first; ties keep row order.

    The products are Python integers: a multi-second gap on a multi-GB
    block overflows int64.
    """
    return sorted(rows.tolist(), reverse=True,
                  key=lambda row: int(arrays.interval_ns[row]) * int(arrays.size[row]))


@dataclass
class OutlierReport:
    """The outlier rows of one set of access intervals.

    ``rows`` index ``intervals`` in row order; ``tags`` holds the tag of
    each one's closing access, the only strings the report prints.
    """

    ati_threshold_ns: int
    size_threshold_bytes: int
    intervals: IntervalArrays
    rows: np.ndarray
    tags: List[str]

    @property
    def count(self) -> int:
        """Number of outlier behaviors."""
        return int(self.rows.size)

    @property
    def fraction(self) -> float:
        """Outliers as a fraction of all behaviors."""
        if len(self.intervals) == 0:
            return 0.0
        return self.count / len(self.intervals)

    @property
    def largest(self) -> Optional[int]:
        """The row of the outlier with the largest (ATI x size) product —
        Figure 4's red mark."""
        if not self.count:
            return None
        return _by_ati_times_size(self.intervals, self.rows)[0]

    def outlier_bytes(self) -> int:
        """Total bytes of the distinct blocks involved in outlier behaviors."""
        seen: Dict[int, int] = {}
        for block_id, size in zip(self.intervals.block_id[self.rows].tolist(),
                                  self.intervals.size[self.rows].tolist()):
            seen[block_id] = max(seen.get(block_id, 0), size)
        return sum(seen.values())

    def _row_dicts(self) -> List[Dict[str, object]]:
        """Each outlier row's fields, ``tag`` included, in row order."""
        columns = [getattr(self.intervals, name)[self.rows].tolist() for name in (
            "block_id", "size", "category_code", "interval_ns", "start_event_id",
            "end_event_id", "start_kind_code", "end_kind_code", "iteration")]
        return [{
            "block_id": block_id, "size": size,
            "category": CATEGORY_FROM_CODE[category].value, "tag": tag,
            "interval_ns": interval_ns, "interval_us": ns_to_us(interval_ns),
            "start_event_id": start_id, "end_event_id": end_id,
            "start_kind": KIND_FROM_CODE[start_kind].value,
            "end_kind": KIND_FROM_CODE[end_kind].value, "iteration": iteration,
        } for (block_id, size, category, interval_ns, start_id, end_id, start_kind,
               end_kind, iteration), tag in zip(zip(*columns), self.tags)]

    def describe(self) -> List[str]:
        """Human-readable lines describing each outlier (largest first)."""
        by_row = dict(zip(self.rows.tolist(), self._row_dicts()))
        ranked = [by_row[index] for index in _by_ati_times_size(self.intervals, self.rows)]
        return [
            (f"block {row['block_id']} ({row['tag'] or row['category']}): "
             f"ATI {format_duration(row['interval_ns'])}, "
             f"size {format_bytes(row['size'])}")
            for row in ranked
        ]

    def to_dict(self) -> Dict[str, object]:
        """Serialize for figure-data export."""
        return {
            "ati_threshold_ns": self.ati_threshold_ns,
            "size_threshold_bytes": self.size_threshold_bytes,
            "total_intervals": len(self.intervals),
            "count": self.count,
            "fraction": self.fraction,
            "outliers": self._row_dicts(),
        }


def find_outliers(arrays: IntervalArrays, tags: List[str],
                  ati_threshold_ns: int = DEFAULT_ATI_THRESHOLD_NS,
                  size_threshold_bytes: int = DEFAULT_SIZE_THRESHOLD_BYTES) -> OutlierReport:
    """Select behaviors whose ATI and block size both reach the thresholds.

    ``tags`` are the trace's per-event tags (``trace.event_strings()[0]``);
    only the outliers' closing ones are kept.
    """
    rows = np.flatnonzero((arrays.interval_ns >= ati_threshold_ns)
                          & (arrays.size >= size_threshold_bytes))
    return OutlierReport(
        ati_threshold_ns=ati_threshold_ns,
        size_threshold_bytes=size_threshold_bytes,
        intervals=arrays,
        rows=rows,
        tags=[tags[end] for end in arrays.end_index[rows].tolist()],
    )


def pairwise_ati_size(arrays: IntervalArrays) -> List[Dict[str, object]]:
    """Figure 4's raw series: one ``{index, ati_us, size}`` row per behavior."""
    return [
        {
            "behavior_index": index,
            "block_id": block_id,
            "ati_us": ati_us,
            "size_bytes": size,
            "category": CATEGORY_FROM_CODE[category].value,
        }
        for index, (block_id, ati_us, size, category) in enumerate(zip(
            arrays.block_id.tolist(), arrays.interval_us.tolist(),
            arrays.size.tolist(), arrays.category_code.tolist()))
    ]


def top_swap_candidates(arrays: IntervalArrays, top_k: int = 10,
                        min_size_bytes: int = 1 * MIB) -> np.ndarray:
    """The rows of the ``top_k`` behaviors ranked by (ATI x size), ignoring
    tiny blocks.

    This is the ranking the paper's planned "automatic cost model" would use
    to sift out the behaviors worth swapping.
    """
    rows = np.flatnonzero(arrays.size >= min_size_bytes)
    return np.array(_by_ati_times_size(arrays, rows)[:top_k], dtype=np.int64)
