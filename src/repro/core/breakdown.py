"""Device memory occupation breakdown (Figures 5, 6 and 7).

Following LeCun et al., the paper splits device memory contents into three
buckets — *input data*, *parameters* and *intermediate results* — and reports
each bucket's share of the footprint for several DNNs, batch sizes and layer
structures.  Here the breakdown is computed from the recorded trace: we replay
the allocation/free events, find the instant of peak occupancy and attribute
the bytes live at that instant to their buckets (a per-category peak view is
also provided).

The replay is vectorized over the trace's column store
(:meth:`~repro.core.trace.MemoryTrace.columns`): malloc/free events become
``+size``/``-size`` deltas, one cumulative sum over the delta column locates
the peak instant, and per-category/per-bucket attribution takes one masked
``(categories × events)`` cumulative sum over the categories that appear in
the trace (at most nine) — no Python-level event loop, which is what lets
the sweep engine compute a breakdown for every scenario it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..units import format_bytes
from .events import PAPER_BUCKETS
from .trace import CATEGORY_FROM_CODE, MemoryTrace


@dataclass
class OccupationBreakdown:
    """Bytes per bucket at the moment of peak device occupancy."""

    label: str
    peak_time_ns: int
    total_bytes: int
    bucket_bytes: Dict[str, int]
    category_bytes: Dict[str, int]
    category_peak_bytes: Dict[str, int]

    def fraction(self, bucket: str) -> float:
        """Share of the footprint attributed to one paper bucket at the peak."""
        if self.total_bytes == 0:
            return 0.0
        return self.bucket_bytes.get(bucket, 0) / self.total_bytes

    def fractions(self) -> Dict[str, float]:
        """Share of every paper bucket at the peak."""
        return {bucket: self.fraction(bucket) for bucket in PAPER_BUCKETS}

    def to_dict(self) -> Dict[str, object]:
        """Serialize for figure-data export."""
        return {
            "label": self.label,
            "peak_time_ns": self.peak_time_ns,
            "total_bytes": self.total_bytes,
            "bucket_bytes": dict(self.bucket_bytes),
            "bucket_fractions": self.fractions(),
            "category_bytes": dict(self.category_bytes),
            "category_peak_bytes": dict(self.category_peak_bytes),
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "OccupationBreakdown":
        """Reconstruct a breakdown from :meth:`to_dict` output (sweep-cache path)."""
        return OccupationBreakdown(
            label=str(data.get("label", "")),
            peak_time_ns=int(data.get("peak_time_ns", 0)),
            total_bytes=int(data.get("total_bytes", 0)),
            bucket_bytes={str(k): int(v)
                          for k, v in dict(data.get("bucket_bytes", {})).items()},
            category_bytes={str(k): int(v)
                            for k, v in dict(data.get("category_bytes", {})).items()},
            category_peak_bytes={str(k): int(v)
                                 for k, v in dict(data.get("category_peak_bytes", {})).items()},
        )

    def format_row(self) -> str:
        """One human-readable row: label, total and per-bucket shares."""
        shares = ", ".join(
            f"{bucket}: {format_bytes(self.bucket_bytes.get(bucket, 0))} "
            f"({100.0 * self.fraction(bucket):.1f}%)"
            for bucket in PAPER_BUCKETS
        )
        return f"{self.label}: total {format_bytes(self.total_bytes)} | {shares}"


def occupation_breakdown(trace: MemoryTrace, label: str = "") -> OccupationBreakdown:
    """Compute the paper's three-way breakdown at the point of peak occupancy.

    Vectorized: the live-bytes walk is a cumulative sum over the malloc/free
    event columns; the peak instant is the first maximum of the total, and the
    per-category attribution is one cumulative sum along the rows of a
    ``(categories × events)`` matrix.
    """
    trace.require_events()
    cols = trace.columns()
    mask = cols.is_malloc | cols.is_free
    return occupation_from_columns(cols.live_deltas()[mask],
                                   cols.category_code[mask],
                                   cols.timestamp_ns[mask], label=label)


def occupation_from_columns(deltas: np.ndarray, categories: np.ndarray,
                            timestamps: np.ndarray,
                            label: str = "") -> OccupationBreakdown:
    """The breakdown of a malloc/free stream given as parallel columns.

    ``deltas`` (+size on malloc, -size on free), ``categories`` (category
    codes) and ``timestamps`` hold one entry per malloc/free event, in event
    order.  This is the whole reduction behind :func:`occupation_breakdown`;
    the replay engine feeds it the same columns in a re-priced event order
    without building a trace.  The columns are only read.
    """
    bucket_bytes: Dict[str, int] = {bucket: 0 for bucket in PAPER_BUCKETS}
    if not deltas.size:
        return OccupationBreakdown(label=label, peak_time_ns=0, total_bytes=0,
                                   bucket_bytes=bucket_bytes, category_bytes={},
                                   category_peak_bytes={})

    live_total = np.cumsum(deltas)
    peak_index = int(np.argmax(live_total))          # first occurrence of the max
    peak_total = int(live_total[peak_index])
    peak_time = int(timestamps[peak_index])

    # The codes present, ascending (``np.unique`` would import ``numpy.ma``),
    # and one ``(codes × events)`` matrix of each category's deltas, summed
    # in place into its live bytes along every row at once.
    codes = np.flatnonzero(np.bincount(categories))
    live = np.where(categories == codes[:, None], deltas, 0)
    np.cumsum(live, axis=1, out=live)
    category_bytes: Dict[str, int] = {}
    category_peak_bytes: Dict[str, int] = {}
    for code, live_at_peak, running_peak in zip(
            codes.tolist(), live[:, peak_index].tolist(), live.max(axis=1).tolist()):
        category = CATEGORY_FROM_CODE[code]
        if live_at_peak > 0:
            category_bytes[category.value] = live_at_peak
            bucket_bytes[category.paper_bucket()] += live_at_peak
        if running_peak > 0:
            category_peak_bytes[category.value] = running_peak

    return OccupationBreakdown(
        label=label,
        peak_time_ns=peak_time,
        total_bytes=max(0, peak_total),
        bucket_bytes=bucket_bytes,
        category_bytes=category_bytes,
        category_peak_bytes=category_peak_bytes,
    )


def positioned_breakdown(deltas: np.ndarray, categories: np.ndarray,
                         positions: np.ndarray) -> Tuple[Dict[str, object], int]:
    """:func:`occupation_from_columns` of a malloc/free stream timed by
    ``positions`` instead of a clock, as a dict, and the position of its peak
    event (-1: no event).  Streams that share this order share all of it but
    the peak instant, which each reads off its own clock at that position."""
    breakdown = occupation_from_columns(deltas, categories, positions).to_dict()
    return breakdown, (int(breakdown["peak_time_ns"]) if positions.size else -1)


@dataclass
class BreakdownSeries:
    """A family of breakdowns indexed by a swept parameter (batch size, depth, ...)."""

    parameter_name: str
    entries: List[Tuple[object, OccupationBreakdown]] = field(default_factory=list)

    def add(self, parameter_value: object, breakdown: OccupationBreakdown) -> None:
        """Append one sweep point."""
        self.entries.append((parameter_value, breakdown))

    def fractions_table(self) -> List[Dict[str, object]]:
        """Rows of ``{parameter, total_bytes, <bucket fractions>}`` for reporting."""
        rows = []
        for parameter_value, breakdown in self.entries:
            row: Dict[str, object] = {
                self.parameter_name: parameter_value,
                "total_bytes": breakdown.total_bytes,
            }
            row.update({bucket: breakdown.fraction(bucket) for bucket in PAPER_BUCKETS})
            rows.append(row)
        return rows

    def trend(self, bucket: str) -> List[float]:
        """The bucket's fraction across the sweep, in sweep order."""
        return [breakdown.fraction(bucket) for _, breakdown in self.entries]

    def is_monotonic_increasing(self, bucket: str, tolerance: float = 0.02) -> bool:
        """Whether the bucket's share grows (within tolerance) along the sweep."""
        values = self.trend(bucket)
        return all(b >= a - tolerance for a, b in zip(values, values[1:]))

    def is_monotonic_decreasing(self, bucket: str, tolerance: float = 0.02) -> bool:
        """Whether the bucket's share shrinks (within tolerance) along the sweep."""
        values = self.trend(bucket)
        return all(b <= a + tolerance for a, b in zip(values, values[1:]))


def model_state_bytes(model, optimizer=None) -> Dict[str, int]:
    """Static (trace-free) accounting of a model's persistent device bytes.

    Returns parameter, gradient (same size as parameters once allocated),
    buffer and optimizer-state byte counts — the "parameters" side of the
    breakdown that does not depend on batch size.
    """
    parameter_bytes = model.parameter_bytes()
    buffer_bytes = model.buffer_bytes()
    optimizer_bytes = optimizer.state_bytes() if optimizer is not None else 0
    return {
        "parameters": parameter_bytes,
        "gradients": parameter_bytes,
        "buffers": buffer_bytes,
        "optimizer_state": optimizer_bytes,
    }
