"""Device memory fragmentation analysis.

The paper reads fragmentation off the Gantt chart as the blank space between
rectangles along the y-axis and notes "there are fewer memory fragments
during MLP training".  This module quantifies that:

* *internal* fragmentation: an upper bound on the bytes handed out beyond
  what was requested (size rounding);
* *external* fragmentation: reserved-but-unallocated bytes held in the
  allocator's cache;
* a reserved/allocated utilization timeline replayed from the trace.

All per-event reductions run on the trace's column store
(:meth:`~repro.core.trace.MemoryTrace.columns`): the allocated/reserved
timeline is a pair of cumulative sums over vectorized event-delta arrays
(:func:`fragmentation_series`), and :func:`analyze_fragmentation` computes
its peaks and utilization statistics directly on those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .events import MemoryEventKind
from .trace import KIND_CODES, MemoryTrace

_MALLOC = KIND_CODES[MemoryEventKind.MALLOC]
_FREE = KIND_CODES[MemoryEventKind.FREE]
_SEG_ALLOC = KIND_CODES[MemoryEventKind.SEGMENT_ALLOC]
_SEG_FREE = KIND_CODES[MemoryEventKind.SEGMENT_FREE]


@dataclass
class FragmentationReport:
    """Summary of fragmentation over a whole trace."""

    peak_allocated_bytes: int
    peak_reserved_bytes: int
    mean_utilization: float
    min_utilization: float
    peak_cached_bytes: int

    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by reports and the allocator ablation."""
        return {
            "peak_allocated_bytes": self.peak_allocated_bytes,
            "peak_reserved_bytes": self.peak_reserved_bytes,
            "peak_cached_bytes": self.peak_cached_bytes,
            "mean_utilization": self.mean_utilization,
            "min_utilization": self.min_utilization,
        }


def fragmentation_series(trace: MemoryTrace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``(timestamps, allocated, reserved)`` series of allocator events.

    One entry per malloc/free/segment event, in stream order: cumulative sums
    of the per-event byte deltas over the trace's column store.
    """
    empty = np.array([], dtype=np.int64)
    if trace.is_empty:
        return empty, empty.copy(), empty.copy()
    cols = trace.columns()
    kind = cols.kind_code
    alloc_delta = np.where(kind == _MALLOC, cols.size,
                           np.where(kind == _FREE, -cols.size, 0))
    reserved_delta = np.where(kind == _SEG_ALLOC, cols.size,
                              np.where(kind == _SEG_FREE, -cols.size, 0))
    mask = ((kind == _MALLOC) | (kind == _FREE)
            | (kind == _SEG_ALLOC) | (kind == _SEG_FREE))
    if not mask.any():
        return empty, empty.copy(), empty.copy()
    return (cols.timestamp_ns[mask],
            np.cumsum(alloc_delta[mask]),
            np.cumsum(reserved_delta[mask]))


def analyze_fragmentation(trace: MemoryTrace) -> FragmentationReport:
    """Compute the fragmentation report of a trace (one vectorized scan)."""
    timestamps, allocated, reserved = fragmentation_series(trace)
    if timestamps.size == 0:
        return FragmentationReport(peak_allocated_bytes=0, peak_reserved_bytes=0,
                                   mean_utilization=1.0, min_utilization=1.0,
                                   peak_cached_bytes=0)
    # Utilization is only meaningful once something is reserved.
    meaningful = reserved > 0
    utilizations = allocated[meaningful] / reserved[meaningful]
    return FragmentationReport(
        peak_allocated_bytes=int(allocated.max()),
        peak_reserved_bytes=int(reserved.max()),
        mean_utilization=float(utilizations.mean()) if utilizations.size else 1.0,
        min_utilization=float(utilizations.min()) if utilizations.size else 1.0,
        peak_cached_bytes=int(np.maximum(reserved - allocated, 0).max()),
    )


def internal_fragmentation_bytes(trace: MemoryTrace) -> int:
    """Peak bytes lost to size rounding (block size minus requested size).

    Requested sizes are not part of the event stream, so this uses the block
    lifetimes' recorded sizes versus their tags when available; the allocator
    rounds to 512-byte granularity, so the upper bound per live block is
    511 bytes — this returns that bound scaled by the peak live block count.
    """
    if trace.is_empty:
        return 0
    cols = trace.columns()
    deltas = np.where(cols.is_malloc, 1, np.where(cols.is_free, -1, 0))
    if not deltas.any():
        return 0
    peak_live_blocks = int(max(0, np.cumsum(deltas).max()))
    return peak_live_blocks * 511
