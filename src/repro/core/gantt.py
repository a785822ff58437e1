"""Gantt-chart data extraction (Figure 2).

Figure 2 of the paper draws one rectangle per device memory block lifetime:
the rectangle's horizontal extent is the block's allocation-to-free span and
its height is the block's size; stacking rectangles by address shows live
ranges overlapping and the gaps between them (device memory fragments).

This module extracts that data from a trace; the ASCII rendering lives in
:mod:`repro.viz.ascii`.

The chart's analyses are columnized: a :class:`GanttChart` lazily builds one
set of parallel NumPy arrays (start, end, size, address, iteration, rank)
over its rectangles, and every aggregate — peak concurrency, overlap
queries, lifetime statistics, address-gap scans — is a vectorized reduction
over those arrays rather than a per-rectangle Python loop, mirroring the
:meth:`~repro.core.trace.MemoryTrace.columns` design of the trace itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..units import ns_to_ms
from .events import BlockLifetime, MemoryCategory
from .trace import MemoryTrace


@dataclass(frozen=True)
class GanttRectangle:
    """One rectangle of the Gantt chart: a block lifetime with its size."""

    block_id: int
    tag: str
    category: MemoryCategory
    address: int
    size: int
    start_ns: int
    end_ns: int
    iteration: int
    device_rank: int = 0

    @property
    def duration_ns(self) -> int:
        """Lifetime duration (the rectangle's width)."""
        return self.end_ns - self.start_ns

    def overlaps_time(self, other: "GanttRectangle") -> bool:
        """Whether two lifetimes overlap in time (live-range overlap)."""
        return self.start_ns < other.end_ns and other.start_ns < self.end_ns

    def to_dict(self) -> Dict[str, object]:
        """Serialize for figure-data export."""
        return {
            "block_id": self.block_id,
            "tag": self.tag,
            "category": self.category.value,
            "address": self.address,
            "size": self.size,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "iteration": self.iteration,
            "device_rank": self.device_rank,
        }


@dataclass(frozen=True)
class RectangleColumns:
    """Column-oriented view of a chart's rectangles (parallel ``int64`` arrays)."""

    start_ns: np.ndarray
    end_ns: np.ndarray
    size: np.ndarray
    address: np.ndarray
    iteration: np.ndarray
    device_rank: np.ndarray

    def __len__(self) -> int:
        return int(self.start_ns.size)


@dataclass
class GanttChart:
    """The full set of lifetime rectangles plus iteration boundaries."""

    rectangles: List[GanttRectangle]
    iteration_bounds: List[tuple]     # (index, start_ns, end_ns)
    end_ns: int

    def __len__(self) -> int:
        return len(self.rectangles)

    def columns(self) -> RectangleColumns:
        """Columnar NumPy view of the rectangles (built lazily, cached)."""
        cached = getattr(self, "_rectangle_columns", None)
        if cached is not None and len(cached) == len(self.rectangles):
            return cached
        n = len(self.rectangles)
        arrays = {name: np.empty(n, dtype=np.int64)
                  for name in ("start_ns", "end_ns", "size", "address",
                               "iteration", "device_rank")}
        for i, rect in enumerate(self.rectangles):
            arrays["start_ns"][i] = rect.start_ns
            arrays["end_ns"][i] = rect.end_ns
            arrays["size"][i] = rect.size
            arrays["address"][i] = rect.address
            arrays["iteration"][i] = rect.iteration
            arrays["device_rank"][i] = rect.device_rank
        columns = RectangleColumns(**arrays)
        self._rectangle_columns = columns
        return columns

    def _select(self, mask: np.ndarray) -> List[GanttRectangle]:
        """Materialize the rectangles selected by a boolean column mask."""
        return [self.rectangles[int(i)] for i in np.flatnonzero(mask)]

    def rectangles_in_iteration(self, iteration: int) -> List[GanttRectangle]:
        """Rectangles whose lifetime started during ``iteration``."""
        if not self.rectangles:
            return []
        return self._select(self.columns().iteration == iteration)

    def rectangles_overlapping(self, start_ns: int, end_ns: int) -> List[GanttRectangle]:
        """Rectangles alive at any point inside ``[start_ns, end_ns]``."""
        if not self.rectangles:
            return []
        cols = self.columns()
        return self._select((cols.start_ns < end_ns) & (start_ns < cols.end_ns))

    def max_concurrent_bytes(self) -> int:
        """Peak sum of sizes of simultaneously live rectangles.

        Sweep-line over the start/end endpoints: at equal timestamps the
        negative (free) deltas sort first, matching the historical
        ``(time, delta)`` tuple sort.
        """
        if not self.rectangles:
            return 0
        cols = self.columns()
        times = np.concatenate([cols.start_ns, cols.end_ns])
        deltas = np.concatenate([cols.size, -cols.size])
        order = np.lexsort((deltas, times))
        live = np.cumsum(deltas[order])
        return int(max(0, live.max()))

    def lifetime_stats(self) -> Dict[str, float]:
        """Mean / max lifetime duration and size over all rectangles."""
        if not self.rectangles:
            return {"count": 0, "mean_duration_ms": 0.0, "max_duration_ms": 0.0,
                    "mean_size": 0.0, "max_size": 0.0}
        cols = self.columns()
        durations = cols.end_ns - cols.start_ns
        return {
            "count": len(self.rectangles),
            "mean_duration_ms": ns_to_ms(float(durations.mean())),
            "max_duration_ms": ns_to_ms(float(durations.max())),
            "mean_size": float(cols.size.mean()),
            "max_size": float(cols.size.max()),
        }


def build_gantt_chart(trace: MemoryTrace, max_iterations: Optional[int] = None) -> GanttChart:
    """Build the Gantt chart of a trace, optionally limited to the first iterations.

    Blocks still live at the end of the trace (parameters, gradients,
    optimizer state) are closed at the trace end so they draw as full-width
    rectangles, exactly as in the paper's figure.
    """
    end_ns = max(trace.end_ns, trace.start_ns + trace.duration_ns)
    bounds = [(mark.index, mark.start_ns, mark.end_ns if mark.end_ns is not None else end_ns)
              for mark in trace.iteration_marks]
    if max_iterations is not None:
        bounds = [entry for entry in bounds if entry[0] < max_iterations]
        if bounds:
            end_ns = max(entry[2] for entry in bounds)

    rectangles: List[GanttRectangle] = []
    for lifetime in trace.lifetimes:
        if max_iterations is not None and lifetime.iteration >= max_iterations:
            continue
        start = lifetime.malloc_ns
        end = lifetime.free_ns if lifetime.free_ns is not None else end_ns
        if max_iterations is not None:
            end = min(end, end_ns)
        rectangles.append(GanttRectangle(
            block_id=lifetime.block_id,
            tag=lifetime.tag,
            category=lifetime.category,
            address=lifetime.address,
            size=lifetime.size,
            start_ns=start,
            end_ns=max(start, end),
            iteration=lifetime.iteration,
            device_rank=lifetime.device_rank,
        ))
    rectangles.sort(key=lambda rect: (rect.start_ns, rect.address))
    return GanttChart(rectangles=rectangles, iteration_bounds=bounds, end_ns=end_ns)


def address_gaps(chart: GanttChart, at_time_ns: int) -> List[tuple]:
    """Free gaps between live blocks along the address axis at ``at_time_ns``.

    The paper reads fragmentation off the blank space between rectangles along
    the y-axis; this returns ``(gap_start_address, gap_size)`` pairs between
    consecutive live blocks, computed with one vectorized scan over the
    chart's rectangle columns.
    """
    if not chart.rectangles:
        return []
    cols = chart.columns()
    live = (cols.start_ns <= at_time_ns) & (at_time_ns < cols.end_ns)
    addresses = cols.address[live]
    sizes = cols.size[live]
    order = np.argsort(addresses, kind="stable")
    addresses, sizes = addresses[order], sizes[order]
    if addresses.size < 2:
        return []
    gap_starts = addresses[:-1] + sizes[:-1]
    gaps = addresses[1:] - gap_starts
    positive = gaps > 0
    return [(int(start), int(gap))
            for start, gap in zip(gap_starts[positive], gaps[positive])]
