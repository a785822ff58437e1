"""Gantt-chart data extraction (Figure 2).

Figure 2 of the paper draws one rectangle per device memory block lifetime:
the rectangle's horizontal extent is the block's allocation-to-free span and
its height is the block's size; stacking rectangles by address shows live
ranges overlapping and the gaps between them (device memory fragments).

This module extracts that data from a trace; the ASCII rendering lives in
:mod:`repro.viz.ascii`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .events import MemoryCategory
from .trace import CATEGORY_FROM_CODE, NEVER_FREED, MemoryTrace, lifetimes_from_columns


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


@dataclass
class GanttChart:
    """The full set of lifetime rectangles plus iteration boundaries."""

    rectangles: List[GanttRectangle]
    iteration_bounds: List[tuple]     # (index, start_ns, end_ns)
    end_ns: int

    def __len__(self) -> int:
        return len(self.rectangles)


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

    cols = trace.columns()
    tags = trace.event_tags
    rows, free_ns, _ = lifetimes_from_columns(cols)
    rectangles: List[GanttRectangle] = []
    for row, block_id, address, size, category, start, freed, iteration, rank in zip(
            rows.tolist(), cols.block_id[rows].tolist(), cols.address[rows].tolist(),
            cols.size[rows].tolist(), cols.category_code[rows].tolist(),
            cols.timestamp_ns[rows].tolist(), free_ns.tolist(),
            cols.iteration[rows].tolist(), cols.device_rank[rows].tolist()):
        if max_iterations is not None and iteration >= max_iterations:
            continue
        end = freed if freed != NEVER_FREED else end_ns
        if max_iterations is not None:
            end = min(end, end_ns)
        rectangles.append(GanttRectangle(
            block_id=block_id,
            tag=tags[row],
            category=CATEGORY_FROM_CODE[category],
            address=address,
            size=size,
            start_ns=start,
            end_ns=max(start, end),
            iteration=iteration,
            device_rank=rank,
        ))
    rectangles.sort(key=lambda rect: (rect.start_ns, rect.address))
    return GanttChart(rectangles=rectangles, iteration_bounds=bounds, end_ns=end_ns)
