"""High-level memory profiler.

:class:`MemoryProfiler` is the user-facing entry point of the reproduction:
it stamps a description of the device (plus any metadata of the caller's)
on the device's :class:`~repro.core.recorder.TraceRecorder` — which has
recorded every behavior since the device was built — and hands back the
finished :class:`~repro.core.trace.MemoryTrace` — the recording placed by
the device's allocator in its memory
(:func:`~repro.core.recorder.place_traces`, which raises the allocator's
out-of-memory) — plus convenience analyses.

Example
-------
>>> device = Device(titan_x_pascal())
>>> profiler = MemoryProfiler(device)
>>> model = paper_mlp(device)
>>> Trainer(model, loader, optimizer, loss, device).train(5)
>>> trace = profiler.trace()
>>> intervals = profiler.access_intervals()   # an IntervalArrays, one row per ATI
"""

from __future__ import annotations

from typing import Dict, Optional

from ..device.allocator import place
from ..device.device import Device
from .ati import IntervalArrays, compute_interval_arrays
from .breakdown import OccupationBreakdown, occupation_breakdown
from .recorder import place_traces
from .trace import MemoryTrace


class MemoryProfiler:
    """Read a device's recorded behaviors as a placed trace."""

    def __init__(self, device: Device, metadata: Optional[Dict[str, object]] = None):
        self.device = device
        self.recorder = device.recorder
        self.recorder.metadata = {"device": device.spec.to_dict(),
                                  "allocator": device.allocator, **(metadata or {})}

    def trace(self) -> MemoryTrace:
        """The behaviors recorded so far, placed."""
        device, recording = self.device, self.recorder.to_trace()
        placement = place(recording, device.allocator, device.spec.memory_capacity)
        return place_traces([recording], [placement],
                            device.spec.cuda_malloc_overhead_ns)[0].trace

    def access_intervals(self, include_lifecycle: bool = False) -> IntervalArrays:
        """All access-time intervals of the recorded trace."""
        return compute_interval_arrays(self.trace(), include_lifecycle=include_lifecycle)

    def breakdown(self, label: str = "") -> OccupationBreakdown:
        """Occupation breakdown (Figures 5-7) of the recorded trace."""
        return occupation_breakdown(self.trace(), label=label)
