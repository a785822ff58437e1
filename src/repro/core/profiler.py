"""High-level memory profiler.

:class:`MemoryProfiler` is the user-facing entry point of the reproduction:
it attaches a :class:`~repro.core.recorder.TraceRecorder` to a device for the
duration of a ``with`` block (or between ``start()``/``stop()`` calls), passes
iteration boundaries through to the recorder, and hands back the finished
:class:`~repro.core.trace.MemoryTrace` — the recording placed by the
device's allocator in its memory (:func:`~repro.core.recorder.place_traces`,
which raises the allocator's out-of-memory) — plus convenience analyses.

Example
-------
>>> device = Device(titan_x_pascal())
>>> model = paper_mlp(device)
>>> with MemoryProfiler(device) as profiler:
...     trainer = Trainer(model, loader, optimizer, loss, device,
...                       recorder=profiler)
...     trainer.train(5)
>>> trace = profiler.trace()
>>> intervals = profiler.access_intervals()   # an IntervalArrays, one row per ATI
"""

from __future__ import annotations

from typing import Dict, Optional

from ..device.device import Device
from ..errors import TraceError
from .ati import IntervalArrays, compute_interval_arrays
from .breakdown import OccupationBreakdown, occupation_breakdown
from .recorder import TraceRecorder, place_traces
from .trace import MemoryTrace


class MemoryProfiler:
    """Attach allocator/storage instrumentation to a device and collect a trace."""

    def __init__(self, device: Device, metadata: Optional[Dict[str, object]] = None):
        self.device = device
        meta = {"device": device.spec.to_dict(), "allocator": device.allocator}
        meta.update(metadata or {})
        self.recorder = TraceRecorder(device, metadata=meta)
        self._attached = False
        self._trace: Optional[MemoryTrace] = None

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "MemoryProfiler":
        """Attach the recorder to the device and begin collecting behaviors."""
        if not self._attached:
            self.device.recorder = self.recorder
            self._attached = True
        return self

    def detach(self) -> None:
        """Stop recording the device's behaviors."""
        if self._attached:
            self.device.recorder = None
            self._attached = False

    def stop(self) -> MemoryTrace:
        """Detach from the device and freeze the (placed) trace."""
        self.detach()
        return self.trace()

    def __enter__(self) -> "MemoryProfiler":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.detach()

    # -- recorder passthrough (so the profiler can be handed to the Trainer) -------------

    def begin_iteration(self, index: int) -> None:
        """Forward an iteration start to the recorder."""
        self.recorder.begin_iteration(index)

    def end_iteration(self, index: int) -> None:
        """Forward an iteration end to the recorder."""
        self.recorder.end_iteration(index)

    # -- results ------------------------------------------------------------------------

    def trace(self) -> MemoryTrace:
        """The recorded trace, placed (finalizes it if the profiler is still attached)."""
        if self._trace is None or self._attached:
            device = self.device
            self._trace = place_traces([self.recorder.to_trace()], [device.requests],
                                       [device.place()],
                                       device.spec.cuda_malloc_overhead_ns)[0].trace
        return self._trace

    def access_intervals(self, include_lifecycle: bool = False) -> IntervalArrays:
        """All access-time intervals of the recorded trace."""
        return compute_interval_arrays(self.trace(), include_lifecycle=include_lifecycle)

    def breakdown(self, label: str = "") -> OccupationBreakdown:
        """Occupation breakdown (Figures 5-7) of the recorded trace."""
        return occupation_breakdown(self.trace(), label=label)

    def event_count(self) -> int:
        """Number of behaviors recorded so far."""
        return len(self.recorder)

    def require_attached(self) -> None:
        """Raise if the profiler is not currently attached to the device."""
        if not self._attached:
            raise TraceError("the profiler is not attached; call start() first")
