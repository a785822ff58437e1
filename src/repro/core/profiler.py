"""High-level memory profiler.

:class:`MemoryProfiler` is the user-facing entry point of the reproduction:
it attaches a :class:`~repro.core.recorder.TraceRecorder` to a device for the
duration of a ``with`` block (or between ``start()``/``stop()`` calls), passes
iteration boundaries through to the recorder, and hands back the finished
:class:`~repro.core.trace.MemoryTrace` plus convenience analyses.

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
from .recorder import TraceRecorder
from .trace import MemoryTrace


class MemoryProfiler:
    """Attach allocator/storage instrumentation to a device and collect a trace."""

    def __init__(self, device: Device, metadata: Optional[Dict[str, object]] = None):
        self.device = device
        meta = {"device": device.spec.to_dict(), "allocator": device.allocator.name}
        meta.update(metadata or {})
        self.recorder = TraceRecorder(device.clock, metadata=meta)
        self._attached = False
        self._trace: Optional[MemoryTrace] = None

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "MemoryProfiler":
        """Attach the recorder to the device and begin collecting behaviors."""
        if not self._attached:
            self.device.add_listener(self.recorder)
            self._attached = True
        return self

    def stop(self) -> MemoryTrace:
        """Detach from the device and freeze the trace."""
        if self._attached:
            self.device.remove_listener(self.recorder)
            self._attached = False
        self._trace = self.recorder.to_trace()
        return self._trace

    def __enter__(self) -> "MemoryProfiler":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # -- recorder passthrough (so the profiler can be handed to the Trainer) -------------

    def begin_iteration(self, index: int) -> None:
        """Forward an iteration start to the recorder."""
        self.recorder.begin_iteration(index)

    def end_iteration(self, index: int) -> None:
        """Forward an iteration end to the recorder."""
        self.recorder.end_iteration(index)

    # -- results ------------------------------------------------------------------------

    def trace(self) -> MemoryTrace:
        """The recorded trace (finalizes it if the profiler is still attached)."""
        if self._trace is None or self._attached:
            self._trace = self.recorder.to_trace()
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
