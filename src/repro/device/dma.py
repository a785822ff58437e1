"""Host↔device copy engine (DMA) with the paper's measured bandwidths.

Equation 1 of the paper bounds the profitable swap size by the round-trip
bandwidth between host and device::

    S / B_d2h + S / B_h2d <= ATI   =>   S <= ATI / (1/B_d2h + 1/B_h2d)

The :class:`DmaEngine` models those transfers: each copy takes the fixed
memcpy launch overhead plus ``bytes / bandwidth`` and can either advance the
device clock (synchronous copy on the compute stream) or be scheduled on a
dedicated copy stream for overlap analysis (used by the swap planner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .clock import DeviceClock
from .spec import DeviceSpec
from .stream import Stream
from .timing import KernelTimingModel


@dataclass(frozen=True)
class CopyRecord:
    """One host↔device transfer performed by the DMA engine."""

    direction: str  # "h2d" or "d2h"
    nbytes: int
    start_ns: int
    end_ns: int
    tag: str = ""

    @property
    def duration_ns(self) -> int:
        """Duration of the transfer in nanoseconds."""
        return self.end_ns - self.start_ns


class DmaEngine:
    """Models pinned-memory host↔device copies.

    Parameters
    ----------
    spec:
        Device specification holding the h2d/d2h bandwidths.
    clock:
        The device clock advanced by synchronous copies.
    timing:
        Timing model supplying the memcpy launch overhead.
    copy_stream:
        Optional dedicated stream used by asynchronous copies; if omitted a
        fresh stream named ``"copy"`` is created.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        clock: DeviceClock,
        timing: KernelTimingModel,
        copy_stream: Optional[Stream] = None,
    ):
        self.spec = spec
        self.clock = clock
        self.timing = timing
        self.copy_stream = copy_stream if copy_stream is not None else Stream("copy", clock)
        self.records: List[CopyRecord] = []

    # -- synchronous copies ------------------------------------------------------

    def host_to_device(self, nbytes: int, tag: str = "") -> CopyRecord:
        """Blocking host→device copy; advances the device clock."""
        return self._synchronous_copy("h2d", nbytes, self.spec.h2d_bandwidth, tag)

    def device_to_host(self, nbytes: int, tag: str = "") -> CopyRecord:
        """Blocking device→host copy; advances the device clock."""
        return self._synchronous_copy("d2h", nbytes, self.spec.d2h_bandwidth, tag)

    def _synchronous_copy(self, direction: str, nbytes: int, bandwidth: float,
                          tag: str) -> CopyRecord:
        duration = self.timing.memcpy_duration_ns(nbytes, bandwidth)
        start = self.clock.now_ns
        if self.clock.tape is not None:
            self.clock.tape.record_memcpy(direction, nbytes, duration)
        self.clock.advance(duration)
        record = CopyRecord(direction=direction, nbytes=nbytes, start_ns=start,
                            end_ns=self.clock.now_ns, tag=tag)
        self.records.append(record)
        return record

    # -- asynchronous copies (overlap modelling) -----------------------------------

    def async_host_to_device(self, nbytes: int, tag: str = "") -> CopyRecord:
        """Non-blocking host→device copy scheduled on the copy stream."""
        return self._async_copy("h2d", nbytes, self.spec.h2d_bandwidth, tag)

    def _async_copy(self, direction: str, nbytes: int, bandwidth: float,
                    tag: str) -> CopyRecord:
        duration = self.timing.memcpy_duration_ns(nbytes, bandwidth)
        start, end = self.copy_stream.schedule(duration)
        record = CopyRecord(direction=direction, nbytes=nbytes, start_ns=start,
                            end_ns=end, tag=tag)
        self.records.append(record)
        return record

    # -- deadline-scheduled copies (swap execution) ---------------------------------

    def async_host_to_device_at(self, nbytes: int, earliest_start_ns: int,
                                tag: str = "") -> CopyRecord:
        """Host→device copy reserved on the copy stream at a (future) start time.

        The swap engine uses this for prefetches: the copy may start no
        earlier than ``earliest_start_ns`` (so the block stays on the host
        for the bulk of its idle interval) and no earlier than the copy
        stream's completion horizon (so concurrent swap traffic serializes
        and contention shows up as late prefetches).
        """
        return self._async_copy_at("h2d", nbytes, self.spec.h2d_bandwidth,
                                   earliest_start_ns, tag)

    def async_device_to_host_at(self, nbytes: int, earliest_start_ns: int,
                                tag: str = "") -> CopyRecord:
        """Device→host copy reserved on the copy stream at a (future) start time."""
        return self._async_copy_at("d2h", nbytes, self.spec.d2h_bandwidth,
                                   earliest_start_ns, tag)

    def async_host_to_device_by(self, nbytes: int, deadline_ns: int,
                                earliest_start_ns: int = 0,
                                tag: str = "") -> CopyRecord:
        """Host→device copy placed to complete by ``deadline_ns`` if possible.

        Deadline-driven prefetches use the latest-fitting idle window of the
        copy stream (see :meth:`~repro.device.stream.Stream.reserve_before`),
        so simultaneous prefetches against one deadline stack backwards in
        time; an unmeetable deadline degrades to earliest-fit and the copy is
        simply late.
        """
        duration = self.timing.memcpy_duration_ns(nbytes, self.spec.h2d_bandwidth)
        start, end = self.copy_stream.reserve_before(
            deadline_ns, duration, earliest_start_ns=earliest_start_ns,
            name=tag or "swap-h2d")
        record = CopyRecord(direction="h2d", nbytes=nbytes, start_ns=start,
                            end_ns=end, tag=tag)
        self.records.append(record)
        return record

    def _async_copy_at(self, direction: str, nbytes: int, bandwidth: float,
                       earliest_start_ns: int, tag: str) -> CopyRecord:
        duration = self.timing.memcpy_duration_ns(nbytes, bandwidth)
        start, end = self.copy_stream.reserve(earliest_start_ns, duration,
                                              name=tag or f"swap-{direction}")
        record = CopyRecord(direction=direction, nbytes=nbytes, start_ns=start,
                            end_ns=end, tag=tag)
        self.records.append(record)
        return record

    # -- helpers -------------------------------------------------------------------

    def round_trip_time_ns(self, nbytes: int) -> float:
        """Time to swap ``nbytes`` out to the host and back (Eq. 1 left-hand side)."""
        out_ns = 1e9 * nbytes / self.spec.d2h_bandwidth
        back_ns = 1e9 * nbytes / self.spec.h2d_bandwidth
        return out_ns + back_ns

    def total_bytes(self, direction: Optional[str] = None) -> int:
        """Total bytes transferred (optionally filtered by direction)."""
        return sum(r.nbytes for r in self.records
                   if direction is None or r.direction == direction)
