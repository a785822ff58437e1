"""A ``bandwidthTest`` equivalent for the simulated device.

The paper measures pinned host↔device memcpy bandwidth with the
``bandwidthTest`` tool from the CUDA SDK samples and reports 6.3 GB/s
(host→device) and 6.4 GB/s (device→host) on its Titan X Pascal testbed.
:class:`BandwidthTest` performs the same measurement against a simulated
:class:`~repro.device.device.Device`: it issues a series of fixed-size
blocking copies, times them with the device clock and reports the achieved
bandwidth.  Because every copy also pays a launch overhead, the measured
numbers converge to the configured bandwidths only for large transfer sizes
— just like the real tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..units import GB, MIB
from .device import Device


@dataclass(frozen=True)
class BandwidthMeasurement:
    """Result of one direction of the bandwidth test."""

    direction: str
    transfer_bytes: int
    repetitions: int
    total_ns: int

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Achieved bandwidth in bytes/second."""
        if self.total_ns == 0:
            return float("inf")
        return 1e9 * self.transfer_bytes * self.repetitions / self.total_ns

    @property
    def bandwidth_gb_per_s(self) -> float:
        """Achieved bandwidth in decimal GB/s (the unit ``bandwidthTest`` prints)."""
        return self.bandwidth_bytes_per_s / GB


@dataclass(frozen=True)
class BandwidthReport:
    """Measured bandwidths in both directions, as the paper reports them."""

    h2d: BandwidthMeasurement
    d2h: BandwidthMeasurement

    @property
    def h2d_gb_per_s(self) -> float:
        """Host→device bandwidth in GB/s."""
        return self.h2d.bandwidth_gb_per_s

    @property
    def d2h_gb_per_s(self) -> float:
        """Device→host bandwidth in GB/s."""
        return self.d2h.bandwidth_gb_per_s

    def summary(self) -> str:
        """Human-readable summary, mirroring ``bandwidthTest`` output."""
        return (
            f"Host to Device Bandwidth: {self.h2d_gb_per_s:.1f} GB/s\n"
            f"Device to Host Bandwidth: {self.d2h_gb_per_s:.1f} GB/s"
        )


class BandwidthTest:
    """Measure pinned host↔device transfer bandwidth on the simulated device."""

    def __init__(self, device: Device, transfer_bytes: int = 32 * MIB,
                 repetitions: int = 10):
        if transfer_bytes <= 0:
            raise ValueError("transfer_bytes must be positive")
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        self.device = device
        self.transfer_bytes = int(transfer_bytes)
        self.repetitions = int(repetitions)

    def _measure(self, direction: str) -> BandwidthMeasurement:
        copy = (self.device.copy_host_to_device if direction == "h2d"
                else self.device.copy_device_to_host)
        start = self.device.clock.now_ns
        for _ in range(self.repetitions):
            copy(self.transfer_bytes)
        total = self.device.clock.now_ns - start
        return BandwidthMeasurement(
            direction=direction,
            transfer_bytes=self.transfer_bytes,
            repetitions=self.repetitions,
            total_ns=total,
        )

    def run(self) -> BandwidthReport:
        """Run both directions and return the report."""
        h2d = self._measure("h2d")
        d2h = self._measure("d2h")
        return BandwidthReport(h2d=h2d, d2h=d2h)

    def sweep(self, sizes: List[int]) -> List[BandwidthReport]:
        """Measure bandwidth at several transfer sizes (shmoo mode)."""
        reports = []
        original = self.transfer_bytes
        try:
            for size in sizes:
                self.transfer_bytes = int(size)
                reports.append(self.run())
        finally:
            self.transfer_bytes = original
        return reports
