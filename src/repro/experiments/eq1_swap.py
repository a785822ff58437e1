"""Experiment E4 — Equation 1 and the bandwidthTest measurement.

The paper measures pinned host↔device bandwidths with CUDA's
``bandwidthTest`` (6.3 GB/s h2d, 6.4 GB/s d2h) and applies Eq. 1 to conclude
that a 25 us ATI only hides ~79.37 KB of swapping while a 0.8 s ATI hides
~2.54 GB.  This experiment runs the simulated bandwidth test and evaluates
Eq. 1 at the paper's operating points plus a configurable sweep of ATIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.swap import BandwidthConfig, max_swap_bytes
from ..device.bandwidth import BandwidthReport, BandwidthTest
from ..device.device import Device
from ..device.spec import titan_x_pascal
from ..units import GB, KB, us_to_ns

#: The two operating points the paper evaluates Eq. 1 at.
PAPER_OPERATING_POINTS_US = (25.0, 800_000.0)

#: The paper's reported answers for those operating points.
PAPER_EXPECTED_SWAP_BYTES = {25.0: 79.37 * KB, 800_000.0: 2.54 * GB}


@dataclass
class Eq1Result:
    """Measured bandwidths plus the Eq.-1 swap bound across a sweep of ATIs."""

    bandwidth_report: BandwidthReport
    bandwidths: BandwidthConfig
    sweep: List[Tuple[float, float]]          # (ati_us, max_swap_bytes)
    paper_points: Dict[float, float]          # ati_us -> max_swap_bytes

    def summary(self) -> Dict[str, object]:
        """Compact summary recorded in EXPERIMENTS.md."""
        return {
            "measured_h2d_gbps": self.bandwidth_report.h2d_gb_per_s,
            "measured_d2h_gbps": self.bandwidth_report.d2h_gb_per_s,
            "swap_bound_at_25us_kb": self.paper_points[25.0] / KB,
            "swap_bound_at_0.8s_gb": self.paper_points[800_000.0] / GB,
        }


def run_eq1(device: Optional[Device] = None,
            ati_sweep_us: Sequence[float] = (1, 5, 10, 25, 50, 100, 1_000, 10_000,
                                             100_000, 800_000, 1_000_000),
            use_measured_bandwidths: bool = False) -> Eq1Result:
    """Measure bandwidths on the simulated device and evaluate Eq. 1.

    By default the Eq.-1 evaluation uses the paper's reported bandwidths so
    the bounds land exactly on the paper's numbers; with
    ``use_measured_bandwidths=True`` the bounds use the bandwidths actually
    achieved by the simulated bandwidth test (slightly lower because each copy
    pays a launch overhead, mirroring the real tool's behavior at small sizes).
    """
    device = device if device is not None else Device(titan_x_pascal(), execution_mode="symbolic")
    report = BandwidthTest(device).run()
    if use_measured_bandwidths:
        bandwidths = BandwidthConfig(
            h2d_bytes_per_s=report.h2d.bandwidth_bytes_per_s,
            d2h_bytes_per_s=report.d2h.bandwidth_bytes_per_s,
        )
    else:
        bandwidths = BandwidthConfig.from_paper()
    sweep = [(float(ati_us), max_swap_bytes(us_to_ns(ati_us), bandwidths))
             for ati_us in ati_sweep_us]
    paper_points = {ati_us: max_swap_bytes(us_to_ns(ati_us), bandwidths)
                    for ati_us in PAPER_OPERATING_POINTS_US}
    return Eq1Result(bandwidth_report=report, bandwidths=bandwidths, sweep=sweep,
                     paper_points=paper_points)
