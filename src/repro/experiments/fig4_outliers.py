"""Experiment E5 — Figure 4: per-behavior ATI and block size, and the outliers.

Figure 4 plots, for every memory behavior, its ATI together with the size of
the block it touches.  Most behaviors have negligible ATIs, but a few have
ATIs above 0.8 s on blocks larger than 600 MB; the paper's red-marked example
is 840 211 us on a 1200 MB block, for which Eq. 1 allows ~2.54 GB of free
swapping — those are the behaviors worth optimizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.ati import IntervalArrays, compute_interval_arrays
from ..core.outliers import OutlierReport, find_outliers, pairwise_ati_size, top_swap_candidates
from ..core.swap import BandwidthConfig, max_swap_bytes
from ..train.session import TrainingRunConfig
from ..units import GB, ns_to_us
from .configs import paper_mlp_config
from .sweep import Scenario, SweepRunner


@dataclass
class Fig4Result:
    """The Figure-4 series plus the outlier report and their Eq.-1 swap bounds.

    ``outliers`` and ``top_candidates`` hold row indices into ``intervals``.
    """

    label: str
    intervals: IntervalArrays
    pairwise: List[Dict[str, object]]
    outliers: OutlierReport
    bandwidths: BandwidthConfig
    top_candidates: np.ndarray

    def largest_outlier_swap_bound_gb(self) -> float:
        """Eq.-1 bound (in decimal GB) for the largest outlier's ATI."""
        largest = self.outliers.largest
        if largest is None:
            return 0.0
        return max_swap_bytes(int(self.intervals.interval_ns[largest]), self.bandwidths) / GB

    def summary(self) -> Dict[str, object]:
        """Compact summary recorded in EXPERIMENTS.md."""
        largest = self.outliers.largest
        ati_us = size = None
        if largest is not None:
            ati_us = ns_to_us(int(self.intervals.interval_ns[largest]))
            size = int(self.intervals.size[largest])
        return {
            "workload": self.label,
            "num_behaviors": len(self.intervals),
            "num_outliers": self.outliers.count,
            "outlier_fraction": self.outliers.fraction,
            "largest_outlier_ati_us": ati_us,
            "largest_outlier_size_bytes": size,
            "largest_outlier_swap_bound_gb": self.largest_outlier_swap_bound_gb(),
        }


def run_fig4(config: Optional[TrainingRunConfig] = None,
             bandwidths: Optional[BandwidthConfig] = None,
             runner: Optional[SweepRunner] = None) -> Fig4Result:
    """Run the Figure-4 experiment on the trace ``runner`` serves for ``config``."""
    runner = runner if runner is not None else SweepRunner()
    scenario = Scenario(config if config is not None else paper_mlp_config())
    bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
    trace = runner.trace(scenario)
    intervals = compute_interval_arrays(trace)
    tags = trace.event_tags
    return Fig4Result(
        label=scenario.label,
        intervals=intervals,
        pairwise=pairwise_ati_size(intervals),
        outliers=find_outliers(intervals, tags),
        bandwidths=bandwidths,
        top_candidates=top_swap_candidates(intervals, top_k=10),
    )
